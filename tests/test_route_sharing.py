"""The package functions that the two sides of a route comparison share.

A check that compares two routes can fail only while the routes stay
independent: once both sides call one function, a fault in it moves both
alike and the comparison goes blind to it.  Each entry below names a
`g2f verify` check, its two sides as callables of a splitting, and the
exact set of package functions they share.  The test records, with
`sys.setprofile`, the functions each side calls, cold: on a splitting
built fresh, so none of its cached properties is warm, and with
exterior's caches cleared, so a cache hit hides no call.  A comprehension
or a local function counts as the function that defines it.  New sharing
is a diff here, and only exterior's index helpers may be shared at all.
"""

import os
import sys

import numpy as np
import pytest

import g2fueter
from g2fueter import cli, exterior, fueter, splitting

PACKAGE = os.path.dirname(g2fueter.__file__) + os.sep

# exterior's index helpers sort, check and tabulate index tuples; none of
# them reads a coefficient, so sharing one merges no route
INDEX_HELPERS = {
    "exterior._check_index_tuple",
    "exterior._sort_with_sign",
    "exterior._sorted_parity",
    "exterior._subsets",
    "exterior._row_array",
    "exterior._read_only",
}

TS = np.linspace(-1.0, 1.0, 24).reshape(2, 3, 4)  # two graph maps

# (suite, check[, the route of the second side]) ->
# (side, side, the functions both sides call)
ROUTES = {
    ("splitting", "decomposition"): (
        lambda S: splitting.decompose_form(S.g2.phi),
        lambda S: cli._phi0_parts_by_count(),
        set()),
    # the cross route against each stacked beta route; the cross route
    # reads dense phi, built by sorting index tuples with their signs
    ("fueter", "route-equivalence", "beta-wedge"): (
        lambda S: fueter.fueter_vector_many(TS, S),
        lambda S: fueter.chi1_via_beta_many(TS, S),
        {"exterior._sort_with_sign", "exterior._sorted_parity", "exterior._read_only"}),
    ("fueter", "route-equivalence", "projection"): (
        lambda S: fueter.fueter_vector_many(TS, S),
        lambda S: fueter.chi1_via_projection_many(TS, S),
        {"exterior._sort_with_sign", "exterior._sorted_parity", "exterior._read_only"}),
}


def _calls(side):
    """Qualified names of the package functions that side(S) calls, on a
    fresh splitting with exterior's caches cleared."""
    S = splitting.standard_splitting()
    for obj in vars(exterior).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    seen = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE):
            module = os.path.splitext(os.path.basename(code.co_filename))[0]
            seen.add(f"{module}.{code.co_qualname.split('.<locals>')[0]}")

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        side(S)
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize("check", sorted(ROUTES), ids="/".join)
def test_routes_share_only_their_allowlist(check):
    side_a, side_b, shared = ROUTES[check]
    assert shared <= INDEX_HELPERS
    assert _calls(side_a) & _calls(side_b) == shared


def test_recorder_sees_a_merged_route():
    # decomposition's first side, and a second side that reuses its binning
    side_a, _, _ = ROUTES[("splitting", "decomposition")]
    calls_a = _calls(side_a)
    assert {"splitting.decompose_form", "splitting._vertical_parts",
            "exterior.Form.vertical_degree_parts"} <= calls_a
    merged = _calls(lambda S: splitting._vertical_parts(S.g2.phi, 3)[::2])
    assert {"splitting._vertical_parts", "exterior.Form.vertical_degree_parts"} <= \
        calls_a & merged
