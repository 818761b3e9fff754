"""The package functions that the two sides of a route comparison share.

A check that compares two routes can fail only while the routes stay
independent: once both sides call one function, a fault in it moves both
alike and the comparison goes blind to it.  Each entry below names a
`g2f verify` check, its two sides as callables, and the
exact set of package functions they share.  The test records, with
`sys.setprofile`, the functions each side calls, cold: on the one G2
structure and the one standard splitting built fresh (their caches
cleared), so none of their cached properties is warm, and with exterior's
caches and pde's jet tables cleared, so a cache hit hides no call.  A comprehension or a local function counts as the
function that defines it.  New sharing is a diff here.  Exterior's index
helpers may be shared by any pair; any other shared function is named,
with the reason it merges no route, by the entry that shares it.
"""

import os
import sys

import numpy as np
import pytest

import g2fueter
from g2fueter import checks, exterior, fm_gauge, fueter, g2core, pde, splitting

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
# two polynomial sections, each row 80 coefficients and then its point
DRAWS = np.linspace(-1.0, 1.0, 166).reshape(2, 83)


def _section():
    """The one stacked section that both fm sides read, and its points."""
    return pde.cubic_polynomial_map(DRAWS[:, :80]), DRAWS[:, 80:]


def _tangent_betas():
    u, x = _section()
    return splitting.beta_of(u.jet1(x).swapaxes(1, 2))


def _scaled_curvatures():
    u, x = _section()
    return 2.0 * np.pi * fm_gauge.psi_pullback(fm_gauge.curvature(fm_gauge.fm_transform(u), x))


def _instanton_residuals():
    u, x = _section()
    return fm_gauge.instanton_residual(fm_gauge.fm_transform(u), x)


def _fueter_residuals():
    u, x = _section()
    return fm_gauge.fueter_residual_norm(u, x)


# the jet kernel of the one section: both sides of an fm check read its
# first jets, each from its own call, and take their own route from them
SECTION = {
    "pde.cubic_polynomial_map": "it builds the section both sides read",
    "pde.PolynomialMap.__init__": "it stores the section's coefficients",
    "pde._exponents": "it checks the section's exponents",
    "pde.AnalyticMap.jet1": "it asks for the section's first jets",
    "pde.PolynomialMap._jet": "it evaluates the section's jets, the input of both routes",
    "pde._layout_table": "it compiles the section's monomial table",
    "pde._monomial_table": "it compiles the section's monomial table",
}

# (suite, check[, the route of the second side]) ->
# (side, side, the functions both sides call,
#  {each shared function that is no index helper: why sharing it merges no route})
ROUTES = {
    ("splitting", "decomposition"): (
        lambda: splitting.decompose_form(g2core.standard_g2().phi),
        checks._phi0_parts_by_count,
        set(), {}),
    ("splitting", "ve-two-routes"): (
        lambda: splitting.ve_series(TS, 4),
        lambda: splitting.ve_recursive(TS, 4),
        {"exterior._ordered_sum", "exterior._stacked"},
        {"exterior._ordered_sum": "it fixes the order in which terms are added; each "
                                  "route computes its own terms (eigenvalue powers "
                                  "against squared minors)",
         "exterior._stacked": "it checks the shape of the input graph maps and makes "
                              "them a float array; it computes nothing from them"}),
    # the cross route against each stacked beta route; the cross route
    # reads dense phi, built by sorting index tuples with their signs
    ("fueter", "route-equivalence", "beta-wedge"): (
        lambda: fueter.fueter_vector(TS),
        lambda: fueter.chi1_via_beta(TS),
        {"exterior._sort_with_sign", "exterior._sorted_parity", "exterior._read_only"}, {}),
    ("fueter", "route-equivalence", "projection"): (
        lambda: fueter.fueter_vector(TS),
        lambda: fueter.chi1_via_projection(TS),
        {"exterior._sort_with_sign", "exterior._sorted_parity", "exterior._read_only"}, {}),
    # beta_of on the section's tangent planes against 2 pi Psi* K
    ("fm", "curvature-beta"): (
        _tangent_betas, _scaled_curvatures,
        {"exterior._read_only", "exterior.Form._trusted", *SECTION},
        {**SECTION, "exterior.Form._trusted": "it stores the coefficients that each side "
                                              "computed, dropping zeros; it computes none"}),
    # |K ^ *phi| against |D u|
    ("fm", "mirror-ratio"): (
        _instanton_residuals, _fueter_residuals,
        {"exterior._read_only", *SECTION}, SECTION),
}


def _calls(side):
    """Qualified names of the package functions that side() calls, on the
    G2 structure and the standard splitting built fresh, with exterior's
    caches and pde's jet tables cleared."""
    for built in (g2core.standard_g2, splitting.standard_splitting):
        built.cache_clear()
        built()  # built unrecorded; its tensors and parts stay lazy
    for obj in (*vars(exterior).values(), pde._layout_table):
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
        side()
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize("check", sorted(ROUTES), ids="/".join)
def test_routes_share_only_their_allowlist(check):
    side_a, side_b, shared, reasons = ROUTES[check]
    assert shared - INDEX_HELPERS == reasons.keys()
    assert _calls(side_a) & _calls(side_b) == shared


def test_recorder_sees_a_merged_route():
    # decomposition's first side, and a second side that reuses its binning
    side_a, _, _, _ = ROUTES[("splitting", "decomposition")]
    calls_a = _calls(side_a)
    assert {"splitting.decompose_form", "splitting._vertical_parts",
            "exterior.Form.vertical_degree_parts"} <= calls_a
    merged = _calls(lambda: splitting._vertical_parts(g2core.standard_g2().phi, 3)[::2])
    assert {"splitting._vertical_parts", "exterior.Form.vertical_degree_parts"} <= \
        calls_a & merged
