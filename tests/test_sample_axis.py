"""The Fueter suite's stacked kernels: bit oracles and the cost guard.

The beta routes of `route-equivalence`, the completion and the six-way
report's beta wedges run over the sample axis.  Hypothesis draws graph
maps with exact zeros, rank <= 2 rows (one row of T zero) and rows whose
squares underflow, and completion pairs with rotated horizontal parts;
every row of each stack, and each per-plane entry point, must give the
per-plane references' float.hex values (sample_axis_oracles.py).  The
cost guard pins that the suite's Python-level work does not grow with its
sample count.
"""

import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import sample_axis_oracles as oracles
from g2fueter import cli
from g2fueter import exterior as ex
from g2fueter import fueter
from g2fueter import splitting as sp

# entries 0 or of magnitude 1e-3..4; a sample scaled by 1e-160 has
# squares that underflow, so its norms take the math.hypot fallback.  A
# scale shared by the whole sample keeps the six-way report's det calls
# clear of overflowing pivots, which no route here is about: entries near
# the bottom of the float range make those det calls divide by zero
# (test_six_way_report_of_a_subnormal_graph_map)
MAGNITUDES = st.floats(1e-3, 4.0)
ENTRIES = st.just(0.0) | MAGNITUDES | MAGNITUDES.map(lambda x: -x)


@st.composite
def draws(draw):
    n = draw(st.integers(1, 6))
    Ts = draw(arrays(np.float64, (n, 3, 4), elements=ENTRIES))
    for i in range(n):
        row = draw(st.none() | st.integers(0, 2))
        if row is not None:
            Ts[i, row] = 0.0  # rank <= 2: the plane meets H
        Ts[i] *= draw(st.sampled_from([1.0, 1e-160]))
    angles = draw(arrays(np.float64, n, elements=st.just(0.0) | st.floats(0.0, 2 * np.pi)))
    vertical = draw(arrays(np.float64, (n, 2, 4), elements=ENTRIES))
    return (Ts, *oracles.pairs(angles, vertical))


@settings(max_examples=60, deadline=None)
@given(draws())
def test_stacked_kernels_match_the_per_plane_references(drawn):
    oracles.check(*drawn)


def test_fixed_draws_match_the_per_plane_references():
    # the draws the BLAS-kernel child compares, on the native kernel
    oracles.check(*oracles.fixed_draws())


def test_a_stack_with_mixed_zero_patterns_sums_each_row_in_its_own_order():
    # row 0 lacks beta's (1,4) entry, so its wedge's keys come in another
    # order than row 1's; each row's norm must still sum as it would alone
    T = np.arange(1.0, 13.0).reshape(3, 4) / 7.0
    Ts = np.array([T, T])
    Ts[0, 0, 0] = 0.0
    oracles.check(Ts, *oracles.pairs(np.zeros(2), np.zeros((2, 2, 4))))


@pytest.mark.parametrize("n", [1, 2])
def test_a_stacked_form_has_no_single_value(n):
    beta = sp.beta_of_many(np.ones((n, 3, 4)))
    for use in (lambda: beta.apply(np.eye(7)[:2]), lambda: ex.render(beta),
                lambda: beta.equals(beta), lambda: ex.Form(7, 2, beta.coeffs)):
        with pytest.raises(ValueError, match="stacked"):
            use()


def _costs(samples):
    """Calls of exterior.wedge, np.linalg.solve and GraphPlane.__init__ in
    one fueter suite run at the given sample count."""
    targets = {ex.wedge.__code__: "wedge", inspect.unwrap(np.linalg.solve).__code__: "solve",
               sp.GraphPlane.__init__.__code__: "GraphPlane"}
    counts = dict.fromkeys(targets.values(), 0)

    def record(frame, event, arg):
        if event == "call" and frame.f_code in targets:
            counts[targets[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        cli.SUITES["fueter"](np.random.default_rng(1), dict(cli.PROFILES["fast"], samples=samples))
    finally:
        sys.setprofile(previous)
    return counts


def test_fueter_suite_cost_does_not_grow_with_samples():
    assert _costs(50) == _costs(500)


@pytest.mark.xfail(raises=RuntimeWarning, strict=True,
                   reason="exterior._evaluate's det divides by zero on subnormal minors")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_six_way_report_of_a_subnormal_graph_map():
    S = sp.standard_splitting()
    report = fueter.condition_residuals(sp.GraphPlane(np.full((3, 4), 2.22507386e-309), S))
    assert np.isfinite(report.fueter_norm)
