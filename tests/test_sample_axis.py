"""The verify suites' stacked kernels: bit oracles, the stream guard and
the cost guard.

The beta routes of `route-equivalence`, the completion and the six-way
report's beta wedges run over the sample axis.  Hypothesis draws graph
maps with exact zeros, rank <= 2 rows (one row of T zero) and rows whose
squares underflow, and completion pairs with rotated horizontal parts;
every row of each stack, and a stack of one row alone, must give the
per-plane references' float.hex values (sample_axis_oracles.py).  The
samplers of `verify algebra`, `splitting`, `pde` and `fm` must give their
per-sample loops' residuals at hypothesis-drawn seeds and counts, and
leave the generator where those loops left it, so that no later check's
draws shift.  The cost guard pins that the Fueter suite's Python-level
work does not grow with its sample count.
"""

import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import sample_axis_oracles as oracles
from g2fueter import checks, cli
from g2fueter import exterior as ex
from g2fueter import fueter, pde
from g2fueter import splitting as sp

# entries 0 or of magnitude 1e-3..4; a sample scaled by 1e-160 has
# squares that underflow, so its norms take the math.hypot fallback.  A
# scale shared by the whole sample keeps the six-way report's det calls
# clear of overflowing pivots, which no route here is about: entries near
# the bottom of the float range leave zero pivots there
# (test_six_way_report_of_a_subnormal_graph_map pins one such report)
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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(oracles.SAMPLERS)), st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_samplers_match_their_per_sample_loops(check, seed, n):
    oracles.check_sampler(check, seed, n)


@pytest.mark.parametrize("check", sorted(oracles.SAMPLERS))
def test_stream_unchanged(check):
    *_, state, loop_state = oracles.run_sampler(check, 29, 40)
    assert state == loop_state


def test_random_polynomial_map_draws_as_its_loop_did():
    rngs = np.random.default_rng(4), np.random.default_rng(4)
    got, want = pde.random_polynomial_map(rngs[0]), oracles.random_polynomial_map_ref(rngs[1])
    assert [dict(c) for c in got.components] == [dict(c) for c in want.components]
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


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
    beta = sp.beta_of(np.ones((n, 3, 4)))
    for use in (lambda: ex.render(beta),
                lambda: beta.equals(beta), lambda: ex.Form(7, 2, beta.coeffs)):
        with pytest.raises(ValueError, match="stacked"):
            use()


def test_an_array_times_a_form_is_the_stacked_form():
    # numpy's operators defer to Form's, so the array's side does not matter
    f = ex.basis_form(7, (1, 2), 3.0) + ex.basis_form(7, (3, 5), -0.5)
    scales = np.array([2.0, 3.0])
    left, right = scales * f, f * scales
    assert isinstance(left, ex.Form) and list(left.coeffs) == list(right.coeffs)
    assert all(np.array_equal(left.coeffs[k], c) for k, c in right.coeffs.items())
    assert left.norm().tolist() == right.norm().tolist()


def test_a_stacked_form_and_a_form_of_floats_do_not_add():
    f = ex.basis_form(7, (1, 2), 3.0)
    stacked = f * np.array([2.0, 3.0])
    for mixed in (lambda: f + stacked, lambda: stacked + f, lambda: stacked - f,
                  lambda: f - stacked):
        with pytest.raises(ValueError, match="stacked"):
            mixed()
    # an empty form adds to either kind
    empty = ex.zero_form(7, 2)
    assert (empty + stacked).norm().tolist() == (stacked - empty).norm().tolist() == [6.0, 9.0]
    assert (empty + f).norm() == (f - empty).norm() == 3.0


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
        checks.run("fueter", np.random.default_rng(1), dict(cli.PROFILES["fast"], samples=samples))
    finally:
        sys.setprofile(previous)
    return counts


def test_fueter_suite_cost_does_not_grow_with_samples():
    assert _costs(50) == _costs(500)


# the floats the report had while its det calls still warned (warnings ignored)
SUBNORMAL_RESIDUALS = ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.19999999e35ddp-1022",
                       "0x0.58ae561bb3b0fp-1022", "0x0.58ae561bb3b0fp-1022"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_six_way_report_of_a_subnormal_graph_map():
    # its minors' LU leaves zero pivots, whose log in det flags a division
    # by zero; exterior._evaluate silences that one flag
    [report] = fueter.condition_residuals(np.full((1, 3, 4), 2.22507386e-309))
    assert [r.hex() for r in report.residuals()] == SUBNORMAL_RESIDUALS
