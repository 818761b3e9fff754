"""The batched kernels against the per-sample computations they replaced.

The verify samplers draw all their samples first and hand the stack to
batched kernels.  Every kernel must give, row for row, the bits of the
per-sample loop it replaced (np.array_equal, NaN included).  The references
below make the same numpy and LAPACK calls one sample at a time (det, dot,
matrix-vector products, eigvalsh, libm's pow), so these tests hold on any
BLAS kernel, unlike the report SHA-256 pins.  Each kernel takes only a
stack, so a sample alone is a stack of one, and a non-finite sample stays
in its row.
"""

import itertools

import numpy as np
import pytest

from g2fueter import checks
from g2fueter import exterior as ex
from g2fueter import fueter as fu
from g2fueter import g2core as g2
from g2fueter import splitting as sp

S = sp.standard_splitting()
G = g2.standard_g2()
J = fu.jtriple_from_splitting()
SIZES = (0, 1, 1000)
EVERY = 37  # the slow references check every 37th row of a batch, and the last


def _equal(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def _checked_rows(n):
    return sorted(set(range(0, n, EVERY)) | ({n - 1} if n else set()))


# -- the per-sample references ---------------------------------------------------


def _form_value(form, vectors):
    """sum c * det(minor), accumulated in coefficient order from 0.0."""
    mat = np.array(vectors, dtype=float).T
    total = 0.0
    for idx, c in form.coeffs.items():
        total += c * float(np.linalg.det(mat[[i - 1 for i in idx]]))
    return total


def _vector_form_value(vform, vectors):
    return np.array([_form_value(c, vectors) for c in vform.components])


def _chi(u, v, w):
    return np.array([_form_value(G.star_phi, [u, v, w, e]) for e in np.eye(7)])


def _ve_series(T, kmax):
    lam = np.linalg.eigvalsh(T @ T.T)
    sq = [1.0]
    for m in range(1, kmax + 1):
        sq.append(sq[-1] * (0.5 - (m - 1)) / m)
    series = np.zeros(kmax + 1)
    series[0] = 1.0
    for ev in lam:
        factor = np.array([sq[m] * ev ** m for m in range(kmax + 1)])
        series = np.array([series[: m + 1] @ factor[m::-1] for m in range(kmax + 1)])
    return series


def _ve_recursive(T, kmax):
    minor_sq = [1.0, float(np.sum(T * T)), 0.0, 0.0]
    for k in (2, 3):
        for rows in itertools.combinations(range(3), k):
            for cols in itertools.combinations(range(4), k):
                m = np.linalg.det(T[np.ix_(rows, cols)])
                minor_sq[k] += m * m
    ve = [1.0]
    if kmax >= 1:
        ve.append(0.5 * minor_sq[1])
    for k in range(2, kmax + 1):
        wedge_term = minor_sq[k] if k <= 3 else 0.0
        ve.append(0.5 * (wedge_term - sum(ve[i] * ve[k - i] for i in range(1, k))))
    return np.array(ve)


def _fueter_vector(T):
    dense = G.phi_dense
    out = np.zeros(4)
    for i in range(3):
        u = np.zeros(7)
        u[3:] = T[i]
        out += np.einsum("jk,j->k", dense[i], u)[3:]
    return out


def _frame(T):
    return [np.concatenate([np.eye(3)[i], T[i]]) for i in range(3)]


def _condition_residuals(T):
    lam, omega, theta, mu = S.form_parts()
    frame = _frame(T)
    gap = _ve_series(T, 1)[1] - _form_value(omega, frame)
    chi1 = np.array([-_form_value(ex.interior(np.eye(7)[3 + a], theta), frame) for a in range(4)])
    beta = sp.beta_of(T[None])._sample(0)
    return (gap, float(np.linalg.norm(_fueter_vector(T))), float(np.linalg.norm(chi1)),
            np.max([abs(_form_value(theta, frame + [e])) for e in np.eye(7)]),
            ex.wedge(beta, G.star_phi).norm(), ex.wedge(beta, theta).norm())


def _ladder(T):
    frame = _frame(T)
    alpha = [_form_value(p, frame) for p in S.phi_f_parts]
    chi = [_vector_form_value(p, frame) for p in S.chi_f_parts]
    norms = [0.0] * 4
    for idx in itertools.combinations(range(7), 3):
        c = np.linalg.det(np.array(frame).T[list(idx)])
        norms[sum(i >= 3 for i in idx)] += c * c
    ve = _ve_series(T, 3)

    def pairing(total):
        acc = 0.0
        for i in range(max(0, total - 3), min(3, total) + 1):
            acc += alpha[i] * alpha[total - i]
            acc += float(chi[i] @ chi[total - i])
        return acc

    even = [abs(pairing(2 * ell) - norms[ell]) for ell in range(1, 4)]
    odd = [abs(pairing(2 * ell + 1)) for ell in range(1, 4)]
    match = [abs(norms[ell] - sum(ve[i] * ve[ell - i] for i in range(ell + 1)))
             for ell in range(1, 4)]
    chi_norms = [float(np.linalg.norm(c)) for c in chi]
    depth = 0
    while depth < 3 and chi_norms[depth + 1] < sp.IDENTITY_RESIDUAL_TOL:
        depth += 1
    a = alpha + [0.0] * 5
    ladder = []
    for ell in range(1, depth + 1):
        ladder += [abs(a[2 * ell] - ve[ell]), abs(a[2 * ell + 1])]
    if depth < 3:
        ladder.append(abs(a[2 * depth + 2] + 0.5 * chi_norms[depth + 1] ** 2 - ve[depth + 1]))
    return even, odd, match, depth, ladder


# -- kernels, each with its per-sample reference -------------------------------------
#
# test id -> (sample shape, kernel on a stack, per-sample reference on one
# sample).  The ids are fixed strings, kept as the suite has always listed
# these cases; each names the kernel it had when its case was added, and
# "<op>_many" now runs the plain <op> (ROADMAP item 23 renames them).

KERNELS = {
    "Form.apply_many": ((3, 7), G.phi.apply, lambda F: _form_value(G.phi, F)),
    "VectorValuedForm.apply_many": ((3, 7), G.chi_form.apply,
                                    lambda F: _vector_form_value(G.chi_form, F)),
    "chi_many": ((3, 7), g2.chi, lambda F: _chi(*F)),
    "tau_many": ((4, 7), g2.tau, lambda F: _vector_form_value(G.tau_form, F)),
    "ve_series_many": ((3, 4), lambda Ts: sp.ve_series(Ts, 4), lambda T: _ve_series(T, 4)),
    "ve_recursive_many": ((3, 4), lambda Ts: sp.ve_recursive(Ts, 6),
                          lambda T: _ve_recursive(T, 6)),
    "fueter_vector_many": ((3, 4), fu.fueter_vector, _fueter_vector),
    "fueter_via_J_many": ((3, 4), lambda Ts: fu.fueter_via_J(Ts, J),
                          lambda T: sum(Ji @ T[i] for i, Ji in enumerate(J.as_tuple()))),
    "chi_component_values_many": (
        (3, 4), lambda Ts: np.stack(fu.chi_component_values(Ts), axis=1),
        lambda T: np.stack([_vector_form_value(p, _frame(T)) for p in S.chi_f_parts])),
    "condition_residuals_many": (
        (3, 4), lambda Ts: np.array([r.residuals() for r in fu.condition_residuals(Ts)]),
        lambda T: np.array(_condition_residuals(T))),
    "equality_ladder_many": (
        (3, 4), lambda Ts: [_report_tuple(r) for r in sp.equality_ladder(Ts)], _ladder),
}


def _report_tuple(rep):
    return (rep.even_residuals, rep.odd_residuals, rep.ve_match_residuals,
            rep.vanishing_depth, rep.ladder_residuals)


def _same(a, b):
    if isinstance(a, tuple):  # a ladder report: lists of floats and a depth
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return _equal(a, b) and np.shape(a) == np.shape(b)


def _all_finite(x):
    parts = x if isinstance(x, tuple) else (x,)
    return all(np.all(np.isfinite(np.asarray(part, dtype=float))) for part in parts)


def _draws(shape, n, seed=0):
    return np.random.default_rng(seed).standard_normal((n,) + shape)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("n", SIZES)
def test_batch_rows_equal_the_per_sample_reference(name, n):
    shape, kernel, reference = KERNELS[name]
    stack = _draws(shape, n)
    got = kernel(stack)
    assert len(got) == n
    # every row is the kernel on that sample alone ...
    for row, sample in zip(got, stack):
        assert _same(row, kernel(sample[None])[0])
    # ... and the per-sample loop the kernel replaced
    for i in _checked_rows(n):
        assert _same(got[i], reference(stack[i])), i


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_non_finite_row_stays_in_its_row(name):
    shape, kernel, _ = KERNELS[name]
    clean = _draws(shape, 12, seed=1)
    bad = clean.copy()
    bad[3].flat[5] = np.nan
    bad[7].flat[0] = np.inf
    with np.errstate(all="ignore"):
        got, want = kernel(bad), kernel(clean)
        for i in range(12):
            if i in (3, 7):
                assert _same(got[i], kernel(bad[i:i + 1])[0])
                assert not _all_finite(got[i])
            else:
                assert _same(got[i], want[i])


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("wrong", [(5, 3, 5), (5, 2, 7), (3, 4), (5, 1, 3, 4)])
def test_wrong_shape_raises(name, wrong):
    shape, kernel, _ = KERNELS[name]
    if wrong[1:] == shape:
        pytest.skip("the kernel's own shape")
    with pytest.raises(ex.DimensionMismatchError):
        kernel(np.zeros(wrong))


# -- the samplers' draws -------------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("pieces", [[(3, 4)], [(3, 7)], [(4, 7)], [(4,), (4,)],
                                    [(4,), (4,), (3, 4)]])
def test_one_stacked_draw_is_the_loop_of_draws(n, pieces):
    # the samplers' premise: rng.standard_normal((n, *shape)) hands out the
    # same numbers as n loop iterations drawing each piece in turn, as
    # completion's 4 + 4 and six-way's interleaved 4 + 4 + 12 normals do
    width = sum(int(np.prod(p)) for p in pieces)
    whole = np.random.default_rng(42).standard_normal((n, width))
    rng = np.random.default_rng(42)
    loop = [np.concatenate([rng.standard_normal(p).ravel() for p in pieces]) for _ in range(n)]
    assert _equal(whole, np.reshape(loop, (n, width)))


def test_six_way_matches_the_per_plane_loop():
    # the old sampler: one plane at a time, each draw where the loop made it
    n = 30
    rng = np.random.default_rng(104)
    want = []
    for _ in range(n):
        v1 = np.concatenate([[1.0, 0, 0], rng.standard_normal(4)])
        v2 = np.concatenate([[0.0, 1, 0], rng.standard_normal(4)])
        V3, _ = fu.fueter_complete([v1], [v2])
        Ts, _ = sp.graph_from_planes(np.stack([v1, v2, V3[0]])[None])
        generic = rng.standard_normal((3, 4))
        want.append((_condition_residuals(Ts[0]), _condition_residuals(generic)))
    got = checks._six_way(np.random.default_rng(104), n)
    assert len(got) == n
    for (f, h), (wf, wh) in zip(got, want):
        assert _equal(f.residuals(), wf) and _equal(h.residuals(), wh)


def test_ve_routes_match_the_per_plane_loop():
    rng = np.random.default_rng(102)
    want = checks._fold([float(np.abs(
        (lambda T: _ve_series(T, 4) - _ve_recursive(T, 4))(rng.standard_normal((3, 4)))).max())
        for _ in range(300)])
    assert _equal(checks._ve_routes(np.random.default_rng(102), 300), want)


def test_ladder_matches_the_reference_at_every_depth():
    # random planes have depth 0, completed Fueter planes 2 and the zero
    # plane (H itself) 3
    rng = np.random.default_rng(3)
    completed, _ = checks._completed_planes(rng.standard_normal((5, 8)))
    stack = np.array([np.zeros((3, 4)), *completed, *rng.standard_normal((5, 3, 4))])
    got = sp.equality_ladder(stack)
    assert {rep.vanishing_depth for rep in got} == {0, 2, 3}
    for rep, T in zip(got, stack):
        assert _same(_report_tuple(rep), _ladder(T))
