import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2fueter import exterior as ex
from g2fueter import g2core as g2
from g2fueter import splitting as sp

VOL = ex.basis_form(7, tuple(range(1, 8)))  # dx^{1..7}, the orientation


def perm_sign(seq):
    """Independent parity oracle: count inversions directly."""
    inv = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inv % 2 else 1


def test_wedge_basis_product():
    a = ex.basis_form(7, (1,))
    b = ex.basis_form(7, (2,))
    assert ex.wedge(a, b).equals(ex.basis_form(7, (1, 2)), 0.0)


def test_wedge_repeated_index_is_zero():
    a = ex.basis_form(7, (1, 2))
    b = ex.basis_form(7, (1,))
    assert ex.wedge(a, b).is_zero(0.0)


def test_phi_wedge_star_phi_is_seven_vol():
    # oracle: |phi|^2 equals the sum of squares of its seven unit monomials
    phi = g2.phi0()
    norm_sq = sum(c * c for c in phi.coeffs.values())
    assert norm_sq == 7.0
    got = ex.wedge(phi, ex.hodge(phi))
    assert got.equals(7.0 * VOL, 0.0)


def test_hodge_of_scalar_is_volume():
    one = ex.Form(7, 0, {(): 1.0})
    assert ex.hodge(one).equals(VOL, 0.0)


def test_hodge_against_parity_oracle():
    # permutation-parity oracle on the complementary index set
    for idx in [(1, 2, 3), (2, 5, 7), (1, 4, 6, 7), (3,)]:
        comp = tuple(sorted(set(range(1, 8)) - set(idx)))
        expected = ex.basis_form(7, comp, perm_sign(idx + comp))
        assert ex.hodge(ex.basis_form(7, idx)).equals(expected, 0.0)
    assert ex.hodge(ex.basis_form(7, (1, 2, 3))).equals(ex.basis_form(7, (4, 5, 6, 7)), 0.0)


def test_star_phi0_pinned_fixture():
    assert ex.hodge(g2.phi0()).equals(g2.star_phi0(), 0.0)


def test_interior_examples():
    e1 = np.eye(7)[0]
    e4 = np.eye(7)[3]
    dx123 = ex.basis_form(7, (1, 2, 3))
    assert ex.interior(e1, dx123).equals(ex.basis_form(7, (2, 3)), 0.0)
    assert ex.interior(e4, dx123).is_zero(0.0)
    got = ex.interior(e1, g2.phi0())
    expected = ex.form_from_terms(7, 2, [(1.0, (2, 3)), (1.0, (4, 5)), (1.0, (6, 7))])
    assert got.equals(expected, 0.0)


def test_interior_on_scalar_is_zero_form():
    one = ex.Form(7, 0, {(): 3.0})
    assert ex.interior(np.ones(7), one).is_zero(0.0)


def test_interior_squares_to_zero():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(7)
    a = _random_form(rng, 4)
    assert ex.interior(v, ex.interior(v, a)).norm() < 1e-12


def test_inner_examples():
    dx12 = ex.basis_form(7, (1, 2))
    dx13 = ex.basis_form(7, (1, 3))
    assert ex.inner(dx12, dx12) == 1.0
    assert ex.inner(dx12, dx13) == 0.0
    assert ex.inner(g2.phi0(), g2.phi0()) == 7.0


def test_inner_degree_mismatch_raises():
    with pytest.raises(ex.DimensionMismatchError):
        ex.inner(ex.basis_form(7, (1, 2)), ex.basis_form(7, (1, 2, 3)))


def test_pullback_identity_and_determinant():
    assert ex.pullback(np.eye(7), g2.phi0()).equals(g2.phi0(), 0.0)
    c = 1.7
    got = ex.pullback(c * np.eye(7), VOL)
    assert abs(got.coeffs[tuple(range(1, 8))] - c ** 7) < 1e-9


def test_pullback_functorial():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((7, 7))
    B = rng.standard_normal((7, 7))
    a = _random_form(rng, 3)
    lhs = ex.pullback(A @ B, a)
    rhs = ex.pullback(B, ex.pullback(A, a))
    assert lhs.equals(rhs, 1e-10)


def test_pullback_anisotropic_scaling_splits_phi():
    eps = 0.23
    A = np.diag([1.0] * 3 + [np.sqrt(eps)] * 4)
    got = ex.pullback(A, g2.phi0())
    lam = ex.basis_form(7, (1, 2, 3))
    omega = g2.phi0() - lam
    assert got.equals(lam + eps * omega, 1e-15)


def test_apply_is_determinant_oracle():
    rng = np.random.default_rng(2)
    a = _random_form(rng, 3)
    vs = rng.standard_normal((3, 7))
    # oracle: full antisymmetrization through the dense tensor
    dense = a.to_dense()
    oracle = np.einsum("ijk,i,j,k->", dense, vs[0], vs[1], vs[2])
    assert abs(a.apply(list(vs)) - oracle) < 1e-12


def test_anticommutativity_bulk_exact():
    # 10^4 random monomial pairs, compared with zero tolerance
    rng = np.random.default_rng(7)
    idx_pool = [
        tuple(sorted(rng.choice(np.arange(1, 8), size=k, replace=False)))
        for k in (1, 2, 3)
        for _ in range(40)
    ]
    for _ in range(10_000):
        ia = idx_pool[rng.integers(len(idx_pool))]
        ib = idx_pool[rng.integers(len(idx_pool))]
        a = ex.basis_form(7, ia, float(rng.integers(-5, 6)))
        b = ex.basis_form(7, ib, float(rng.integers(-5, 6)))
        sign = (-1.0) ** (a.degree * b.degree)
        assert ex.wedge(a, b).equals(sign * ex.wedge(b, a), 0.0)


def test_render_canonical():
    a = ex.form_from_terms(7, 2, [(-1.0, (1, 2)), (2.5, (4, 6))])
    assert ex.render(a) == "-dx{12}+2.5*dx{46}"
    assert ex.render(ex.zero_form(7, 2)) == "0"


def test_vector_valued_form_shape_checks():
    comps = tuple(ex.basis_form(7, (1, 2, 3)) for _ in range(4))
    vv = ex.VectorValuedForm(comps)
    assert len(vv.components) == 4 and vv.degree == 3
    with pytest.raises(ex.DimensionMismatchError):
        ex.VectorValuedForm((ex.basis_form(7, (1,)), ex.basis_form(7, (1, 2))))


def _random_form(rng, degree):
    coeffs = {
        idx: rng.standard_normal()
        for idx in itertools.combinations(range(1, 8), degree)
    }
    return ex.Form(7, degree, coeffs)


# -- property tests ------------------------------------------------------------

_monomial = st.tuples(
    st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True),
    st.integers(-5, 5),
)


@settings(max_examples=200, deadline=None)
@given(_monomial, _monomial)
def test_graded_anticommutativity(ma, mb):
    idx_a, ca = ma
    idx_b, cb = mb
    a = ex.basis_form(7, tuple(idx_a), float(ca))
    b = ex.basis_form(7, tuple(idx_b), float(cb))
    sign = (-1.0) ** (a.degree * b.degree)
    assert ex.wedge(a, b).equals(sign * ex.wedge(b, a), 0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 7), st.integers(0, 2 ** 32 - 1))
def test_star_involution_all_degrees(degree, seed):
    a = _random_form(np.random.default_rng(seed), degree)
    assert (ex.hodge(ex.hodge(a)) - a).norm() < 1e-14


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_interior_antiderivation(p, q, seed):
    rng = np.random.default_rng(seed)
    a, b = _random_form(rng, p), _random_form(rng, q)
    v = rng.standard_normal(7)
    lhs = ex.interior(v, ex.wedge(a, b))
    rhs = ex.wedge(ex.interior(v, a), b) + ((-1.0) ** p) * ex.wedge(a, ex.interior(v, b))
    assert (lhs - rhs).norm() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_inner_vs_wedge_star(degree, seed):
    rng = np.random.default_rng(seed)
    a, b = _random_form(rng, degree), _random_form(rng, degree)
    rhs = ex.wedge(a, ex.hodge(b)).coeffs.get(tuple(range(1, 8)), 0.0)
    assert abs(ex.inner(a, b) - rhs) < 1e-12


# -- exactness of the fast paths against plain references ---------------------


def ref_parity(indices):
    """Uncached insertion sort: (sorted tuple, sign) or (None, 0) on a repeat."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and idx[j - 1] == idx[j]:
            return None, 0
    return tuple(idx), sign


def ref_apply(form, vectors):
    """One det per monomial, summed in coefficient order."""
    mat = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    total = 0.0
    for idx, c in form.coeffs.items():
        total += c * np.linalg.det(mat[[i - 1 for i in idx], :])
    return float(total)


def ref_pullback_coeffs(A, form):
    """One det per (monomial, column subset), accumulated in that order."""
    out = {}
    cols = list(itertools.combinations(range(1, form.dim + 1), form.degree))
    for idx, c in form.coeffs.items():
        sub = A[[i - 1 for i in idx], :]
        for J in cols:
            minor = np.linalg.det(sub[:, [j - 1 for j in J]])
            if minor != 0.0:
                out[J] = out.get(J, 0.0) + c * minor
    return {k: float(v) for k, v in out.items() if v != 0.0}


def bits(x):
    return float(x).hex()


def assert_bit_equal_coeffs(got, expected):
    assert list(got) == list(expected)
    assert [bits(v) for v in got.values()] == [bits(v) for v in expected.values()]


@st.composite
def sparse_forms(draw, dims=(7,), degrees=(1, 2, 3, 4)):
    dim = draw(st.sampled_from(dims))
    degree = draw(st.sampled_from([k for k in degrees if k <= dim]))
    keys = list(itertools.combinations(range(1, dim + 1), degree))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    values = st.one_of(st.integers(-3, 3).map(float),
                       st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))
    # the key order is drawn too: sums run in dict order
    return ex.Form(dim, degree, {k: draw(values) for k in chosen})


def _vectors(seed, count, dim=7):
    return list(np.random.default_rng(seed).standard_normal((count, dim)))


_seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 8), max_size=8))
def test_parity_matches_uncached_reference(seq):
    assert ex._sort_with_sign(seq) == ref_parity(seq)
    assert ex._sort_with_sign(tuple(seq)) == ref_parity(seq)


@settings(max_examples=200, deadline=None)
@given(sparse_forms(dims=range(3, 9), degrees=range(1, 9)), _seeds)
def test_apply_is_bit_equal_to_per_monomial_loop(form, seed):
    vs = _vectors(seed, form.degree, form.dim)
    assert bits(form.apply(vs)) == bits(ref_apply(form, vs))


@settings(max_examples=100, deadline=None)
@given(st.lists(sparse_forms(degrees=(3,)), min_size=1, max_size=7), _seeds)
def test_vector_valued_apply_is_bit_equal_per_component(forms, seed):
    vs = _vectors(seed, 3)
    got = ex.VectorValuedForm(tuple(forms)).apply(vs)
    assert [bits(x) for x in got] == [bits(ref_apply(f, vs)) for f in forms]


@settings(max_examples=60, deadline=None)
@given(sparse_forms(degrees=(1, 2, 3)), _seeds)
def test_pullback_is_bit_equal_to_per_minor_loop(form, seed):
    A = np.random.default_rng(seed).standard_normal((7, 7))
    assert_bit_equal_coeffs(ex.pullback(A, form).coeffs, ref_pullback_coeffs(A, form))


def _revalidated(f):
    again = ex.Form(f.dim, f.degree, f.coeffs)
    assert again == f
    assert_bit_equal_coeffs(again.coeffs, f.coeffs)


@settings(max_examples=100, deadline=None)
@given(sparse_forms(degrees=(0, 1, 2, 3, 4)), sparse_forms(degrees=(0, 1, 2, 3, 4)), _seeds)
def test_internal_results_pass_the_public_constructor(a, b, seed):
    rng = np.random.default_rng(seed)
    v, A = rng.standard_normal(7), rng.standard_normal((7, 7))
    results = [ex.wedge(a, b), ex.hodge(a), ex.interior(v, a), ex.pullback(A, a),
               a + a, a - a, 2.5 * a, -a]
    if a.degree == b.degree:
        results.append(a + b)
    for f in results:
        _revalidated(f)


@settings(max_examples=50, deadline=None)
@given(sparse_forms(degrees=(2, 4, 6)), _seeds)
def test_projections_and_beta_pass_the_public_constructor(a, seed):
    _revalidated(g2.project_k7(a, a.degree, g2.standard_g2()))
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((3, 4)) * rng.integers(0, 2, (3, 4))  # with exact zeros
    _revalidated(sp.beta_of(sp.GraphPlane(T, sp.standard_splitting())))


def test_wedge_table_matches_parity_reference():
    for dim in (3, 7, 8):
        for p in range(dim + 1):
            for q in range(dim + 1 - p):
                for ia, row in ex._wedge_table(dim, p, q).items():
                    for ib, hit in row.items():
                        assert hit == ref_parity(ia + ib)


_bad_keys = st.one_of(
    st.lists(st.integers(1, 7), min_size=2, max_size=4, unique=True)
    .filter(lambda k: k != sorted(k)),                              # unsorted
    st.lists(st.integers(1, 7), min_size=1, max_size=3)
    .map(lambda k: sorted(k + k[:1])),                             # repeated
    st.lists(st.integers(-3, 12), min_size=1, max_size=4, unique=True)
    .map(sorted).filter(lambda k: k[0] < 1 or k[-1] > 7),          # out of range
)


@settings(max_examples=100, deadline=None)
@given(_bad_keys)
def test_public_constructor_rejects_bad_keys(key):
    with pytest.raises(ValueError):
        ex.Form(7, len(key), {tuple(key): 1.0})


# -- vector lengths ------------------------------------------------------------


def test_apply_rejects_vectors_of_the_wrong_length():
    f = ex.basis_form(3, (1, 2))
    for vs in ([np.ones(7), np.arange(7.0)], [np.ones(2), np.arange(2.0)]):
        with pytest.raises(ex.DimensionMismatchError):
            f.apply(vs)
        with pytest.raises(ex.DimensionMismatchError):
            ex.VectorValuedForm((f, 2.0 * f)).apply(vs)
    assert f.apply([np.ones(3), np.arange(3.0)]) == 1.0


# -- norm range ----------------------------------------------------------------


@pytest.mark.parametrize("scale", [1e-200, 1e200, 5e-324, 1e-160, 1e160])
def test_norm_does_not_underflow_or_overflow(scale):
    assert ex.basis_form(3, (1, 2), scale).norm() == scale
    two = ex.form_from_terms(7, 2, [(3.0 * scale, (1, 2)), (4.0 * scale, (3, 4))])
    assert two.norm() == pytest.approx(5.0 * scale, rel=1e-15)


def test_norm_keeps_plain_formula_in_range():
    a = _random_form(np.random.default_rng(4), 3)
    assert bits(a.norm()) == bits(np.sqrt(sum(c * c for c in a.coeffs.values())))
    assert ex.zero_form(7, 2).norm() == 0.0
    assert ex.basis_form(7, (1,), np.inf).norm() == np.inf
    assert np.isnan(ex.basis_form(7, (1,), np.nan).norm())


# -- deterministic cost guard ----------------------------------------------------


class _Counter:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def test_one_det_call_per_apply_and_per_pullback_monomial(monkeypatch):
    det = _Counter(np.linalg.det)
    monkeypatch.setattr(np.linalg, "det", det)
    phi, star = g2.phi0(), g2.star_phi0()
    vs = _vectors(0, 3)
    phi.apply(vs)
    assert det.calls == 1
    ex.VectorValuedForm((phi, 2.0 * phi, ex.basis_form(7, (1, 2, 5)))).apply(vs)
    assert det.calls == 2
    ex.pullback(np.random.default_rng(0).standard_normal((7, 7)), star)
    assert det.calls == 2 + len(star.coeffs)


def test_internal_operations_skip_key_validation(monkeypatch):
    phi, star = g2.phi0(), g2.star_phi0()
    G, S, two = g2.standard_g2(), sp.standard_splitting(), ex.basis_form(7, (1, 2))
    G.lambda_matrices  # built once per structure, through the public constructor
    check = _Counter(ex._check_index_tuple)
    monkeypatch.setattr(ex, "_check_index_tuple", check)
    v = np.arange(1.0, 8.0)
    ex.wedge(phi, star)
    ex.wedge(phi, phi)
    ex.hodge(phi)
    ex.interior(v, phi)
    ex.pullback(np.eye(7) + 0.1, phi)
    _ = phi + phi, 3.0 * phi, phi - phi
    g2.project_k7(two, 2, G)
    sp.beta_of(sp.GraphPlane(np.ones((3, 4)), S))
    assert check.calls == 0
    ex.Form(7, 3, phi.coeffs)
    assert check.calls == len(phi.coeffs)


# -- ordered contraction against dense Theta and phi -------------------------------

_THETA = sp.standard_splitting().form_parts()[2].to_dense()
_PHI = g2.phi0().to_dense()
# (dense tensor, einsum subscripts, number of vectors)
_CONTRACTIONS = {
    "theta": (_THETA, "ijkl,ni,nj,nk,nl->n", 4),
    "theta-free": (_THETA, "ijkl,nj,nk,nl->ni", 3),
    "phi": (_PHI, "ijk,ni,nj,nk->n", 3),
}


def _contraction_inputs(seed, n, count, graph, integer):
    """count batches of n vectors.  With graph, the last three are graph
    frames, their first three coordinates exactly e_i; with four batches,
    the first is vertical with further exact zeros.  Integer entries make
    exactly-zero sums likely."""
    rng = np.random.default_rng(seed)
    vecs = rng.integers(-2, 3, (count, n, 7)).astype(float) if integer \
        else rng.standard_normal((count, n, 7))
    if graph:
        vecs[-3:, :, :3] = np.eye(3)[:, None, :]
    if count == 4:
        vecs[0, :, :3] = 0.0
        vecs[0] *= rng.integers(0, 2, (n, 7))
    return list(vecs)


def _hexes(a):
    return [bits(x) for x in np.ravel(a)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_CONTRACTIONS)), _seeds, st.integers(1, 40),
       st.booleans(), st.booleans())
def test_ordered_contract_is_bit_equal_to_einsum(name, seed, n, graph, integer):
    dense, subscripts, count = _CONTRACTIONS[name]
    vecs = _contraction_inputs(seed, n, count, graph, integer)
    got = ex._ordered_contract(dense, *vecs)
    want = np.einsum(subscripts, dense, *vecs)
    assert got.shape == want.shape
    assert _hexes(got) == _hexes(want)


def test_ordered_contract_is_bit_equal_across_blocks():
    # each row depends on its own vectors alone, so the scans may cut the
    # rows into blocks anywhere: the pieces concatenate to one whole call
    rng = np.random.default_rng(0)
    # phi and Theta, each with every slot filled and with the first free
    for dense, count in ((_PHI, 3), (_PHI, 2), (_THETA, 4), (_THETA, 3)):
        for n, integer in itertools.product((1, 2, 13, 40), (False, True)):
            vecs = _contraction_inputs(n, n, count, graph=count >= 3, integer=integer)
            whole = _hexes(ex._ordered_contract(dense, *vecs))
            for cuts in ([0], [1], [n - 1], sorted(rng.integers(0, n + 1, 3))):
                edges = [0, *cuts, n]
                pieces = [ex._ordered_contract(dense, *(v[a:b] for v in vecs))
                          for a, b in zip(edges, edges[1:])]
                assert _hexes(np.concatenate(pieces)) == whole, (count, n, integer, cuts)


def test_ordered_contract_zero_keeps_the_sign_of_einsum():
    frame = [np.tile(e, (3, 1)) for e in np.eye(7)[:3]]  # the horizontal plane
    for name, (dense, subscripts, count) in _CONTRACTIONS.items():
        for fill in (0.0, -0.0):
            vecs = [np.full((3, 7), fill)] + frame[:count - 1]
            got = ex._ordered_contract(dense, *vecs)
            want = np.einsum(subscripts, dense, *vecs)
            assert not np.any(got) and _hexes(got) == _hexes(want), (name, fill)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ordered_contract_keeps_non_finite_coordinates(bad):
    for name, (dense, _, count) in _CONTRACTIONS.items():
        for slot in range(count):
            for coord in range(7):
                vecs = _contraction_inputs(slot * 7 + coord, 1, count, False, False)
                vecs[slot][0, coord] = bad
                with np.errstate(invalid="ignore"):
                    got = ex._ordered_contract(dense, *vecs)
                assert not np.all(np.isfinite(got)), (name, slot, coord)
