"""Per-sample references for the verify suites' stacked kernels, bit for bit.

The two beta routes of `route-equivalence`, the completion and the beta
wedges of the six-way report run over the sample axis.  The functions
below are the per-plane code they replaced, kept here as it was: one
plane at a time, each beta without its zero entries, one LAPACK call and
one matrix-vector product per plane.  `check(Ts, V1, V2)` asserts that
every row of each stacked kernel has the references' float.hex values,
and that a stack of one keeps the references' key order too.

So do the samplers of `verify algebra`, `splitting`, `pde` and `fm`
(`SAMPLERS`): each reference is the loop over samples that a sampler
replaced, kept as it was, one sample at a time through the per-sample
calls (and, where such a call was rewritten, its old code).
`check_sampler(check, seed, n)` asserts that the sampler's residuals have
the reference's float.hex values and that both leave the generator in one
state, so that no later draw moves.

Both test_sample_axis.py (hypothesis draws) and a child of
test_blas_kernels.py (fixed draws, under several OpenBLAS kernels) call them.
"""

import itertools
import math
import sys

import numpy as np

from g2fueter import checks, pde
from g2fueter import exterior as ex
from g2fueter import fm_gauge as fm
from g2fueter import fueter as fu
from g2fueter import g2core as g2
from g2fueter import splitting as sp

S = sp.standard_splitting()
G = S.g2
THETA = S.form_parts()[2]


# -- the per-plane references ----------------------------------------------------


def beta_ref(T):
    return ex.Form._trusted(7, 2, {(i + 1, a + 4): T[i, a] for i in range(3) for a in range(4)})


def norm_ref(form):
    sq = sum(c * c for c in form.coeffs.values())
    if form.coeffs and (sq < sys.float_info.min or sq == math.inf):
        return math.hypot(*form.coeffs.values())
    return float(np.sqrt(sq))


def chi1_via_beta_ref(T):
    return ex.hodge(ex.wedge(beta_ref(T), G.star_phi))


def chi1_via_projection_ref(T):
    L, keys = G.lambda_matrices[2]
    beta = beta_ref(T)
    vec = np.array([beta.coeffs.get(key, 0.0) for key in keys])
    proj = L @ (L.T @ vec)
    projected = ex.Form._trusted(7, 2, {key: proj[r] for r, key in enumerate(keys)})
    vec = np.array([projected.coeffs.get(key, 0.0) for key in keys])
    alpha = L.T @ vec
    return np.sqrt(3.0) * ex.Form(7, 1, {(i + 1,): alpha[i] for i in range(7)})


def beta_wedge_norms_ref(T):
    beta = beta_ref(T)
    return norm_ref(ex.wedge(beta, G.star_phi)), norm_ref(ex.wedge(beta, THETA))


def completion_ref(v1, v2):
    """The completion of one pair with its system's condition number, then
    the graph map of the plane (v1, v2, v3), by one solve each."""
    dense = G.phi_dense

    def cross_f(a, b):
        return np.einsum("ijk,i,j->k", dense, a, b)

    h1, h2 = v1[:3], v2[:3]
    u1 = np.concatenate([np.zeros(3), v1[3:]])
    u2 = np.concatenate([np.zeros(3), v2[3:]])
    e1 = np.concatenate([h1, np.zeros(4)])
    e2 = np.concatenate([h2, np.zeros(4)])
    h3 = cross_f(e1, e2)
    rhs = -(cross_f(e1, u1) + cross_f(e2, u2))[3:]
    M = np.empty((4, 4))
    for a in range(4):
        eta = np.zeros(7)
        eta[3 + a] = 1.0
        M[:, a] = cross_f(h3, eta)[3:]
    v3 = h3.copy()
    v3[3:] += np.linalg.solve(M, rhs)
    span = np.vstack([v1, v2, v3])
    return v3, np.linalg.cond(M), np.linalg.solve(span[:, :3], span[:, 3:])


# -- the comparison ---------------------------------------------------------------


def _items(form):
    return [(key, float(c).hex()) for key, c in form.coeffs.items()]


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


def check(Ts, V1, V2):
    """Every stacked kernel against its reference on each row, and a stack
    of the first row alone against it key by key.

    Ts: graph maps (n, 3, 4); V1, V2: pairs (m, 7) with orthonormal
    horizontal parts.
    """
    for stacked, ref in ((fu.chi1_via_beta, chi1_via_beta_ref),
                         (fu.chi1_via_projection, chi1_via_projection_ref)):
        form = stacked(Ts)  # a row's keys may come in the stack's order
        assert [sorted(_items(form._sample(i))) for i in range(len(Ts))] == \
            [sorted(_items(ref(T))) for T in Ts]
        # a stack of one drops the zero entries, so its keys come in the
        # reference's order
        assert _items(stacked(Ts[:1])._sample(0)) == _items(ref(Ts[0]))
    reports = fu.condition_residuals(Ts)
    got = [(r.beta_wedge_star_phi_norm, r.beta_wedge_theta_norm) for r in reports]
    assert [_hex(pair) for pair in got] == [_hex(beta_wedge_norms_ref(T)) for T in Ts]

    V3, conds = fu.fueter_complete(V1, V2)
    graphs, _ = sp.graph_from_planes(np.stack([V1, V2, V3], axis=1))
    want = [completion_ref(v1, v2) for v1, v2 in zip(V1, V2)]
    assert [_hex(v) for v in V3] == [_hex(v3) for v3, _, _ in want]
    assert _hex(conds) == [float(cond).hex() for _, cond, _ in want]
    assert [_hex(T) for T in graphs] == [_hex(T) for _, _, T in want]


def pairs(angles, vertical):
    """Pairs whose horizontal parts are e1, e2 rotated by each angle, with
    the vertical parts (m, 2, 4)."""
    c, s = np.cos(angles), np.sin(angles)
    V = np.zeros((len(angles), 2, 7))
    V[:, 0, 0], V[:, 0, 1], V[:, 1, 0], V[:, 1, 1] = c, s, -s, c
    V[:, :, 3:] = vertical
    return V[:, 0], V[:, 1]


def fixed_draws(seed=0, n=40):
    """Graph maps with exact zeros, rank <= 2 rows (one row of T zero),
    rows whose squares underflow, and completion pairs with zeros."""
    rng = np.random.default_rng(seed)
    Ts = rng.standard_normal((n, 3, 4)) * (rng.random((n, 3, 4)) < 0.8)
    Ts[::3, rng.integers(3)] = 0.0
    Ts[::7] *= 1e-160
    vertical = rng.standard_normal((n, 2, 4)) * (rng.random((n, 2, 4)) < 0.8)
    angles = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2 * np.pi, n))
    return (Ts, *pairs(angles, vertical))


# -- the verify samplers' per-sample references -----------------------------------


def interior_ref(v, a):
    out = {}
    for idx, c in a.coeffs.items():
        for pos, i in enumerate(idx):
            if v[i - 1] == 0.0:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            sign = -1.0 if pos % 2 else 1.0
            out[rest] = out.get(rest, 0.0) + sign * v[i - 1] * c
    return ex.Form._trusted(a.dim, a.degree - 1, out)


def lambda_k_ref(alpha, k):
    if k == 2:
        v = np.zeros(7)
        for (i,), c in alpha.coeffs.items():
            v[i - 1] = c
        return (1.0 / np.sqrt(3.0)) * interior_ref(v, G.phi)
    return 0.5 * ex.wedge(alpha, G.phi) if k == 4 else ex.hodge(alpha)


def family_ref(a, eps):
    if isinstance(a, ex.VectorValuedForm):
        return ex.VectorValuedForm(tuple(family_ref(c, eps) for c in a.components))
    parts = sp.decompose_form(a)
    out = parts[0]
    for q in range(1, len(parts)):
        if parts[q].coeffs:
            out = out + (eps ** (q // 2) * (np.sqrt(eps) if q % 2 else 1.0)) * parts[q]
    return out


def random_polynomial_map_ref(rng):
    comps = []
    for _ in range(4):
        comp = {}
        for p1 in range(4):
            for p2 in range(4 - p1):
                for p3 in range(4 - p1 - p2):
                    comp[(p1, p2, p3)] = rng.standard_normal()
        comps.append(comp)
    return pde.PolynomialMap(comps)


def curvature_ref(u, x):
    jet = u.jet1(np.asarray(x, dtype=float))
    return ex.Form(7, 2, {(i + 1, a + 4): float(jet[a, i])
                          for i in range(3) for a in range(4) if jet[a, i] != 0.0})


def fueter_residual_norm_ref(u, x):
    return float(np.linalg.norm(pde.fueter_operator_flat(u, np.asarray(x, dtype=float))))


def random_form_ref(rng, degree):
    coeffs = {idx: rng.standard_normal() for idx in itertools.combinations(range(1, 8), degree)}
    return ex.Form(7, degree, coeffs)


def anticommutators_ref(rng, n):
    monos = list(itertools.combinations(range(1, 8), 2))
    out = []
    for _ in range(n):
        a = ex.basis_form(7, monos[rng.integers(len(monos))])
        b = ex.basis_form(7, monos[rng.integers(len(monos))])
        out.append((ex.wedge(a, b) - ((-1.0) ** (a.degree * b.degree)) * ex.wedge(b, a)).norm())
    return out


def inner_gaps_ref(rng, n):
    out = []
    for _ in range(n):
        deg = int(rng.integers(1, 7))
        a, b = random_form_ref(rng, deg), random_form_ref(rng, deg)
        out.append(abs(ex.inner(a, b) - ex.wedge(a, ex.hodge(b)).coeffs.get(tuple(range(1, 8)), 0.0)))
    return out


def leibniz_gaps_ref(rng, n):
    out = []
    for _ in range(n):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        a, b = random_form_ref(rng, p), random_form_ref(rng, q)
        v = rng.standard_normal(7)
        lhs = interior_ref(v, ex.wedge(a, b))
        rhs = ex.wedge(interior_ref(v, a), b) + ((-1.0) ** p) * ex.wedge(a, interior_ref(v, b))
        out.append((lhs - rhs).norm())
    return out


def cross_ref(u, v):
    triples = np.array([[u, v, e] for e in np.eye(7)])
    return np.array([G.phi.apply(t[None])[0] for t in triples])


def double_cross_gaps_ref(rng, n):
    out = []
    for _ in range(n):
        u = rng.standard_normal(7)
        u = u / np.linalg.norm(u)
        v = rng.standard_normal(7)
        lhs = cross_ref(u, cross_ref(u, v))
        out.append(float(np.abs(lhs - (-v + (u @ v) * u)).max()))
    return out


def completion_chis_ref(rng, n):
    out = []
    for _ in range(n):
        u, v = rng.standard_normal((2, 7))
        out.append(float(np.linalg.norm(g2.chi(np.array([[u, v, cross_ref(u, v)]]), G)[0])))
    return out


def isometry_gaps_ref(rng, n):
    out = []
    for k in (2, 4, 6):
        for _ in range(n):
            alpha = ex.Form(7, 1, {(i,): rng.standard_normal() for i in range(1, 8)})
            out.append(abs(lambda_k_ref(alpha, k).norm() - alpha.norm()))
    return out


def projection_gaps_ref(rng, n):
    out = []
    for _ in range(n):
        beta = random_form_ref(rng, 2)
        oracle = (1.0 / 3.0) * (beta + ex.hodge(ex.wedge(G.phi, beta)))
        out.append((g2.project_2_7(beta, G) - oracle).norm())
    return out


def eps_associator_gaps_ref(rng, n):
    out = []
    for _ in range(n):
        e2 = float(rng.uniform(0.05, 1.0))
        chi_eps, phi_eps = family_ref(G.chi_form, e2), family_ref(G.phi, e2)
        vs = rng.standard_normal((3, 7))
        # float(): a Python float's ** 2 is libm's pow, as the sampler's is
        phi_v, chi_v = phi_eps.apply(vs[None])[0], chi_eps.apply(vs[None])[0]
        lhs = float(phi_v) ** 2 + float(np.sum(chi_v ** 2))
        out.append(abs(lhs - np.linalg.det(vs @ np.diag([1.0] * 3 + [e2] * 4) @ vs.T)))
    return out


def volume_excess_ref(rng, n):
    out = []
    for _ in range(n):
        span = rng.standard_normal((3, 7))
        try:
            A = S.horizontal_part(sp.Plane(span).span)
        except (sp.NotProjectableError, ValueError):
            out.append(0.0)
            continue
        volH = float(np.sqrt(np.linalg.det(A @ A.T)))
        out.append(volH - float(np.sqrt(np.linalg.det(span @ span.T))))
    return out


def flat_dirac_squared_ref(rng, n):
    out = []
    for _ in range(n):
        F = random_polynomial_map_ref(rng)
        out.append(float(np.abs(pde.d_squared_residual(F, rng.standard_normal((20, 3)))).max()))
    return out


def curvature_beta_gaps_ref(rng, n):
    out = []
    for _ in range(n):
        u = random_polynomial_map_ref(rng)
        x = rng.standard_normal(3)
        jet = u.jet1(x)
        beta = ex.Form._trusted(7, 2, {(i + 1, a + 4): jet[a, i] for i in range(3) for a in range(4)})
        rhs = 2.0 * np.pi * fm.psi_pullback(curvature_ref(u, x))
        out.append((beta - rhs).norm())
    return out


def mirror_ratio_gaps_ref(rng, n):
    out = []
    for _ in range(n):
        u = random_polynomial_map_ref(rng)
        x = rng.standard_normal(3)
        if fueter_residual_norm_ref(u, x) < 1e-8:
            out.append(0.0)
            continue
        ratio = ex.wedge(curvature_ref(u, x), G.star_phi).norm() / fueter_residual_norm_ref(u, x)
        out.append(abs(ratio - fm.MIRROR_RATIO))
    return out


# check -> (the sampler (rng, n) -> residuals, its per-sample reference)
SAMPLERS = {
    "wedge-anticommutativity": (checks._anticommutators, anticommutators_ref),
    "inner-vs-wedge-star": (checks._inner_gaps, inner_gaps_ref),
    "interior-antiderivation": (checks._leibniz_gaps, leibniz_gaps_ref),
    "double-cross": (lambda rng, n: checks._double_cross_gaps(rng, n, G), double_cross_gaps_ref),
    "cross-completion-associative": (lambda rng, n: checks._completion_chis(rng, n, G),
                                     completion_chis_ref),
    "lambda-isometry": (lambda rng, n: checks._isometry_gaps(rng, n, G), isometry_gaps_ref),
    "projection-eigen-oracle": (lambda rng, n: checks._projection_gaps(rng, n, G),
                                projection_gaps_ref),
    "eps-associator": (checks._eps_associator_gaps, eps_associator_gaps_ref),
    "volH-below-vol": (checks._volume_excess, volume_excess_ref),
    "flat-dirac-squared": (checks._flat_dirac_squared, flat_dirac_squared_ref),
    "curvature-beta": (checks._curvature_beta_gaps, curvature_beta_gaps_ref),
    "mirror-ratio": (checks._mirror_ratio_gaps, mirror_ratio_gaps_ref),
}


def run_sampler(check, seed, n):
    """(the sampler's residuals, the reference's, each generator's state
    after it) from one seed."""
    sampler, ref = SAMPLERS[check]
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = sampler(rngs[0], n), ref(rngs[1], n)
    return got, want, rngs[0].bit_generator.state, rngs[1].bit_generator.state


def check_sampler(check, seed, n):
    got, want, state, want_state = run_sampler(check, seed, n)
    assert _hex(got) == _hex(want), check
    assert state == want_state, check


def check_samplers(seed=0, n=12):
    for check in SAMPLERS:
        check_sampler(check, seed, n)
