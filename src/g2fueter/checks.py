"""The checks of `g2f verify`: one table and one driver.

TABLE holds every check of the six suites as a `Check`: its suite, name
and claim, its bound, and fn(rng, tol), which computes its result from
the suite's one generator and the tolerance profile (a dict with the
bound keys and "samples").  `run(suite, rng, tol)` runs a suite's
entries in table order and records each one:

- a residual (a number, or a sequence or array of them) is folded by
  `_fold`, the largest of the residuals and 0.0, NaN if any is NaN;
- a bool is a pass/fail flag: the residual 0.0 if it holds, else 1.0;
- a pair (value, result) reports value (a count, a slope) and compares
  result, a residual or a flag, with the bound; `_distance_from` makes
  the pair of a value and its distance from the value it should have.

The bound is a key of the profile ("identity", "construction", "slack"),
a positive number, or EXACT, which asks for a residual of exactly 0.0;
any other residual passes below its bound, so a NaN never passes.

Two checks that read one draw are one entry whose name, claim and bound
are pairs and whose fn returns the pair of their results, so the draw is
made once and the generator's stream is that of the two checks in turn.

A sampler draws all its samples first, in a loop's order (a draw loop
stays where a size depends on a draw), and its residuals (n,) come from
the library's batched kernels, row i as for sample i alone.  Each
sampled identity has one module-level sampler here: `verify` runs it at
the profile's sample count, the acceptance criteria at their own seeds
and counts.  Every library function is reached as an attribute of its
module (`splitting.ve_series`), so a patch on the module reaches the
checks too.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from . import cli, fm_gauge, fueter, g2core, models, pde, splitting
from . import exterior as ex

EXACT = "exact"


class Check(NamedTuple):
    """One entry of TABLE.  An entry of two checks that read one draw has
    a pair of names, of claims and of bounds."""

    suite: str
    name: str | tuple
    claim: str | tuple
    bound: object  # a profile key, a positive number or EXACT
    fn: Callable


def run(suite, rng, tol):
    """The records of a suite's checks, in table order, all drawing from rng."""
    return [_verdict(*fields, tol) for check in TABLE if check.suite == suite
            for fields in _split(check, check.fn(rng, tol))]


def _split(check, result):
    """(name, claim, bound, result) of each check of an entry: its one
    check, or the two of a pair."""
    if isinstance(check.name, str):
        return [(check.name, check.claim, check.bound, result)]
    return list(zip(check.name, check.claim, check.bound, result))


def _verdict(name, claim, bound, result, tol):
    """The record of one check's result against its bound."""
    value, result = result if isinstance(result, tuple) else (None, result)
    if isinstance(result, (bool, np.bool_)):
        result = 0.0 if result else 1.0
    residual = _fold(result)
    if bound == EXACT:
        passed = residual == 0.0
    else:
        passed = residual < (tol[bound] if isinstance(bound, str) else bound)
    return cli._record(name, claim, residual if value is None else value, passed)


def _fold(residuals):
    """The largest of the residuals (a number, a sequence or an array) and
    0.0, NaN if any is NaN."""
    return float(np.max(np.append(0.0, residuals)))


def _distance_from(value, target):
    """(value, |value - target|): a reported value and its residual."""
    return value, abs(value - target)


def _row_norms(F):
    """The Euclidean norms of the rows of F (n, m), each by one dot product."""
    return np.sqrt(ex._rowdot(F, F))


# -- samplers shared with the acceptance suite ----------------------------------


def _ve_routes(rng, n):
    """Worst disagreement of the eigenvalue series and the minor recursion,
    through ve_4, over n graph planes."""
    Ts = rng.standard_normal((n, 3, 4))
    gaps = splitting.ve_series(Ts, 4) - splitting.ve_recursive(Ts, 4)
    return _fold(np.abs(gaps).max(axis=1))


def _ve_sqrt_taylor():
    """Distance of a single unit row's ve_0..ve_3 from the sqrt(1+eps) coefficients."""
    T = np.zeros((1, 3, 4))
    T[0, 0, 0] = 1.0
    pinned = np.array([1.0, 0.5, -0.125, 0.0625])
    return float(np.abs(splitting.ve_series(T, 3)[0] - pinned).max())


def _six_way(rng, n):
    """The six condition reports of n completed Fueter planes, each paired
    with the reports of a generic graph plane drawn after it."""
    draws = rng.standard_normal((n, 20))  # per plane: v1's and v2's V parts, a generic T
    completed, _ = _completed_planes(draws[:, :8])
    return list(zip(fueter.condition_residuals(completed),
                    fueter.condition_residuals(draws[:, 8:].reshape(n, 3, 4))))


def _completed_planes(draws):
    """The graph maps (n, 3, 4) of the Fueter planes through e1 + u1 and
    e2 + u2, for the rows (u1, u2) of draws (n, 8) (the V parts), and the
    condition numbers (n,) of their completion systems."""
    spans = np.zeros((len(draws), 3, 7))
    spans[:, :2, :2] = np.eye(2)
    spans[:, :2, 3:] = draws.reshape(-1, 2, 4)
    spans[:, 2], conds = fueter.fueter_complete(spans[:, 0], spans[:, 1])
    return splitting.graph_from_planes(spans)[0], conds


def _homology_family():
    """Whether H_1 of the nilmanifold of B = diag(2n, 2, -2n-2) is Z^4 plus
    torsion of order 8 n (n+1) for n = 1..10."""
    hs = {n: models.h1_nilmanifold(np.diag([2 * n, 2, -2 * n - 2])) for n in range(1, 11)}
    return all(h.free_rank == 4 and h.torsion_order == 8 * n * (n + 1) for n, h in hs.items())


def _flat_dirac_squared(rng, n):
    """Worst |D^2 F + Laplacian F| at 20 points of each of n polynomial maps."""
    draws = rng.standard_normal((n, 140))  # per map: 80 coefficients, then its points
    F = pde.cubic_polynomial_map(draws[:, :80])
    residuals = pde.d_squared_residual(F, draws[:, 80:].reshape(n, 20, 3))
    return np.abs(residuals).reshape(n, -1).max(axis=1)


def _harmonic_solution(rng):
    """A random harmonic map F and the sup of |D u| for u = D F at 1000
    points; also `g2f solve flat-harmonic`."""
    F = pde.random_harmonic_map(rng)
    u = pde.harmonic_to_fueter(F)
    return F, float(np.abs(pde.fueter_operator_flat(u, rng.standard_normal((1000, 3)))).max())


def _first_variation(u0, u1, Z):
    """The larger in size of the action's first variation along Z at the
    endpoint u1 and of its boundary integral."""
    num, bnd = pde.cs_first_variation(u0, u1, Z, n=8)
    return _fold([abs(num), abs(bnd)])


def _defect_variation(rng):
    """(first variation, boundary integral) along the adversarial field at
    an endpoint that is not a solution."""
    bad = pde.affine_map(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]))
    u0 = bad + pde.random_fourier_field(rng, kmax=1)
    return pde.cs_first_variation(u0, bad, pde.adversarial_variation(bad), n=8)


def _polar_dimensions(n, seeds):
    """Polar-space dimension counts of n associative 1-planes, associative
    2-planes and Fueter 2-planes, one seed each, and whether they are 7, 3, 3."""
    systems = (("associative", 1), ("associative", 2), ("fueter", 2))
    counts = [fueter.polar_dim_constancy(system, s, n, seed)
              for (system, s), seed in zip(systems, seeds)]
    return counts, counts == [{7: n}, {3: n}, {3: n}]


def _large_radius_slope():
    """Log-log slope of the normalized deformation gap of a fixed affine
    section over radii 1..1000."""
    u = pde.affine_map(np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 0]]))
    return fm_gauge.sweep_slope(fm_gauge.fm_transform(u), [0.0, 0, 0], np.logspace(0, 3, 16))


# -- samplers with a bit oracle in tests/sample_axis_oracles.py ------------------


def _stacked_form(degree, rows):
    """The stacked form on R^7 with coefficient rows (n, C(7, degree))."""
    keys = itertools.combinations(range(1, 8), degree)
    return ex.Form._trusted(7, degree, dict(zip(keys, np.asarray(rows, dtype=float).T)))


def _grouped(keys, residuals):
    """residuals(key, rows) over the samples of each key, at their rows."""
    out = np.empty(len(keys))
    for key in set(keys):
        rows = [i for i, k in enumerate(keys) if k == key]
        out[rows] = residuals(key, rows)
    return out


def _anticommutators(rng, n):
    """|a ^ b - b ^ a| of n pairs of random monomial 2-forms."""
    picks = rng.integers(21, size=(n, 2, 1)) == np.arange(21)  # a's monomial, then b's
    a, b = _stacked_form(2, picks[:, 0]), _stacked_form(2, picks[:, 1])
    return (ex.wedge(a, b) - ((-1.0) ** (a.degree * b.degree)) * ex.wedge(b, a)).norm()


def _inner_gaps(rng, n):
    """|<a, b> - (a ^ *b)(e_1, .., e_7)| of n pairs of random forms of a random degree."""
    draws = [(d, rng.standard_normal((2, math.comb(7, d))))
             for d in (int(rng.integers(1, 7)) for _ in range(n))]
    def gaps(d, rows):
        a, b = (_stacked_form(d, [draws[i][1][k] for i in rows]) for k in (0, 1))
        return np.abs(ex.inner(a, b) - ex.wedge(a, ex.hodge(b)).coeffs.get(tuple(range(1, 8)), 0.0))
    return _grouped([d for d, _ in draws], gaps)


def _leibniz_gaps(rng, n):
    """|i(v)(a ^ b) - i(v)a ^ b - (-1)^p a ^ i(v)b| of n random p-, q-forms and vectors."""
    draws = [((p, q), *map(rng.standard_normal, (math.comb(7, p), math.comb(7, q), 7)))
             for p, q in ((int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(n))]
    def gaps(pq, rows):
        (p, q), v = pq, np.array([draws[i][3] for i in rows])
        a, b = (_stacked_form(d, [draws[i][k] for i in rows]) for k, d in ((1, p), (2, q)))
        rhs = ex.wedge(ex.interior(v, a), b) + ((-1.0) ** p) * ex.wedge(a, ex.interior(v, b))
        return (ex.interior(v, ex.wedge(a, b)) - rhs).norm()
    return _grouped([d[0] for d in draws], gaps)


def _double_cross_gaps(rng, n):
    """|u x (u x v) - (-v + <u, v> u)| of n unit vectors u and vectors v."""
    u, v = np.moveaxis(rng.standard_normal((n, 2, 7)), 1, 0)  # per pair: u, then v
    u = u / np.sqrt(ex._rowdot(u, u))[:, None]
    lhs = g2core.cross(u, g2core.cross(u, v))
    return np.abs(lhs - (-v + ex._rowdot(u, v)[:, None] * u)).max(axis=1)


def _completion_chis(rng, n):
    """|chi(u, v, u x v)| of n pairs of vectors u, v."""
    uv = rng.standard_normal((n, 2, 7))
    return _row_norms(g2core.chi(np.hstack([uv, g2core.cross(uv[:, 0], uv[:, 1])[:, None]])))


def _isometry_gaps(rng, n):
    """||lambda^k alpha| - |alpha|| of n random 1-forms, for k = 2, 4, 6 in turn."""
    alphas = [_stacked_form(1, rng.standard_normal((n, 7))) for _ in range(3)]
    return np.concatenate([np.abs(g2core.lambda_k(alpha, k).norm() - alpha.norm())
                           for k, alpha in zip((2, 4, 6), alphas)])


def _projection_gaps(rng, n):
    """|pi^2_7 beta - (beta + *(phi ^ beta)) / 3| of n random 2-forms beta."""
    beta = _stacked_form(2, rng.standard_normal((n, 21)))
    oracle = (1.0 / 3.0) * (beta + ex.hodge(ex.wedge(g2core.standard_g2().phi, beta)))
    return (g2core.project_2_7(beta) - oracle).norm()


def _eps_associator_gaps(rng, n):
    """|phi_eps(v)^2 + |chi_eps(v)|^2 - det(v g_eps v^t)| of n random eps and triples."""
    eps, vs = np.empty(n), np.empty((n, 3, 7))
    for i in range(n):  # a uniform, then normals: draws that do not stack
        eps[i], vs[i] = rng.uniform(0.05, 1.0), rng.standard_normal((3, 7))
    G = g2core.standard_g2()
    phi, chi = (splitting.adiabatic_family(a, eps).apply(vs) for a in (G.phi, G.chi_form))
    metrics = np.where(np.arange(7) < 3, 1.0, eps[:, None])[:, None] * np.eye(7)
    # a scalar's ** 2 is libm's pow, as np.float_power is; an array's is x * x
    lhs = np.float_power(phi, 2) + np.sum(chi ** 2, axis=1)
    return np.abs(lhs - np.linalg.det(vs @ metrics @ vs.swapaxes(1, 2)))


def _volume_excess(rng, n):
    """volH - vol of n random 3-planes, 0.0 for one with no horizontal volume."""
    spans = rng.standard_normal((n, 3, 7))
    kept = splitting.standard_splitting().projectable(spans)
    excess, spans = np.zeros(n), spans[kept]
    volH = np.sqrt(np.linalg.det(splitting.horizontal_metric(spans)))
    excess[kept] = volH - np.sqrt(np.linalg.det(spans @ spans.swapaxes(1, 2)))
    return excess


def _curvature_beta_gaps(rng, n):
    """|beta - 2 pi Psi* K| of n random polynomial sections, each at a point."""
    draws = rng.standard_normal((n, 83))  # per section: 80 coefficients, then its point
    return fm_gauge.beta_relation_residual(pde.cubic_polynomial_map(draws[:, :80]), draws[:, 80:])


def _mirror_ratio_gaps(rng, n):
    """||K ^ *phi| / |D u| - MIRROR_RATIO| of n random polynomial sections,
    each at a point; 0.0 where |D u| < 1e-8, as a solution has no ratio."""
    draws = rng.standard_normal((n, 83))  # per section: 80 coefficients, then its point
    u, x = pde.cubic_polynomial_map(draws[:, :80]), draws[:, 80:]
    gaps, kept = np.zeros(n), ~(fm_gauge.fueter_residual_norm(u, x) < 1e-8)
    u, x = pde.cubic_polynomial_map(draws[kept, :80]), x[kept]
    gaps[kept] = np.abs(fm_gauge.mirror_ratio(u, x) - fm_gauge.MIRROR_RATIO)
    return gaps


# -- the fns of the checks that take more than one line ---------------------------


def _star_involution_gaps(rng, tol):
    forms = [_stacked_form(d, rng.standard_normal((1, math.comb(7, d)))) for d in range(8)]
    return [(ex.hodge(ex.hodge(a)) - a).norm() for a in forms]


def _associator_gaps(rng, tol):
    G, U = g2core.standard_g2(), rng.standard_normal((tol["samples"], 3, 7))
    # a scalar's ** 2 is libm's pow, as np.float_power is; an array's is x * x
    lhs = np.float_power(G.phi.apply(U), 2) + np.sum(g2core.chi(U) ** 2, axis=1)
    gram = np.empty((len(U), 3, 3))
    for a, b in itertools.product(range(3), repeat=2):
        gram[:, a, b] = ex._rowdot(U[:, a], U[:, b])
    return np.abs(lhs - np.linalg.det(gram))


def _coassociator_gaps(rng, tol):
    G, V = g2core.standard_g2(), rng.standard_normal((tol["samples"], 4, 7))
    t = g2core.tau(V)
    return np.abs(np.float_power(G.star_phi.apply(V), 2) + ex._rowdot(t, t)
                  - np.linalg.det(V @ V.swapaxes(1, 2)))


def _phi0_parts_by_count():
    """(lam, omega) read off PHI0_TERMS by counting each term's indices in
    4..7: the route that `decomposition` compares with `decompose_form`,
    so no form is split by vertical degree here."""
    bins = {0: {}, 2: {}}
    for c, idx in g2core.PHI0_TERMS:
        bins[sum(1 for i in idx if i >= 4)][idx] = c
    # public constructor: decompose_form's parts come from Form._trusted
    return ex.Form(7, 3, bins[0]), ex.Form(7, 3, bins[2])


def _decomposition_gaps(rng, tol):
    phi = g2core.standard_g2().phi
    parts = splitting.decompose_form(phi)
    lam, omega = _phi0_parts_by_count()
    return [(sum(parts[1:], parts[0]) - phi).norm(), parts[1].norm(), parts[3].norm(),
            (parts[0] - lam).norm(), (parts[2] - omega).norm()]


def _adiabatic_pullback_gap(rng, tol):
    phi, eps = g2core.standard_g2().phi, 0.37
    scale = np.diag([1.0] * 3 + [np.sqrt(eps)] * 4)
    return (splitting.adiabatic_family(phi, eps) - ex.pullback(scale, phi)).norm()


def _ve_unbounded(rng, tol):
    """(ve_1 of the last of 12 planes tilting toward V, whether ve_1 grows
    along them past 1e5)."""
    thetas = np.linspace(0.1, np.pi / 2 - 1e-3, 12)
    spans = np.zeros((12, 3, 7))
    spans[:, 0, 0], spans[:, 0, 3] = np.cos(thetas), np.sin(thetas)
    spans[:, 1, 1] = spans[:, 2, 2] = 1.0
    ve_vals = splitting.ve_series(splitting.graph_from_planes(spans)[0], 1)[:, 1]
    return ve_vals[-1], bool(np.all(ve_vals[1:] > ve_vals[:-1])) and ve_vals[-1] > 1e5


def _route_gaps(rng, tol):
    # every route runs over the sample axis; the two beta routes as
    # stacked Form algebra, whose coefficients are (n,) columns
    Ts = rng.standard_normal((tol["samples"], 3, 4))
    routes = np.empty((len(Ts), 4, 4))
    routes[:, 0] = fueter.fueter_via_J(Ts, fueter.jtriple_from_splitting())
    routes[:, 1] = fueter.chi_component_values(Ts)[1][:, 3:]
    for k, chi1 in ((2, fueter.chi1_via_beta(Ts)),
                    (3, fueter.chi1_via_projection(Ts))):
        for a in range(4):
            routes[:, k, a] = chi1.coeffs.get((a + 4,), 0.0)
    return np.abs(fueter.fueter_vector(Ts)[:, None] - routes).max(axis=(1, 2))


def _completion(rng, tol):
    """|F| of the completed planes and the condition numbers of their
    completions."""
    Ts, conds = _completed_planes(rng.standard_normal((tol["samples"] // 5, 8)))
    return _row_norms(fueter.fueter_vector(Ts)), conds


def _six_way_flags(rng, tol):
    pairs = _six_way(rng, tol["samples"] // 5)
    return all(f.all_below() for f, _ in pairs), all(h.none_below() for _, h in pairs)


def _secondary_gaps(rng, tol):
    omega = splitting.standard_splitting().form_parts()[1]
    Ts = rng.standard_normal((tol["samples"], 3, 4))
    gap = splitting.ve_series(Ts, 1)[:, 1] - omega.apply(splitting.graph_frames(Ts))
    chi1 = fueter.chi_component_values(Ts)[1]
    return np.abs(gap - 0.5 * ex._rowdot(chi1, chi1))


def _chi3_splits_rank(rng, tol):
    low, full = np.empty((2, 100, 3, 4))
    for i in range(100):  # per pair: a plane meeting H (a zero row of T), then a generic one
        low[i] = rng.standard_normal((3, 4))
        low[i, rng.integers(3)] = 0.0
        full[i] = rng.standard_normal((3, 4))
    chi3 = [np.linalg.norm(fueter.chi_component_values(Ts)[3], axis=1) for Ts in (low, full)]
    rank_3 = np.linalg.matrix_rank(full.swapaxes(1, 2)) == 3
    return ((chi3[0] < 1e-12) & (~rank_3 | (chi3[1] > 1e-6))).all()


def _linearity_gap(rng, tol):
    M = fueter.fueter_map_matrix()
    a, b = rng.standard_normal(2)
    T1, T2 = rng.standard_normal((2, 3, 4))
    return np.abs(M @ (a * T1 + b * T2).reshape(12)
                  - a * (M @ T1.reshape(12)) - b * (M @ T2.reshape(12))).max()


def _d_squared(rng, tol):
    catalog = [models.model_product_flat(), models.model_su2_semidirect(),
               models.model_heisenberg(np.diag([2, 2, -4]))]
    return ([models.ce_differential(models.ce_differential(ex.basis_form(7, (k,)), m), m).norm()
             for m in catalog for k in range(1, 8)]
            + [models.jacobi_check(m.c) for m in catalog])


def _su2_flags(rng, tol):
    fl = models.closedness_flags(models.model_su2_semidirect()).closed()
    return fl["dTheta"] and fl["dLambda"] and fl["dMu"] and not fl["dOmega"]


def _heisenberg_identities(rng, tol):
    def holds(B):
        mh = models.model_heisenberg(B)
        lam, omega, theta, mu = mh.forms()
        v = 2.0 * np.array([B[2, 1] - B[1, 2], B[0, 2] - B[2, 0], B[1, 0] - B[0, 1]])
        expect = sum((v[i] * ex.wedge(ex.basis_form(7, (i + 1,)), mu) for i in range(3)),
                     ex.zero_form(7, 5))
        return ((models.ce_differential(omega, mh) - 2.0 * np.trace(B) * mu).norm() == 0.0
                and (models.ce_differential(theta, mh) - expect).norm() == 0.0
                and (models.ce_differential(lam, mh).norm() == 0.0) == np.all(B == 0))
    basis = [2.0 * np.eye(9)[k].reshape(3, 3) for k in range(9)]
    return all([holds(B) for B in basis + [2.0 * rng.integers(-4, 5, size=(3, 3))
                                           for _ in range(10)]])


def _smith_normal_forms(rng, tol):
    def holds():
        B = rng.integers(-9, 10, size=(3, 3))
        U, D, V = models.smith_normal_form(B)
        Ui, Vi, Di = (np.array(X.tolist(), dtype=np.int64) for X in (U, V, D))
        d = np.diag(Di)
        return (np.array_equal(Ui @ B @ Vi, Di)
                and round(abs(np.linalg.det(Ui.astype(float)))) == 1
                and round(abs(np.linalg.det(Vi.astype(float)))) == 1
                and all(d[i + 1] % d[i] == 0 for i in range(2) if d[i]))
    return all([holds() for _ in range(20)])


def _type_split(rng, tol):
    mh, m = models.model_heisenberg(np.diag([2, 2, -4])), models.model_su2_semidirect()
    split = models.derivative_type_split(mh.forms()[0], mh)
    split2 = models.derivative_type_split(m.forms()[2], m)
    return (split["FH"].norm() == 0.0 and split["dH"].norm() == 0.0
            and split["dV"].norm() == 0.0 and split["FV"].norm() != 0.0
            and len(models.vertical_nonintegrability_pairs(mh)) > 0
            and _fold([p.norm() for p in split2.values()]) == 0.0)


def _harmonic_and_jets(rng, tol):
    """|D u| of u = D F for a random harmonic map F, and the worst gap
    between F's analytic first jet at a random point and central
    differences of step 1e-4."""
    F, worst = _harmonic_solution(rng)
    x0, h = rng.standard_normal(3), 1e-4
    num = np.stack([(F.eval(x0 + d) - F.eval(x0 - d)) / (2 * h) for d in h * np.eye(3)], axis=1)
    return worst, float(np.abs(num - F.jet1(x0)).max())


def _su2_dirac_gaps(rng, tol):
    Fp = pde.AmbientPolynomialMap([{(2, 0, 0, 0): 1.0, (0, 1, 0, 1): 0.5}, {(1, 1, 0, 0): 1.0},
                                   {(0, 0, 3, 0): 1.0}, {(0, 0, 0, 2): 2.0}])
    return float(np.abs(pde.su2_identity_residual(Fp, pde.random_su2_points(rng, 100))).max())


def _cot_solution_gaps(rng, tol):
    Fc = pde.CotPotentialMap(p=[1.0, 0, 0, 0], v0=[0, 1.0, 0, 0])
    hs = pde.random_su2_points(rng, 200)
    hs = hs[np.abs(hs @ np.array([1.0, 0, 0, 0])) < 0.9]
    return float(np.abs(pde.su2_fueter_operator(pde.ShiftedDiracMap(Fc), hs)).max())


def _section():
    """The integer affine solution section that the pde and fm checks read."""
    return pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])


def _energy_gaps(rng, tol):
    sec = _section()
    E = pde.immersion_energies(pde.ImmersionGrid(sec, 8))
    A = np.asarray(sec.periodicity, dtype=float)
    return [abs(E["VE"] - 0.5 * float(np.sum(A * A))), E["pointwiseIdentityResidual"],
            abs(E["VolH"] - 1.0)]


def _minimization(rng, tol):
    rep = pde.minimization_experiment(_section(), 30, 0.1, seed=int(rng.integers(1 << 30)),
                                      grid_n=6)
    return rep["minGapVE"], rep["veViolations"] == 0 and rep["totalViolations"] == 0


def _critical_variations(rng, tol):
    sec = _section()
    u0 = sec + pde.random_fourier_field(rng, kmax=1)
    return [_first_variation(u0, sec, pde.random_fourier_field(rng, kmax=1)) for _ in range(5)]


def _defect_detected(rng, tol):
    num, bnd = _defect_variation(rng)
    return abs(num), abs(num) >= 1e-3 and abs(num - bnd) < 1e-6


def _mixed_wedge_mu(rng, tol):
    mu = ex.basis_form(7, (4, 5, 6, 7))
    return [ex.wedge(ex.basis_form(7, (i, a)), mu).norm() for i in range(1, 4) for a in range(4, 8)]


def _flat_connection(rng, tol):
    flat = fm_gauge.fm_transform(pde.affine_map(np.zeros((4, 3))))
    return [fm_gauge.instanton_residual(flat, [0.0, 0, 0]),
            fm_gauge.ddt_residual(flat, [0.0, 0, 0], 3.0)]


def _checks(suite, *entries):
    return tuple(Check(suite, *entry) for entry in entries)


# suite, name, claim, bound, fn(rng, tol), in the order each suite runs them
TABLE = (
    *_checks(
        "algebra",
        ("star-phi0-fixture", "the pinned dual 4-form equals the Hodge star of the model 3-form",
         EXACT, lambda rng, tol: ex.hodge(g2core.phi0()).equals(g2core.star_phi0(), 0.0)),
        ("phi0-norm", "|phi0|^2 = 7 exactly", EXACT,
         lambda rng, tol: abs(ex.inner(g2core.phi0(), g2core.phi0()) - 7.0)),
        ("metric-recovery", "metric of the model 3-form is the identity", "construction",
         lambda rng, tol: np.abs(g2core.metric_from_phi(g2core.phi0()) - np.eye(7))),
        ("wedge-anticommutativity", "graded anticommutativity of the wedge", EXACT,
         lambda rng, tol: _anticommutators(rng, tol["samples"])),
        ("star-involution", "star twice is the identity in dim 7", 1e-14, _star_involution_gaps),
        ("inner-vs-wedge-star", "<a,b> vol = a ^ *b", 1e-12,
         lambda rng, tol: _inner_gaps(rng, 50)),
        ("interior-antiderivation", "contraction is an antiderivation of degree -1", 1e-12,
         lambda rng, tol: _leibniz_gaps(rng, 50)),
        ("associator-equality", "|phi(v)|^2 + |chi(v)|^2 = |v1^v2^v3|^2", "identity",
         _associator_gaps),
        ("coassociator-equality", "|*phi(v)|^2 + |tau(v)|^2 = |v1^..^v4|^2", "identity",
         _coassociator_gaps),
        ("double-cross", "u x (u x v) = -|u|^2 v + <u,v> u", "identity",
         lambda rng, tol: _double_cross_gaps(rng, 100)),
        ("cross-completion-associative", "chi vanishes on u, v, u x v", "identity",
         lambda rng, tol: _completion_chis(rng, 100)),
        ("lambda-isometry", "lambda^k preserves norms (k = 2, 4, 6)", 1e-12,
         lambda rng, tol: _isometry_gaps(rng, 50)),
        ("projection-eigen-oracle", "pi^2_7 = (id + *(phi ^ .)) / 3", 1e-12,
         lambda rng, tol: _projection_gaps(rng, 50)),
    ),
    *_checks(
        "splitting",
        ("ve-two-routes", "eigenvalue series and minor recursion agree", "identity",
         lambda rng, tol: _ve_routes(rng, tol["samples"])),
        ("ve-sqrt-taylor", "single unit row gives the sqrt(1+eps) coefficients", EXACT,
         lambda rng, tol: _ve_sqrt_taylor()),
        ("decomposition", "phi = lam + omega by vertical degree", EXACT, _decomposition_gaps),
        ("adiabatic-pullback", "the eps-family is the anisotropic-scaling pullback", 1e-14,
         _adiabatic_pullback_gap),
        ("eps-associator", "the equality property persists along the eps-family", "identity",
         lambda rng, tol: _eps_associator_gaps(rng, 100)),
        ("volH-below-vol", "horizontal volume never exceeds volume", "slack",
         lambda rng, tol: _volume_excess(rng, 200)),
        ("equality-ladder", "graded equalities tie alpha, chi and the ve hierarchy", "identity",
         lambda rng, tol: [rep.max_residual for rep in splitting.equality_ladder(
             rng.standard_normal((tol["samples"] // 2, 3, 4)))]),
        ("ve-unbounded", "vertical energy diverges toward non-projectable planes", EXACT,
         _ve_unbounded),
    ),
    *_checks(
        "fueter",
        ("j-matrices", "splitting-derived J triple matches the pinned one", EXACT,
         lambda rng, tol: [np.abs(a - b).max() for a, b in zip(
             fueter.jtriple_from_splitting().as_tuple(), fueter.standard_jtriple().as_tuple())]),
        ("route-equivalence", "cross, J, Theta-contraction and beta routes agree", "identity",
         _route_gaps),
        (("completion", "completion-conditioning"),
         ("completed planes satisfy the vertical equation",
          "the completion linear system is perfectly conditioned"), (1e-10, 1.0 + 1e-9),
         _completion),
        (("six-way-vanishing", "six-way-separation"),
         ("all six residuals vanish together on completed planes",
          "no residual is small on generic planes"), (EXACT, EXACT), _six_way_flags),
        ("secondary-equality", "omega(v) + |chi_1(v)|^2 / 2 = ve_1", "identity", _secondary_gaps),
        ("chi3-rank", "chi_3 vanishes exactly on rank <= 2 planes", EXACT, _chi3_splits_rank),
        ("linearization-rank", "the vertical equation has rank 4 over the 12 graph coordinates",
         EXACT, lambda rng, tol: _distance_from(
             fueter.linearization_rank(splitting.GraphPlane(np.zeros((3, 4)))), 4)),
        ("p-linearity", "the beta -> chi_1 map is linear", 1e-12, _linearity_gap),
        ("polar-dimensions", "polar spaces have dimensions 7, 3, 3", EXACT,
         lambda rng, tol: _polar_dimensions(30, [int(rng.integers(1 << 30)) for _ in range(3)])[1]),
    ),
    *_checks(
        "models",
        ("d-squared", "d^2 = 0 and Jacobi hold exactly on the catalog", EXACT, _d_squared),
        ("su2-flags", "coclosed but not closed: dTheta = 0, dOmega != 0", EXACT, _su2_flags),
        ("heisenberg-identities", "dOmega = 2 tr(B) mu and the dTheta formula hold exactly in B",
         EXACT, _heisenberg_identities),
        ("product-flat", "every structure form is closed", EXACT,
         lambda rng, tol: _fold(list(models.closedness_flags(
             models.model_product_flat()).as_dict().values())) == 0.0),
        ("homology-family", "torsion order of the diagonal family is 8 n (n+1)", EXACT,
         lambda rng, tol: _homology_family()),
        ("smith-normal-form", "unimodular congruence with divisor chain", EXACT,
         _smith_normal_forms),
        ("type-split", "d splits by bidegree; vertical twisting shows up as F_V", EXACT,
         _type_split),
    ),
    *_checks(
        "pde",
        ("flat-dirac-squared", "D^2 = -Laplacian on polynomial maps", "identity",
         lambda rng, tol: _flat_dirac_squared(rng, 20)),
        (("harmonic-construction", "jet-oracle"),
         ("D of a harmonic map solves the vertical equation",
          "analytic jets match central differences"), ("identity", 1e-6), _harmonic_and_jets),
        ("quaternion-frame", "[e1, e2] = 2 e3 in the pinned realization", EXACT,
         lambda rng, tol: pde.su2_frame_commutator_check()),
        ("su2-dirac-squared", "D^2 = -Laplacian - 2 D on the 3-sphere", 1e-8, _su2_dirac_gaps),
        ("cot-solution", "the shifted operator turns the cot potential into a solution", 1e-8,
         _cot_solution_gaps),
        ("energies", "affine sections have VE = |A|_F^2 / 2 exactly", 1e-12, _energy_gaps),
        ("covering-degree", "the doubled base map is an 8-fold cover", EXACT,
         lambda rng, tol: _distance_from(pde.covering_degree(2, 8), 8)),
        ("minimization", "no perturbation beats the solution section", EXACT, _minimization),
        ("reparametrization", "VE is parametrization-independent", 1e-10,
         lambda rng, tol: pde.reparametrization_invariance(
             _section() + 0.2 * pde.random_fourier_field(rng, kmax=1), pde.shear_diffeo(), 16)),
        ("action-critical-point", "the first variation vanishes at solution endpoints", 1e-6,
         _critical_variations),
        ("action-detects-defect", "an adversarial variation moves the action at bad endpoints",
         EXACT, _defect_detected),
    ),
    *_checks(
        "fm",
        ("curvature-beta", "beta of the section equals 2 pi Psi* K", 1e-12,
         lambda rng, tol: _curvature_beta_gaps(rng, 100)),
        ("mirror-ratio", "instanton and section residuals have a fixed ratio", 1e-8,
         lambda rng, tol: _mirror_ratio_gaps(rng, 200)),
        ("mixed-forms-kill-mu", "K ^ mu = 0 for every H* x V* monomial", EXACT, _mixed_wedge_mu),
        ("large-radius-slope", "the normalized deformation gap decays at fourth order", 0.1,
         lambda rng, tol: _distance_from(_large_radius_slope(), -4.0)),
        ("solution-transform", "solutions transform to instanton connections", EXACT,
         lambda rng, tol: fm_gauge.instanton_residual(fm_gauge.fm_transform(_section()),
                                                      [0.2, 0.5, 0.8])),
        ("flat-connection", "flat connections solve every equation", EXACT, _flat_connection),
    ),
)
