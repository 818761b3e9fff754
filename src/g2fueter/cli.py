"""Command-line driver `g2f`; USAGE is its help text.

Every verify suite folds each sampled identity through `_fold`, the
largest of the samples' residuals that keeps a NaN (`_worst` draws them
one at a time), and records each pass/fail check through `_flag`.  A
sampler draws all its samples first, in the order a loop over samples
would, and hands the stack to the library's batched kernels.  An identity
that the acceptance suite also checks has one module-level sampler here:
`verify` runs it at the profile's sample count, the acceptance criteria at
their own seeds and counts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time

import numpy as np

from . import exterior as ex
from . import fm_gauge, fueter, g2core, models, pde, splitting

USAGE = """Command-line driver: verification suites, scans, models, solutions,
energies and Fourier-Mukai sweeps, emitting deterministic JSON reports.

Reports are byte-identical for identical (command, seed) inputs: the
payload is serialized with sorted keys and fixed separators, and wall
time goes to stderr, never into the payload.

Each command takes only the options it reads, and each option states its
domain (every command also takes --out FILE):

  verify SUITE       --seed N>=0 [--samples N>=5] [--tol X] [--profile P]
  scan semical       --seed N>=0 [--samples N>=1] [--tol X] [--profile P]
                     [--eps E [E ...]]  (each E > 0)
  scan anisotropic   --seed N>=0 [--samples N>=1] [--tol X] [--profile P]
  model NAME         [--B "r1;r2;r3"] [--homology]
  solve KIND         --seed N>=0
  energy             --seed N>=0 [--grid N>=1]
  fm sweep           --seed N>=0 [--rmin R] [--rmax R>rmin] [--points N>=2]
                     [--format json|csv]

X and E are finite numbers, and each radius R lies in [1e-30, 1e30].
`model heisenberg` requires --B (a 3x3 matrix, rows separated by ';',
entries by ','; each entry 0 or of magnitude in [1e-100, 1e100]), the
other models reject it, and --homology needs an even-integer B.

Exit codes: 0 every check passes; 1 a check failed (a non-finite residual
always fails); 2 the input is outside the command's domain, with one
`error:` line on stderr and no report.
"""

SCHEMA_VERSION = 1

PROFILES = {
    "strict": {"identity": 1e-10, "construction": 1e-12, "slack": 1e-10, "samples": 1000},
    "fast": {"identity": 1e-8, "construction": 1e-8, "slack": 1e-8, "samples": 200},
}


def _record(name, claim, value, passed):
    if isinstance(value, (bool, np.bool_)):
        value = bool(value)
    elif isinstance(value, (int, np.integer)):
        value = int(value)
    else:
        value = float(value)
        if not math.isfinite(value):
            # JSON has no NaN or infinity; a non-finite residual never passes
            value, passed = str(value), False
    return {"name": name, "claim": claim, "residualOrFlag": value, "pass": bool(passed)}


def _flag(name, claim, ok):
    """A pass/fail check, recorded with residual 0.0 if it holds, else 1.0."""
    return _record(name, claim, 0.0 if ok else 1.0, ok)


def _fold(residuals):
    """The largest of the residuals (a sequence or an array) and 0.0, NaN
    if any is NaN."""
    return float(np.max(np.append(0.0, residuals)))


def _worst(n, residual):
    """The largest of n draws of residual() and 0.0, NaN if any draw is NaN."""
    return _fold([residual() for _ in range(n)])


# -- samplers shared with the acceptance suite ----------------------------------


def _ve_routes(rng, n, S):
    """Worst disagreement of the eigenvalue series and the minor recursion,
    through ve_4, over n graph planes of S."""
    Ts = rng.standard_normal((n, 3, 4))
    gaps = splitting.ve_series_many(Ts, 4) - splitting.ve_recursive_many(Ts, 4)
    return _fold(np.abs(gaps).max(axis=1))


def _ve_sqrt_taylor(S):
    """Distance of a single unit row's ve_0..ve_3 from the sqrt(1+eps) coefficients."""
    T = np.zeros((3, 4))
    T[0, 0] = 1.0
    pinned = np.array([1.0, 0.5, -0.125, 0.0625])
    return float(np.abs(splitting.ve_series(splitting.GraphPlane(T, S), 3) - pinned).max())


def _six_way(rng, n, S):
    """The six condition reports of n completed Fueter planes, each paired
    with the reports of a generic graph plane drawn after it."""
    draws = rng.standard_normal((n, 20))  # per plane: v1's and v2's V parts, a generic T
    completed, _ = _completed_planes(draws[:, :8], S)
    return list(zip(fueter.condition_residuals_many(completed, S),
                    fueter.condition_residuals_many(draws[:, 8:].reshape(n, 3, 4), S)))


def _completed_planes(draws, S):
    """The graph maps (n, 3, 4) of the Fueter planes through e1 + u1 and
    e2 + u2, for the rows (u1, u2) of draws (n, 8) (the V parts), and the
    condition numbers (n,) of their completion systems."""
    spans = np.zeros((len(draws), 3, 7))
    spans[:, :2, :2] = np.eye(2)
    spans[:, :2, 3:] = draws.reshape(-1, 2, 4)
    spans[:, 2], conds = fueter.fueter_complete_many(spans[:, 0], spans[:, 1], S)
    return splitting.graph_from_planes(spans, S)[0], conds


def _homology_family():
    """Whether H_1 of the nilmanifold of B = diag(2n, 2, -2n-2) is Z^4 plus
    torsion of order 8 n (n+1) for n = 1..10."""
    hs = {n: models.h1_nilmanifold(np.diag([2 * n, 2, -2 * n - 2])) for n in range(1, 11)}
    return all(h.free_rank == 4 and h.torsion_order == 8 * n * (n + 1) for n, h in hs.items())


def _flat_dirac_squared(rng, n):
    """Worst |D^2 F + Laplacian F| over n polynomial maps at 20 points each."""
    def residual():
        F = pde.random_polynomial_map(rng)
        return float(np.abs(pde.d_squared_residual(F, rng.standard_normal((20, 3)))).max())
    return _worst(n, residual)


def _harmonic_solution(rng):
    """A random harmonic map F and the sup of |D u| for u = D F at 1000 points."""
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


# -- verify suites -------------------------------------------------------------


def _suite_algebra(rng, tol):
    n = tol["samples"]
    phi = g2core.phi0()
    r = float(np.abs(g2core.metric_from_phi(phi) - np.eye(7)).max())
    checks = [
        _flag("star-phi0-fixture",
              "the pinned dual 4-form equals the Hodge star of the model 3-form",
              ex.hodge(phi).equals(g2core.star_phi0(), 0.0)),
        _record("phi0-norm", "|phi0|^2 = 7 exactly", abs(ex.inner(phi, phi) - 7.0),
                ex.inner(phi, phi) == 7.0),
        _record("metric-recovery", "metric of the model 3-form is the identity",
                r, r < tol["construction"]),
    ]

    monos = list(itertools.combinations(range(1, 8), 2))

    def anticommutator():
        a = ex.basis_form(7, monos[rng.integers(len(monos))])
        b = ex.basis_form(7, monos[rng.integers(len(monos))])
        return (ex.wedge(a, b) - ((-1.0) ** (a.degree * b.degree)) * ex.wedge(b, a)).norm()
    worst = _worst(n, anticommutator)
    checks.append(_record(
        "wedge-anticommutativity", "graded anticommutativity of the wedge",
        worst, worst == 0.0,
    ))

    worst = _fold([(ex.hodge(ex.hodge(a)) - a).norm()
                   for a in (_random_form(rng, deg) for deg in range(8))])
    checks.append(_record("star-involution", "star twice is the identity in dim 7",
                          worst, worst < 1e-14))

    def inner_gap():
        deg = int(rng.integers(1, 7))
        a, b = _random_form(rng, deg), _random_form(rng, deg)
        return abs(ex.inner(a, b) - ex.wedge(a, ex.hodge(b)).coeffs.get(tuple(range(1, 8)), 0.0))
    worst = _worst(50, inner_gap)
    checks.append(_record("inner-vs-wedge-star", "<a,b> vol = a ^ *b",
                          worst, worst < 1e-12))

    def leibniz_gap():
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        a, b = _random_form(rng, p), _random_form(rng, q)
        v = rng.standard_normal(7)
        lhs = ex.interior(v, ex.wedge(a, b))
        rhs = ex.wedge(ex.interior(v, a), b) + ((-1.0) ** p) * ex.wedge(a, ex.interior(v, b))
        return (lhs - rhs).norm()
    worst = _worst(50, leibniz_gap)
    checks.append(_record("interior-antiderivation",
                          "contraction is an antiderivation of degree -1",
                          worst, worst < 1e-12))

    G = g2core.standard_g2()

    # a scalar's ** 2 is libm's pow, as np.float_power is; an array's is x * x
    U = rng.standard_normal((n, 3, 7))
    lhs = np.float_power(G.phi.apply_many(U), 2) + np.sum(g2core.chi_many(U, G) ** 2, axis=1)
    gram = np.empty((n, 3, 3))
    for a, b in itertools.product(range(3), repeat=2):
        gram[:, a, b] = ex._rowdot(U[:, a], U[:, b])
    worst = _fold(np.abs(lhs - np.linalg.det(gram)))
    checks.append(_record("associator-equality",
                          "|phi(v)|^2 + |chi(v)|^2 = |v1^v2^v3|^2",
                          worst, worst < tol["identity"]))

    V = rng.standard_normal((n, 4, 7))
    t = g2core.tau_many(V, G)
    worst = _fold(np.abs(np.float_power(G.star_phi.apply_many(V), 2) + ex._rowdot(t, t)
                         - np.linalg.det(V @ V.swapaxes(1, 2))))
    checks.append(_record("coassociator-equality",
                          "|*phi(v)|^2 + |tau(v)|^2 = |v1^..^v4|^2",
                          worst, worst < tol["identity"]))

    def double_cross_gap():
        u = rng.standard_normal(7)
        u = u / np.linalg.norm(u)
        v = rng.standard_normal(7)
        lhs = g2core.cross(u, g2core.cross(u, v, G), G)
        return float(np.abs(lhs - (-v + (u @ v) * u)).max())
    worst = _worst(100, double_cross_gap)
    checks.append(_record("double-cross", "u x (u x v) = -|u|^2 v + <u,v> u",
                          worst, worst < tol["identity"]))

    def chi_of_completion():
        u, v = rng.standard_normal((2, 7))
        return float(np.linalg.norm(g2core.chi(u, v, g2core.cross(u, v, G), G)))
    worst = _worst(100, chi_of_completion)
    checks.append(_record("cross-completion-associative",
                          "chi vanishes on u, v, u x v",
                          worst, worst < tol["identity"]))

    def isometry_gap(k):
        alpha = ex.Form(7, 1, {(i,): rng.standard_normal() for i in range(1, 8)})
        return abs(g2core.lambda_k(alpha, k, G).norm() - alpha.norm())
    worst = _fold([_worst(50, lambda: isometry_gap(k)) for k in (2, 4, 6)])
    checks.append(_record("lambda-isometry", "lambda^k preserves norms (k = 2, 4, 6)",
                          worst, worst < 1e-12))

    def projection_gap():
        beta = _random_form(rng, 2)
        oracle = (1.0 / 3.0) * (beta + ex.hodge(ex.wedge(G.phi, beta)))
        return (g2core.project_2_7(beta, G) - oracle).norm()
    worst = _worst(50, projection_gap)
    checks.append(_record("projection-eigen-oracle",
                          "pi^2_7 = (id + *(phi ^ .)) / 3",
                          worst, worst < 1e-12))
    return checks


def _random_form(rng, degree):
    coeffs = {idx: rng.standard_normal() for idx in itertools.combinations(range(1, 8), degree)}
    return ex.Form(7, degree, coeffs)


def _phi0_parts_by_count():
    """(lam, omega) read off PHI0_TERMS by counting each term's indices in
    4..7: the route that `decomposition` compares with `decompose_form`,
    so no form is split by vertical degree here."""
    bins = {0: {}, 2: {}}
    for c, idx in g2core.PHI0_TERMS:
        bins[sum(1 for i in idx if i >= 4)][idx] = c
    # PHI0_TERMS' index tuples are sorted and in range
    return ex.Form._trusted(7, 3, bins[0]), ex.Form._trusted(7, 3, bins[2])


def _suite_splitting(rng, tol):
    S = splitting.standard_splitting()
    worst = _ve_routes(rng, tol["samples"], S)
    checks = [_record("ve-two-routes", "eigenvalue series and minor recursion agree",
                      worst, worst < tol["identity"])]

    worst = _ve_sqrt_taylor(S)
    checks.append(_record("ve-sqrt-taylor",
                          "single unit row gives the sqrt(1+eps) coefficients",
                          worst, worst == 0.0))

    phi = S.g2.phi
    parts = splitting.decompose_form(phi)
    lam, omega = _phi0_parts_by_count()
    worst = _fold([(sum(parts[1:], parts[0]) - phi).norm(), parts[1].norm(), parts[3].norm(),
                   (parts[0] - lam).norm(), (parts[2] - omega).norm()])
    checks.append(_record("decomposition", "phi = lam + omega by vertical degree",
                          worst, worst == 0.0))

    eps = 0.37
    fam = splitting.adiabatic_family(phi, eps)
    scale = np.diag([1.0] * 3 + [np.sqrt(eps)] * 4)
    worst = (fam - ex.pullback(scale, phi)).norm()
    checks.append(_record("adiabatic-pullback",
                          "the eps-family is the anisotropic-scaling pullback",
                          worst, worst < 1e-14))

    chi_family = splitting._adiabatic(S.g2.chi_form)
    phi_family = splitting._adiabatic(phi)

    def eps_associator_gap():
        e2 = float(rng.uniform(0.05, 1.0))
        chi_eps, phi_eps = chi_family(e2), phi_family(e2)
        vs = rng.standard_normal((3, 7))
        lhs = phi_eps.apply(list(vs)) ** 2 + float(np.sum(chi_eps.apply(list(vs)) ** 2))
        return abs(lhs - np.linalg.det(vs @ np.diag([1.0] * 3 + [e2] * 4) @ vs.T))
    worst = _worst(100, eps_associator_gap)
    checks.append(_record("eps-associator",
                          "the equality property persists along the eps-family",
                          worst, worst < tol["identity"]))

    def volume_excess():
        span = rng.standard_normal((3, 7))
        try:
            volH = float(np.sqrt(np.linalg.det(splitting.horizontal_metric(splitting.Plane(span), S))))
        except (splitting.NotProjectableError, ValueError):
            return 0.0  # no horizontal volume to compare
        return volH - float(np.sqrt(np.linalg.det(span @ span.T)))
    worst = _worst(200, volume_excess)
    checks.append(_record("volH-below-vol", "horizontal volume never exceeds volume",
                          worst, worst < tol["slack"]))

    Ts = rng.standard_normal((tol["samples"] // 2, 3, 4))
    worst = _fold([rep.max_residual for rep in splitting.equality_ladder_many(Ts, S)])
    checks.append(_record("equality-ladder",
                          "graded equalities tie alpha, chi and the ve hierarchy",
                          worst, worst < tol["identity"]))

    thetas = np.linspace(0.1, np.pi / 2 - 1e-3, 12)
    ve_vals = []
    for th in thetas:
        span = np.zeros((3, 7))
        span[0, 0], span[0, 3] = np.cos(th), np.sin(th)
        span[1, 1] = 1.0
        span[2, 2] = 1.0
        g, _ = splitting.graph_from_plane(splitting.Plane(span), S)
        ve_vals.append(splitting.ve_series(g, 1)[1])
    growing = all(b > a for a, b in zip(ve_vals, ve_vals[1:])) and ve_vals[-1] > 1e5
    checks.append(_record("ve-unbounded",
                          "vertical energy diverges toward non-projectable planes",
                          ve_vals[-1], growing))
    return checks


def _suite_fueter(rng, tol):
    n = tol["samples"]
    S = splitting.standard_splitting()
    J = fueter.jtriple_from_splitting(S)
    Jstd = fueter.standard_jtriple()
    worst = _fold([float(np.abs(a - b).max()) for a, b in zip(J.as_tuple(), Jstd.as_tuple())])
    checks = [_record("j-matrices", "splitting-derived J triple matches the pinned one",
                      worst, worst == 0.0)]

    # every route runs over the sample axis; the two beta routes as
    # stacked Form algebra, whose coefficients are (n,) columns
    Ts = rng.standard_normal((n, 3, 4))
    routes = np.empty((n, 4, 4))
    routes[:, 0] = fueter.fueter_via_J_many(Ts, J)
    routes[:, 1] = fueter.chi_component_values_many(Ts, S)[1][:, 3:]
    for k, chi1 in ((2, fueter.chi1_via_beta_many(Ts, S)),
                    (3, fueter.chi1_via_projection_many(Ts, S))):
        for a in range(4):
            routes[:, k, a] = chi1.coeffs.get((a + 4,), 0.0)
    gaps = fueter.fueter_vector_many(Ts, S)[:, None] - routes
    worst = _fold(np.abs(gaps).max(axis=(1, 2)))
    checks.append(_record("route-equivalence",
                          "cross, J, Theta-contraction and beta routes agree",
                          worst, worst < tol["identity"]))

    draws = rng.standard_normal((n // 5, 8))  # per plane: v1's and v2's V parts
    Ts, conds = _completed_planes(draws, S)
    F = fueter.fueter_vector_many(Ts, S)
    worst = _fold(np.sqrt(ex._rowdot(F, F)))
    checks.append(_record("completion", "completed planes satisfy the vertical equation",
                          worst, worst < 1e-10))
    cond = _fold(conds)
    checks.append(_record("completion-conditioning",
                          "the completion linear system is perfectly conditioned",
                          cond, cond < 1.0 + 1e-9))

    flags = [(f.all_below(), h.none_below()) for f, h in _six_way(rng, n // 5, S)]
    checks.append(_flag("six-way-vanishing",
                        "all six residuals vanish together on completed planes",
                        all(vanish for vanish, _ in flags)))
    checks.append(_flag("six-way-separation", "no residual is small on generic planes",
                        all(apart for _, apart in flags)))

    lam, omega, theta, mu = S.form_parts()

    Ts = rng.standard_normal((n, 3, 4))
    gap = splitting.ve_series_many(Ts, 1)[:, 1] - omega.apply_many(splitting.graph_frames(Ts))
    chi1 = fueter.chi_component_values_many(Ts, S)[1]
    worst = _fold(np.abs(gap - 0.5 * ex._rowdot(chi1, chi1)))
    checks.append(_record("secondary-equality",
                          "omega(v) + |chi_1(v)|^2 / 2 = ve_1",
                          worst, worst < tol["identity"]))

    low, full = np.empty((2, 100, 3, 4))
    for i in range(100):  # per pair: a plane meeting H (a zero row of T), then a generic one
        low[i] = rng.standard_normal((3, 4))
        low[i, rng.integers(3)] = 0.0
        full[i] = rng.standard_normal((3, 4))
    chi3 = [np.linalg.norm(fueter.chi_component_values_many(Ts, S)[3], axis=1)
            for Ts in (low, full)]
    rank_3 = np.linalg.matrix_rank(full.swapaxes(1, 2)) == 3
    splits = (chi3[0] < 1e-12) & (~rank_3 | (chi3[1] > 1e-6))
    checks.append(_flag("chi3-rank", "chi_3 vanishes exactly on rank <= 2 planes", splits.all()))

    g0 = splitting.GraphPlane(np.zeros((3, 4)), S)
    rank = fueter.linearization_rank(g0)
    checks.append(_record("linearization-rank",
                          "the vertical equation has rank 4 over the 12 graph coordinates",
                          rank, rank == 4))

    M = fueter.fueter_map_matrix(S)
    a, b = rng.standard_normal(2)
    T1, T2 = rng.standard_normal((2, 3, 4))
    lin = np.abs(
        M @ (a * T1 + b * T2).reshape(12)
        - a * (M @ T1.reshape(12)) - b * (M @ T2.reshape(12))
    ).max()
    checks.append(_record("p-linearity", "the beta -> chi_1 map is linear",
                          float(lin), lin < 1e-12))

    _, ok = _polar_dimensions(30, [int(rng.integers(1 << 30)) for _ in range(3)])
    checks.append(_flag("polar-dimensions", "polar spaces have dimensions 7, 3, 3", ok))
    return checks


def _suite_models(rng, tol):
    catalog = [
        models.model_product_flat(),
        models.model_su2_semidirect(),
        models.model_heisenberg(np.diag([2, 2, -4])),
    ]
    worst = _fold(
        [models.ce_differential(models.ce_differential(ex.basis_form(7, (k,)), m), m).norm()
         for m in catalog for k in range(1, 8)]
        + [models.jacobi_check(m.c) for m in catalog])
    checks = [_record("d-squared", "d^2 = 0 and Jacobi hold exactly on the catalog",
                      worst, worst == 0.0)]

    m = models.model_su2_semidirect()
    fl = models.closedness_flags(m).closed()
    checks.append(_flag("su2-flags", "coclosed but not closed: dTheta = 0, dOmega != 0",
                        fl["dTheta"] and fl["dLambda"] and fl["dMu"] and not fl["dOmega"]))

    basis = [np.zeros((3, 3)) for _ in range(9)]
    for k in range(9):
        basis[k][k // 3, k % 3] = 2.0

    def heisenberg_holds(B):
        mh = models.model_heisenberg(B)
        lam, omega, theta, mu = mh.forms()
        v = 2.0 * np.array([B[2, 1] - B[1, 2], B[0, 2] - B[2, 0], B[1, 0] - B[0, 1]])
        expect = ex.zero_form(7, 5)
        for i in range(3):
            expect = expect + v[i] * ex.wedge(ex.basis_form(7, (i + 1,)), mu)
        return ((models.ce_differential(omega, mh) - 2.0 * np.trace(B) * mu).norm() == 0.0
                and (models.ce_differential(theta, mh) - expect).norm() == 0.0
                and (models.ce_differential(lam, mh).norm() == 0.0) == np.all(B == 0))
    mats = basis + [2.0 * rng.integers(-4, 5, size=(3, 3)) for _ in range(10)]
    checks.append(_flag("heisenberg-identities",
                        "dOmega = 2 tr(B) mu and the dTheta formula hold exactly in B",
                        all([heisenberg_holds(B) for B in mats])))

    flp = models.closedness_flags(models.model_product_flat())
    checks.append(_flag("product-flat", "every structure form is closed",
                        _fold(list(flp.as_dict().values())) == 0.0))
    checks.append(_flag("homology-family",
                        "torsion order of the diagonal family is 8 n (n+1)",
                        _homology_family()))

    def smith_holds():
        B = rng.integers(-9, 10, size=(3, 3))
        U, D, V = models.smith_normal_form(B)
        Ui, Vi, Di = (np.array(X.tolist(), dtype=np.int64) for X in (U, V, D))
        d = np.diag(Di)
        return (np.array_equal(Ui @ B @ Vi, Di)
                and round(abs(np.linalg.det(Ui.astype(float)))) == 1
                and round(abs(np.linalg.det(Vi.astype(float)))) == 1
                and all(d[i + 1] % d[i] == 0 for i in range(2) if d[i]))
    checks.append(_flag("smith-normal-form", "unimodular congruence with divisor chain",
                        all([smith_holds() for _ in range(20)])))

    mh = models.model_heisenberg(np.diag([2, 2, -4]))
    split = models.derivative_type_split(mh.forms()[0], mh)
    split2 = models.derivative_type_split(m.forms()[2], m)
    ok = (
        split["FH"].norm() == 0.0 and split["dH"].norm() == 0.0
        and split["dV"].norm() == 0.0 and split["FV"].norm() != 0.0
        and len(models.vertical_nonintegrability_pairs(mh)) > 0
        and _fold([p.norm() for p in split2.values()]) == 0.0
    )
    checks.append(_flag("type-split",
                        "d splits by bidegree; vertical twisting shows up as F_V", ok))
    return checks


def _suite_pde(rng, tol):
    worst = _flat_dirac_squared(rng, 20)
    checks = [_record("flat-dirac-squared", "D^2 = -Laplacian on polynomial maps",
                      worst, worst < tol["identity"])]

    F, worst = _harmonic_solution(rng)
    checks.append(_record("harmonic-construction",
                          "D of a harmonic map solves the vertical equation",
                          worst, worst < tol["identity"]))

    x0 = rng.standard_normal(3)
    h = 1e-4
    num = np.zeros((4, 3))
    for i in range(3):
        dp, dm = x0.copy(), x0.copy()
        dp[i] += h
        dm[i] -= h
        num[:, i] = (F.eval(dp) - F.eval(dm)) / (2 * h)
    worst = float(np.abs(num - F.jet1(x0)).max())
    checks.append(_record("jet-oracle", "analytic jets match central differences",
                          worst, worst < 1e-6))

    worst = pde.su2_frame_commutator_check()
    checks.append(_record("quaternion-frame", "[e1, e2] = 2 e3 in the pinned realization",
                          worst, worst == 0.0))

    Fp = pde.AmbientPolynomialMap([
        {(2, 0, 0, 0): 1.0, (0, 1, 0, 1): 0.5},
        {(1, 1, 0, 0): 1.0},
        {(0, 0, 3, 0): 1.0},
        {(0, 0, 0, 2): 2.0},
    ])
    hs = pde.random_su2_points(rng, 100)
    worst = float(np.abs(pde.su2_identity_residual(Fp, hs)).max())
    checks.append(_record("su2-dirac-squared", "D^2 = -Laplacian - 2 D on the 3-sphere",
                          worst, worst < 1e-8))

    Fc = pde.CotPotentialMap(p=[1.0, 0, 0, 0], v0=[0, 1.0, 0, 0])
    hs = pde.random_su2_points(rng, 200)
    hs = hs[np.abs(hs @ np.array([1.0, 0, 0, 0])) < 0.9]
    uc = pde.ShiftedDiracMap(Fc)
    worst = float(np.abs(pde.su2_fueter_operator(uc, hs)).max())
    checks.append(_record("cot-solution",
                          "the shifted operator turns the cot potential into a solution",
                          worst, worst < 1e-8))

    sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
    E = pde.immersion_energies(pde.ImmersionGrid(sec, 8))
    A = np.asarray(sec.periodicity, dtype=float)
    worst = _fold([abs(E["VE"] - 0.5 * float(np.sum(A * A))), E["pointwiseIdentityResidual"],
                   abs(E["VolH"] - 1.0)])
    checks.append(_record("energies", "affine sections have VE = |A|_F^2 / 2 exactly",
                          worst, worst < 1e-12))

    deg = pde.covering_degree(2, 8)
    checks.append(_record("covering-degree", "the doubled base map is an 8-fold cover",
                          deg, deg == 8))

    rep = pde.minimization_experiment(sec, 30, 0.1, seed=int(rng.integers(1 << 30)), grid_n=6)
    ok = rep["veViolations"] == 0 and rep["totalViolations"] == 0
    checks.append(_record("minimization", "no perturbation beats the solution section",
                          rep["minGapVE"], ok))

    u_wobbly = sec + 0.2 * pde.random_fourier_field(rng, kmax=1)
    r = pde.reparametrization_invariance(u_wobbly, pde.shear_diffeo(), 16)
    checks.append(_record("reparametrization", "VE is parametrization-independent",
                          r, r < 1e-10))

    u0 = sec + pde.random_fourier_field(rng, kmax=1)
    worst = _worst(5, lambda: _first_variation(u0, sec, pde.random_fourier_field(rng, kmax=1)))
    checks.append(_record("action-critical-point",
                          "the first variation vanishes at solution endpoints",
                          worst, worst < 1e-6))

    num, bnd = _defect_variation(rng)
    checks.append(_record("action-detects-defect",
                          "an adversarial variation moves the action at bad endpoints",
                          abs(num), abs(num) >= 1e-3 and abs(num - bnd) < 1e-6))
    return checks


def _suite_fm(rng, tol):
    worst = _worst(100, lambda: fm_gauge.beta_relation_residual(
        pde.random_polynomial_map(rng), rng.standard_normal(3)))
    checks = [_record("curvature-beta", "beta of the section equals 2 pi Psi* K",
                      worst, worst < 1e-12)]

    def ratio_gap():
        u = pde.random_polynomial_map(rng)
        x = rng.standard_normal(3)
        if fm_gauge.fueter_residual_norm(u, x) < 1e-8:
            return 0.0  # no ratio where the section solves the equation
        return abs(fm_gauge.mirror_ratio(u, x) - fm_gauge.MIRROR_RATIO)
    worst = _worst(200, ratio_gap)
    checks.append(_record("mirror-ratio",
                          "instanton and section residuals have a fixed ratio",
                          worst, worst < 1e-8))

    mu = ex.basis_form(7, (4, 5, 6, 7))
    worst = _fold([ex.wedge(ex.basis_form(7, (i, a)), mu).norm()
                   for i in range(1, 4) for a in range(4, 8)])
    checks.append(_record("mixed-forms-kill-mu",
                          "K ^ mu = 0 for every H* x V* monomial",
                          worst, worst == 0.0))

    slope = _large_radius_slope()
    checks.append(_record("large-radius-slope",
                          "the normalized deformation gap decays at fourth order",
                          slope, abs(slope + 4.0) < 0.1))

    sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
    r = fm_gauge.instanton_residual(fm_gauge.fm_transform(sec), [0.2, 0.5, 0.8])
    checks.append(_record("solution-transform",
                          "solutions transform to instanton connections",
                          r, r == 0.0))

    flat = fm_gauge.fm_transform(pde.affine_map(np.zeros((4, 3))))
    r = _fold([fm_gauge.instanton_residual(flat, [0.0, 0, 0]),
               fm_gauge.ddt_residual(flat, [0.0, 0, 0], 3.0)])
    checks.append(_record("flat-connection", "flat connections solve every equation",
                          r, r == 0.0))
    return checks


SUITES = {
    "algebra": _suite_algebra,
    "splitting": _suite_splitting,
    "fueter": _suite_fueter,
    "models": _suite_models,
    "pde": _suite_pde,
    "fm": _suite_fm,
}


# -- commands --------------------------------------------------------------------


def _cmd_verify(args):
    rng = np.random.default_rng(args.seed)
    tol = dict(PROFILES[args.profile])
    if args.samples:
        tol["samples"] = args.samples
    if args.tol is not None:
        tol["identity"] = args.tol
    checks = SUITES[args.suite](rng, tol)
    return checks, {}


def _cmd_scan(args):
    tol = dict(PROFILES[args.profile])
    slack = tol["slack"] if args.tol is None else args.tol
    S = splitting.standard_splitting()
    if args.kind == "semical":
        checks, payloads = [], []
        eye3 = np.eye(7)[:3]
        sampler = splitting.PlaneSampler(args.seed)  # one draw for every metric
        for eps in args.eps:
            phi_eps = splitting.adiabatic_family(S.g2.phi, eps)
            g_eps = np.diag([1.0] * 3 + [eps] * 4)
            rep = splitting.semi_calibration_scan(
                phi_eps, g_eps, sampler, args.samples, tol=slack,
                include_frames=[eye3] if eps == 1.0 else (),
                label=f"phi_eps, eps={eps}",
            )
            payloads.append(rep.as_dict())
            checks.append(_record(
                f"semical-eps-{eps}",
                "the 3-form never exceeds the volume of its metric",
                rep.max_ratio, rep.passed,
            ))
        return checks, {"scans": payloads}
    sampler = splitting.PlaneSampler(args.seed)
    fueter_plane = np.zeros((3, 4))
    fueter_plane[0, 0] = 1.0
    fueter_plane[2, 2] = -1.0
    rep = splitting.anisotropic_scan(
        S, sampler, args.samples, tol=slack, include_planes=[fueter_plane]
    )
    checks = [_record(
        "anisotropic", "omega(v) <= ve_1 with the pointwise equality verified",
        rep.max_ratio, rep.passed,
    )]
    return checks, {"scan": rep.as_dict()}


def _cmd_model(args):
    m = models.model_by_name(args.name, args.B)
    flags = models.closedness_flags(m)
    payload = {
        "model": m.name,
        "flags": flags.closed(),
        "residuals": flags.as_dict(),
    }
    lam, omega, theta, mu = m.forms()
    payload["forms"] = {
        "lambda": ex.render(lam, "e"),
        "omega": ex.render(omega, "e"),
        "Theta": ex.render(theta, "e"),
        "mu": ex.render(mu, "e"),
    }
    jacobi = models.jacobi_check(m.c)
    checks = [_record("jacobi", "the structure constants close a Lie algebra",
                      jacobi, jacobi == 0.0)]
    if args.homology:
        h = models.h1_nilmanifold(m.B)
        payload["homology"] = {
            "freeRank": h.free_rank,
            "torsion": list(h.torsion_factors),
            "torsionOrder": h.torsion_order,
            "group": str(h),
        }
        checks.append(_record("homology", "first homology via exact integer reduction",
                              h.torsion_order, True))
    return checks, payload


def _cmd_solve(args):
    rng = np.random.default_rng(args.seed)
    if args.kind == "flat-harmonic":
        _, resid = _harmonic_solution(rng)
        payload = {"kind": args.kind, "residualSup": resid}
        checks = [_record("solution", "constructed section solves the vertical equation",
                          resid, resid < 1e-10)]
    elif args.kind == "affine":
        a2 = rng.integers(-3, 4, size=4)
        a3 = rng.integers(-3, 4, size=4)
        u = pde.affine_fueter_section(a2, a3)
        resid = float(np.abs(pde.fueter_operator_flat(u, rng.standard_normal((100, 3)))).max())
        payload = {
            "kind": args.kind,
            "a2": a2.tolist(),
            "a3": a3.tolist(),
            "holonomy": np.asarray(u.periodicity).tolist(),
            "residualSup": resid,
        }
        checks = [_record("solution", "integer affine section is exactly a solution",
                          resid, resid == 0.0)]
    else:  # su2
        comp = [{tuple(rng.integers(0, 2, size=4)): float(rng.standard_normal())}
                for _ in range(4)]
        F = pde.AmbientPolynomialMap(comp)
        hs = pde.random_su2_points(rng, 200)
        resid = float(np.abs(pde.su2_identity_residual(F, hs)).max())
        payload = {"kind": args.kind, "identityResidualSup": resid}
        checks = [_record("identity", "the shifted-square identity holds on the samples",
                          resid, resid < 1e-8)]
    return checks, payload


def _cmd_energy(args):
    rng = np.random.default_rng(args.seed)
    a2 = rng.integers(-2, 3, size=4)
    a3 = rng.integers(-2, 3, size=4)
    sec = pde.affine_fueter_section(a2, a3)
    E = pde.immersion_energies(pde.ImmersionGrid(sec, args.grid))
    checks = [_record("energy-identity",
                      "total energy = 3/2 VolH + VE pointwise",
                      E["pointwiseIdentityResidual"],
                      E["pointwiseIdentityResidual"] < 1e-12)]
    return checks, {"energies": E, "a2": a2.tolist(), "a3": a3.tolist()}


def _cmd_fm_sweep(args):
    rng = np.random.default_rng(args.seed)
    x = [0.0, 0.0, 0.0]
    while True:
        # need a full-rank slope whose instanton and cubic 6-forms are not
        # orthogonal, else the gap decays at eighth order instead of fourth
        A = rng.integers(-2, 3, size=(4, 3)).astype(float)
        if np.linalg.matrix_rank(A) < 3:
            continue
        u = pde.affine_map(A)
        c = fm_gauge.fm_transform(u)
        K = fm_gauge.curvature(c, x)
        v = ex.wedge(K, g2core.star_phi0())
        w = ex.wedge(ex.wedge(K, K), K)
        if v.norm() > 1e-9 and w.norm() > 1e-9 and abs(ex.inner(v, w)) > 1e-6:
            break
    radii = np.logspace(np.log10(args.rmin), np.log10(args.rmax), args.points)
    rows = fm_gauge.radius_sweep(c, x, radii)
    try:
        slope = fm_gauge.sweep_slope(c, x, radii)
    except ValueError:
        # the gap rounded to zero at all but one radius: the decay is below
        # double precision there, so there is no slope and the check fails
        slope = math.nan
    checks = [_record("sweep-slope", "the normalized gap decays at fourth order",
                      slope, abs(slope + 4.0) < 0.1)]
    payload = {
        "rows": [{"r": r, "rawResidual": raw, "normalizedResidual": nrm}
                 for r, raw, nrm in rows],
        "slope": checks[0]["residualOrFlag"],
        "instantonResidual": fm_gauge.instanton_residual(c, x),
    }
    if args.format == "csv":
        lines = ["r,rawResidual,normalizedResidual"]
        lines += [f"{r!r},{raw!r},{nrm!r}" for r, raw, nrm in rows]
        payload["csv"] = "\n".join(lines)
    return checks, payload


# -- driver ------------------------------------------------------------------------


# Each option's type= states its domain; argparse turns a value outside it
# into a usage error (exit 2).


def _domain(convert, accept, expected):
    def parse(text):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


def _int_at_least(lo):
    return _domain(int, lambda v: v >= lo, f"an integer >= {lo}")


_finite = _domain(float, math.isfinite, "a finite number")
_positive = _domain(float, lambda v: math.isfinite(v) and v > 0, "a positive finite number")
# r^4 and the squared residual coefficients of the sweep stay finite
_radius = _domain(float, lambda r: 1e-30 <= r <= 1e30, "a radius in [1e-30, 1e30]")


def _parse_matrix(text):
    return np.array([[float(v) for v in row.split(",")] for row in text.split(";")])


def _is_b_matrix(B):
    # the squared closedness residuals, linear in B, neither overflow nor underflow
    mag = np.abs(B)
    return B.shape == (3, 3) and bool(np.all((B == 0) | ((mag >= 1e-100) & (mag <= 1e100))))


_matrix3 = _domain(
    _parse_matrix, _is_b_matrix,
    "a 3x3 matrix with entries 0 or of magnitude in [1e-100, 1e100], rows separated by"
    " ';', entries by ','",
)

SEED = ("--seed", {"type": _int_at_least(0), "required": True})
TOL = ("--tol", {"type": _finite, "default": None})
PROFILE = ("--profile", {"choices": tuple(PROFILES), "default": "strict"})
OUT = ("--out", {"default": None, "help": "write the report to this file"})


def _add(sp, *options):
    for flag, kwargs in options:
        sp.add_argument(flag, **kwargs)


def build_parser():
    p = argparse.ArgumentParser(prog="g2f", description=USAGE,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run a module verification suite")
    sp.add_argument("suite", choices=tuple(SUITES))
    _add(sp, SEED, ("--samples", {"type": _int_at_least(5), "default": None}),
         TOL, PROFILE, OUT)
    sp.set_defaults(fn=_cmd_verify)

    scan = sub.add_parser("scan", help="Monte-Carlo comparison scans")
    scan_sub = scan.add_subparsers(dest="kind", required=True)
    scan_options = (SEED, ("--samples", {"type": _int_at_least(1), "default": 100000}),
                    TOL, PROFILE, OUT)
    sp = scan_sub.add_parser("semical", help="phi_eps against the volume of its metric")
    _add(sp, *scan_options,
         ("--eps", {"type": _positive, "nargs": "+", "default": [1.0, 0.1, 0.01]}))
    sp.set_defaults(fn=_cmd_scan)
    sp = scan_sub.add_parser("anisotropic", help="omega against the vertical energy ve_1")
    _add(sp, *scan_options)
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("model", help="inspect a catalog model")
    sp.add_argument("name", choices=("product-flat", "su2-semidirect", "heisenberg"))
    _add(sp, ("--B", {"type": _matrix3, "default": None,
                      "help": "heisenberg only: rows separated by ';', entries by ','"}),
         ("--homology", {"action": "store_true"}), OUT)
    sp.set_defaults(fn=_cmd_model, seed=0, profile="strict")

    sp = sub.add_parser("solve", help="construct explicit solutions")
    sp.add_argument("kind", choices=("flat-harmonic", "affine", "su2"))
    _add(sp, SEED, OUT)
    sp.set_defaults(fn=_cmd_solve, profile="strict")

    sp = sub.add_parser("energy", help="energies of a seeded affine section")
    _add(sp, SEED, ("--grid", {"type": _int_at_least(1), "default": 8}), OUT)
    sp.set_defaults(fn=_cmd_energy, profile="strict")

    fm_parser = sub.add_parser("fm", help="Fourier-Mukai tools")
    fm_sub = fm_parser.add_subparsers(dest="fm_command", required=True)
    sp = fm_sub.add_parser("sweep", help="radius sweep of the deformation residual")
    _add(sp, SEED,
         ("--rmin", {"type": _radius, "default": 1.0}),
         ("--rmax", {"type": _radius, "default": 1000.0}),
         ("--points", {"type": _int_at_least(2), "default": 16}),
         ("--format", {"choices": ("json", "csv"), "default": "json"}), OUT)
    sp.set_defaults(fn=_cmd_fm_sweep, profile="strict")
    return p


def _check_combinations(parser, args):
    """The rules that involve two options; a broken one is a usage error."""
    if args.command == "model":
        if args.name == "heisenberg" and args.B is None:
            parser.error("model heisenberg requires --B")
        if args.name != "heisenberg" and args.B is not None:
            parser.error(f"--B applies only to model heisenberg, not {args.name}")
        if args.homology and (args.B is None or (args.B % 2 != 0).any()):
            parser.error("--homology needs model heisenberg with an even-integer --B")
    elif args.command == "fm" and not args.rmin < args.rmax:
        parser.error(f"--rmin ({args.rmin}) must be below --rmax ({args.rmax})")


def _echo(argv):
    """The command line as echoed in the report.  The output path is not part
    of the computation, so both `--out FILE` and `--out=FILE` are dropped."""
    kept, skip = [], False
    for tok in argv:
        if skip or tok.startswith("--out="):
            skip = False
        elif tok == "--out":
            skip = True
        else:
            kept.append(tok)
    return " ".join(kept)


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_combinations(parser, args)
    start = time.monotonic()
    checks, payload = args.fn(args)
    wall = time.monotonic() - start
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": _echo(argv if argv is not None else sys.argv[1:]),
        "seed": args.seed,
        "toleranceProfile": args.profile,
        "checks": checks,
    }
    report.update(payload)
    if "csv" in payload:
        text = payload["csv"]
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"wall time: {wall:.3f}s", file=sys.stderr)
    return 0 if all(c["pass"] for c in checks) else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
