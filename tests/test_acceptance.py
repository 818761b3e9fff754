"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with `pytest -s` to see them on
success).  An identity that `g2f verify` also checks is computed by the
sampler that its entry in `g2fueter.checks.TABLE` calls, here at the
criterion's own seed and count and folded by the same NaN-keeping
`checks._fold`.  Criteria that feed the determinism check (3, 4, 8, 9)
factor their computation into cached functions returning a JSON
artifact; criterion 12 compares each cached artifact byte for byte with
one fresh run.
"""

import functools
import json

import numpy as np
import pytest

from g2fueter import checks
from g2fueter import exterior as ex
from g2fueter import fm_gauge as fm
from g2fueter import g2core as g2
from g2fueter import models as md
from g2fueter import pde
from g2fueter import splitting as sp


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- criterion 1 ---------------------------------------------------------------


def test_01_g2_algebra_suite():
    rng = np.random.default_rng(101)
    G = g2.standard_g2()
    phi_d = G.phi.to_dense()
    star_d = G.star_phi.to_dense()
    tau_d = np.stack([c.to_dense() for c in G.tau_form.components])

    vs = rng.standard_normal((10_000, 3, 7))
    phi_vals = np.einsum("ijk,ni,nj,nk->n", phi_d, vs[:, 0], vs[:, 1], vs[:, 2])
    chi_vals = np.einsum("ijkl,ni,nj,nk->nl", star_d, vs[:, 0], vs[:, 1], vs[:, 2])
    gram = np.einsum("nia,nja->nij", vs, vs)
    assoc = np.abs(phi_vals ** 2 + np.sum(chi_vals ** 2, axis=1) - np.linalg.det(gram))
    worst_assoc = float(assoc.max())

    # tie the batch evaluation to the pointwise operation
    tie = checks._fold(np.abs(chi_vals[:100] - g2.chi(vs[:100])).max(axis=1))

    ws = rng.standard_normal((10_000, 4, 7))
    sphi_vals = np.einsum("ijkl,ni,nj,nk,nl->n", star_d, ws[:, 0], ws[:, 1], ws[:, 2], ws[:, 3])
    tau_vals = np.einsum("mijkl,ni,nj,nk,nl->nm", tau_d, ws[:, 0], ws[:, 1], ws[:, 2], ws[:, 3])
    gram4 = np.einsum("nia,nja->nij", ws, ws)
    coassoc = np.abs(sphi_vals ** 2 + np.sum(tau_vals ** 2, axis=1) - np.linalg.det(gram4))
    worst_coassoc = float(coassoc.max())

    metric_err = float(np.abs(g2.metric_from_phi(G.phi) - np.eye(7)).max())
    norm_sq = ex.inner(G.phi, G.phi)

    ok = (
        worst_assoc < 1e-10
        and worst_coassoc < 1e-10
        and tie < 1e-10
        and metric_err < 1e-12
        and norm_sq == 7.0
    )
    _line(1, "g2-algebra-suite", ok,
          f"assoc {worst_assoc:.2e}, coassoc {worst_coassoc:.2e}, metric {metric_err:.2e}")


# -- criterion 2 ---------------------------------------------------------------


def test_02_ve_hierarchy():
    worst = checks._ve_routes(np.random.default_rng(102), 1000)
    pin_err = checks._ve_sqrt_taylor()
    ok = worst < 1e-10 and pin_err == 0.0
    _line(2, "ve-hierarchy", ok, f"routes {worst:.2e}, pinned {pin_err:.2e}")


# -- criterion 3 ---------------------------------------------------------------


@functools.cache
def run_criterion_3():
    fueter_plane = np.zeros((3, 4))
    fueter_plane[0, 0] = 1.0
    fueter_plane[2, 2] = -1.0
    rep = sp.anisotropic_scan(
        sp.PlaneSampler(103), 100_000, tol=1e-10, include_planes=[fueter_plane]
    )
    ok = rep.violations == 0 and rep.max_ratio <= 1.0 + 1e-10
    return ok, json.dumps(rep.as_dict(), sort_keys=True)


def test_03_anisotropic_calibration():
    ok, payload = run_criterion_3()
    rep = json.loads(payload)
    _line(3, "anisotropic-calibration", ok,
          f"max ratio {rep['maxRatio']:.12f} over {rep['samples']} samples")


# -- criterion 4 ---------------------------------------------------------------


@functools.cache
def run_criterion_4():
    pairs = list(checks._six_way(np.random.default_rng(104), 1000))
    ok = all(f.all_below() and h.none_below() for f, h in pairs)
    reports = [{"fueter": f.as_dict(), "generic": h.as_dict()} for f, h in pairs[:50]]
    return ok, json.dumps(reports, sort_keys=True)


def test_04_six_way_equivalence():
    ok, _ = run_criterion_4()
    _line(4, "six-way-fueter-equivalence", ok, "1000 completed + 1000 generic planes")


# -- criterion 5 ---------------------------------------------------------------


def test_05_model_flags():
    m = md.model_su2_semidirect()
    flags = md.closedness_flags(m).closed()
    _, omega, _, _ = m.forms()
    w1 = ex.form_from_terms(7, 2, [(1.0, (4, 5)), (1.0, (6, 7))])
    w2 = ex.form_from_terms(7, 2, [(1.0, (4, 6)), (-1.0, (5, 7))])
    w3 = ex.form_from_terms(7, 2, [(-1.0, (4, 7)), (-1.0, (5, 6))])
    display = (
        -2.0 * ex.wedge(ex.basis_form(7, (2, 3)), w1)
        + 2.0 * ex.wedge(ex.basis_form(7, (1, 3)), w2)
        - 2.0 * ex.wedge(ex.basis_form(7, (1, 2)), w3)
    )
    su2_ok = (
        flags["dTheta"] and flags["dStarPhi"] and not flags["dOmega"]
        and md.ce_differential(omega, m).equals(display, 0.0)
    )

    heis_ok = True
    basis = []
    for k in range(9):
        B = np.zeros((3, 3))
        B[k // 3, k % 3] = 2.0
        basis.append(B)
    rng = np.random.default_rng(105)
    for B in basis + [2.0 * rng.integers(-4, 5, size=(3, 3)) for _ in range(5)]:
        mh = md.model_heisenberg(B)
        lam, omega, theta, mu = mh.forms()
        heis_ok &= (md.ce_differential(omega, mh) - 2.0 * np.trace(B) * mu).is_zero(0.0)
        sym = np.array_equal(B, B.T)
        heis_ok &= md.closedness_flags(mh).closed()["dTheta"] == sym

    flat_ok = md.closedness_flags(md.model_product_flat()).closed()["dPhi"]
    ok = bool(su2_ok and heis_ok and flat_ok)
    _line(5, "model-flags-symbolic", ok)


# -- criterion 6 ---------------------------------------------------------------


def test_06_homology():
    _line(6, "nilmanifold-homology", checks._homology_family(), "n = 1..10, exact integers")


# -- criterion 7 ---------------------------------------------------------------


def test_07_pde_identities():
    rng = np.random.default_rng(107)
    worst_flat = checks._fold(checks._flat_dirac_squared(rng, 50))

    def su2_residual():
        comps = []
        for _ in range(4):
            comp = {}
            for _ in range(4):
                comp[tuple(rng.integers(0, 2, size=4))] = rng.standard_normal()
            comps.append(comp)
        F = pde.AmbientPolynomialMap(comps)
        return float(np.abs(pde.su2_identity_residual(F, pde.random_su2_points(rng, 100))).max())
    worst_su2 = checks._fold([su2_residual() for _ in range(5)])
    worst_sol = checks._fold([checks._harmonic_solution(rng)[1] for _ in range(10)])

    ok = worst_flat < 1e-10 and worst_su2 < 1e-8 and worst_sol < 1e-10
    _line(7, "pde-identities", ok,
          f"flat {worst_flat:.2e}, su2 {worst_su2:.2e}, solutions {worst_sol:.2e}")


# -- criterion 8 ---------------------------------------------------------------


@functools.cache
def run_criterion_8():
    base = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
    results = {}
    ok = True
    for amplitude in (0.01, 0.1, 0.5):
        rep = pde.minimization_experiment(base, 200, amplitude, seed=108, grid_n=8)
        ok = ok and rep["veViolations"] == 0 and rep["totalViolations"] == 0
        results[str(amplitude)] = rep
    return ok, json.dumps(results, sort_keys=True)


def test_08_minimization_experiment():
    ok, payload = run_criterion_8()
    gaps = [json.loads(payload)[a]["minGapVE"] for a in ("0.01", "0.1", "0.5")]
    _line(8, "minimization-experiment", ok,
          "min gaps " + ", ".join(f"{g:.2e}" for g in gaps))


# -- criterion 9 ---------------------------------------------------------------


@functools.cache
def run_criterion_9():
    rng = np.random.default_rng(109)
    ok = True
    rows = []
    for _ in range(1000):
        u = pde.random_polynomial_map(rng)
        x = rng.standard_normal(3)
        f_res = fm.fueter_residual_norm(u, x)
        i_res = fm.instanton_residual(fm.fm_transform(u), x)
        if f_res < 1e-12:
            ok = ok and i_res < 1e-10
        else:
            rows.append({"fueter": f_res, "instanton": i_res})
    worst_dev = checks._fold([abs(r["instanton"] / r["fueter"] - fm.MIRROR_RATIO) for r in rows])
    ok = ok and worst_dev < 1e-8

    # exact zeros on both sides for constructed solutions
    for _ in range(20):
        u = pde.harmonic_to_fueter(pde.random_harmonic_map(rng))
        x = rng.standard_normal(3)
        ok = ok and fm.fueter_residual_norm(u, x) < 1e-10
        ok = ok and fm.instanton_residual(fm.fm_transform(u), x) < 1e-10

    slope = checks._large_radius_slope()
    ok = ok and abs(slope + 4.0) < 0.1
    payload = json.dumps(
        {"worstRatioDeviation": worst_dev, "slope": slope, "rows": rows[:50]},
        sort_keys=True,
    )
    return ok, payload, worst_dev, slope


def test_09_mirror_equivalence():
    ok, _, worst_dev, slope = run_criterion_9()
    _line(9, "mirror-equivalence", ok,
          f"ratio deviation {worst_dev:.2e}, sweep slope {slope:.3f}")


# -- criterion 10 --------------------------------------------------------------


def test_10_cs_first_variation():
    sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
    u0 = sec + pde.random_fourier_field(np.random.default_rng(110), kmax=1)
    rngs = (np.random.default_rng(1100 + k) for k in range(20))
    worst = checks._fold([checks._first_variation(u0, sec, pde.random_fourier_field(next(rngs), kmax=1))
                       for _ in range(20)])
    num_bad, bnd_bad = checks._defect_variation(np.random.default_rng(111))
    ok = worst < 1e-6 and abs(num_bad) >= 1e-3 and abs(num_bad - bnd_bad) < 1e-6
    _line(10, "action-first-variation", ok,
          f"critical {worst:.2e}, adversarial {abs(num_bad):.2e}")


# -- criterion 11 --------------------------------------------------------------


def test_11_polar_spaces():
    counts, ok = checks._polar_dimensions(100, (112, 113, 114))
    _line(11, "polar-space-dimensions", ok, ", ".join(map(str, counts)))


# -- criterion 12 --------------------------------------------------------------


def test_12_determinism():
    # the first run is the one criteria 3, 4, 8 and 9 already made
    pairs = [fn()[1] == fn.__wrapped__()[1]
             for fn in (run_criterion_3, run_criterion_4, run_criterion_8, run_criterion_9)]
    ok = all(pairs)
    _line(12, "determinism", ok, f"byte-identical reruns: {pairs}")


# -- the folds keep a NaN ----------------------------------------------------------


def test_nan_ve_route_fails_criterion_2(monkeypatch):
    # the second plane's row of the batched recursive route is NaN
    real, calls = sp.ve_recursive, []

    def probe(Ts, kmax):
        calls.append(len(Ts))
        ve = real(Ts, kmax)
        ve[1] = np.nan
        return ve

    monkeypatch.setattr(sp, "ve_recursive", probe)
    with pytest.raises(AssertionError, match="criterion 2"):
        test_02_ve_hierarchy()
    assert calls == [1000]


def test_nan_first_variation_fails_criterion_10(monkeypatch):
    # stubbed results, so the fold alone decides: the 20 critical variations
    # vanish except a NaN third one, and the adversarial one is nonzero
    results = iter([(0.0, 0.0)] * 2 + [(np.nan, 0.0)] + [(0.0, 0.0)] * 17 + [(1.0, 1.0)])
    monkeypatch.setattr(pde, "cs_first_variation", lambda *args, **kwargs: next(results))
    with pytest.raises(AssertionError, match="criterion 10"):
        test_10_cs_first_variation()
