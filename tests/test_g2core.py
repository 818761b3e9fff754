from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from g2fueter import exterior as ex
from g2fueter import g2core as g2

E = np.eye(7)
G = g2.standard_g2()
FIXTURE = Path(__file__).parent / "fixtures" / "g2_forms.txt"


def g2_from_phi(phi):
    """The full structure (metric, volume, dual) of a definite 3-form."""
    g = g2.metric_from_phi(phi)
    vol = ex.basis_form(7, tuple(range(1, 8)), float(np.sqrt(np.linalg.det(g))))
    return g2.G2Structure(phi=phi, metric=g, vol=vol, star_phi=g2.hodge_metric(phi, g))


def golden_forms():
    """The named constant forms, keyed as in the fixture file."""
    lam = ex.basis_form(7, (1, 2, 3))
    mu = ex.basis_form(7, (4, 5, 6, 7))
    return {
        "phi0": g2.phi0(),
        "star_phi0": g2.star_phi0(),
        "omega_1": ex.form_from_terms(7, 2, ((1.0, (4, 5)), (1.0, (6, 7)))),
        "omega_2": ex.form_from_terms(7, 2, ((1.0, (4, 6)), (-1.0, (5, 7)))),
        "omega_3": ex.form_from_terms(7, 2, ((-1.0, (4, 7)), (-1.0, (5, 6)))),
        "lambda": lam,
        "omega": g2.phi0() - lam,
        "Theta": g2.star_phi0() - mu,
        "mu": mu,
    }


def gram_det(*vs):
    vs = np.vstack(vs)
    return np.linalg.det(vs @ vs.T)


class TestMetricFromPhi:
    def test_model_form_gives_identity(self):
        assert np.abs(g2.metric_from_phi(g2.phi0()) - np.eye(7)).max() < 1e-12

    def test_anisotropic_scaling(self):
        eps = 0.41
        phi_eps = ex.pullback(np.diag([1.0] * 3 + [np.sqrt(eps)] * 4), g2.phi0())
        expected = np.diag([1.0] * 3 + [eps] * 4)
        assert np.abs(g2.metric_from_phi(phi_eps) - expected).max() < 1e-12

    def test_cubic_homogeneity(self):
        # c^3 phi -> c^2 g, checked numerically at c = 2
        got = g2.metric_from_phi(8.0 * g2.phi0())
        assert np.abs(got - 4.0 * np.eye(7)).max() < 1e-12

    def test_rejects_indefinite_form(self):
        with pytest.raises(g2.NotG2FormError):
            g2.metric_from_phi(-1.0 * g2.phi0())
        nan_phi = ex.Form(7, 3, {**g2.phi0().coeffs, (1, 2, 3): np.nan})
        with np.errstate(invalid="ignore"), pytest.raises(g2.NotG2FormError):
            g2.metric_from_phi(nan_phi)

    def test_volume_matches_metric(self):
        s = g2_from_phi(g2.phi0())
        assert s.vol.equals(g2.vol0(), 1e-12)
        assert abs(ex.inner(s.phi, s.phi) - 7.0) < 1e-12
        assert abs(ex.inner(s.star_phi, s.star_phi) - 7.0) < 1e-10


class TestCross:
    def test_basis_products(self):
        assert np.allclose(g2.cross(E[0], E[1], G), E[2])
        assert np.allclose(g2.cross(E[0], E[3], G), E[4])
        assert np.allclose(g2.cross(E[1], E[4], G), -E[6])

    def test_antisymmetric_and_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            u, v = rng.standard_normal((2, 7))
            w = g2.cross(u, v, G)
            assert np.abs(w + g2.cross(v, u, G)).max() < 1e-12
            assert abs(u @ w) < 1e-10 and abs(v @ w) < 1e-10

    def test_contraction_route(self):
        # cross agrees with raising i(v) i(u) phi
        rng = np.random.default_rng(4)
        for _ in range(25):
            u, v = rng.standard_normal((2, 7))
            contracted = ex.interior(v, ex.interior(u, G.phi))
            alt = np.array([contracted.coeffs.get((i,), 0.0) for i in range(1, 8)])
            assert np.abs(g2.cross(u, v, G) - alt).max() < 1e-12

    def test_double_cross_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = rng.standard_normal(7)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(7)
            lhs = g2.cross(u, g2.cross(u, v, G), G)
            assert np.abs(lhs - (-v + (u @ v) * u)).max() < 1e-10


class TestChi:
    def test_vanishes_on_associative_triple(self):
        assert np.abs(g2.chi(E[0], E[1], E[2], G)).max() == 0.0

    def test_coassociative_triple_sign_from_fixture(self):
        # the dx4567 coefficient of the pinned dual form is +1
        assert np.allclose(g2.chi(E[3], E[4], E[5], G), E[6])

    def test_associator_equality(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u, v, w = rng.standard_normal((3, 7))
            lhs = G.phi.apply([u, v, w]) ** 2 + np.sum(g2.chi(u, v, w, G) ** 2)
            assert abs(lhs - gram_det(u, v, w)) < 1e-10

    def test_vanishes_on_cross_completions(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v = rng.standard_normal((2, 7))
            w = g2.cross(u, v, G)
            assert np.linalg.norm(g2.chi(u, v, w, G)) < 1e-10

    def test_chi_form_matches_pointwise(self):
        rng = np.random.default_rng(8)
        cf = G.chi_form
        for _ in range(10):
            u, v, w = rng.standard_normal((3, 7))
            assert np.abs(cf.apply([u, v, w]) - g2.chi(u, v, w, G)).max() < 1e-12


class TestTau:
    def test_vanishes_on_coassociative(self):
        assert np.abs(g2.tau(E[3], E[4], E[5], E[6], G)).max() == 0.0

    def test_mixed_quadruple_direct_expansion(self):
        # oracle: expand phi ^ dx^m degreewise; only m = 4 survives on e1..e4
        got = g2.tau(E[0], E[1], E[2], E[3], G)
        expected = np.zeros(7)
        for m in range(1, 8):
            expected[m - 1] = ex.wedge(G.phi, ex.basis_form(7, (m,))).apply(
                [E[0], E[1], E[2], E[3]]
            )
        assert np.allclose(got, expected)
        assert np.allclose(got, E[3])
        assert G.star_phi.apply([E[0], E[1], E[2], E[3]]) == 0.0

    def test_coassociator_equality(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            vs = rng.standard_normal((4, 7))
            t = g2.tau(*vs, G)
            lhs = G.star_phi.apply(list(vs)) ** 2 + t @ t
            assert abs(lhs - gram_det(*vs)) < 1e-10


class TestLambdaAndProjections:
    def test_lambda2_of_dx1(self):
        got = g2.lambda_k(ex.basis_form(7, (1,)), 2, G)
        expected = (1.0 / np.sqrt(3.0)) * ex.form_from_terms(
            7, 2, [(1.0, (2, 3)), (1.0, (4, 5)), (1.0, (6, 7))]
        )
        assert got.equals(expected, 1e-15)
        assert abs(got.norm() - 1.0) < 1e-15

    def test_lambda4_is_half_wedge(self):
        alpha = ex.basis_form(7, (1,))
        assert g2.lambda_k(alpha, 4, G).equals(0.5 * ex.wedge(alpha, G.phi), 0.0)

    def test_isometries(self):
        rng = np.random.default_rng(10)
        for k in (2, 4, 6):
            for _ in range(20):
                alpha = ex.Form(7, 1, {(i,): rng.standard_normal() for i in range(1, 8)})
                assert abs(g2.lambda_k(alpha, k, G).norm() - alpha.norm()) < 1e-12

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            g2.lambda_k(ex.basis_form(7, (1,)), 3, G)
        with pytest.raises(ValueError):
            g2.lambda_k_inverse(ex.basis_form(7, (1, 2, 3)), 3, G)
        with pytest.raises(ValueError):
            g2.project_k7(ex.basis_form(7, (1, 2, 3)), 3, G)

    def test_projection_kills_lambda2_image(self):
        l2 = g2.lambda_k(ex.basis_form(7, (1,)), 2, G)
        assert g2.project_2_14(l2, G).norm() < 1e-14

    def test_projection_ranks(self):
        import itertools

        keys = list(itertools.combinations(range(1, 8), 2))
        M7 = np.zeros((21, 21))
        for col, key in enumerate(keys):
            img = g2.project_2_7(ex.basis_form(7, key), G)
            for row, key2 in enumerate(keys):
                M7[row, col] = img.coeffs.get(key2, 0.0)
        assert np.linalg.matrix_rank(M7, tol=1e-10) == 7
        assert np.linalg.matrix_rank(np.eye(21) - M7, tol=1e-10) == 14

    def test_eigenvalue_characterization(self):
        import itertools

        rng = np.random.default_rng(11)
        for _ in range(20):
            beta = ex.Form(
                7, 2,
                {idx: rng.standard_normal() for idx in itertools.combinations(range(1, 8), 2)},
            )
            oracle = (1.0 / 3.0) * (beta + ex.hodge(ex.wedge(G.phi, beta)))
            assert (g2.project_2_7(beta, G) - oracle).norm() < 1e-12

    def test_membership_via_wedge(self):
        import itertools

        rng = np.random.default_rng(12)
        beta = ex.Form(
            7, 2,
            {idx: rng.standard_normal() for idx in itertools.combinations(range(1, 8), 2)},
        )
        b14 = g2.project_2_14(beta, G)
        assert ex.wedge(b14, G.star_phi).norm() < 1e-12
        b7 = g2.project_2_7(beta, G)
        if b7.norm() > 1e-8:
            assert ex.wedge(b7, G.star_phi).norm() > 1e-8


def test_hodge_metric_on_eps_family():
    eps = 0.17
    phi_eps = ex.pullback(np.diag([1.0] * 3 + [np.sqrt(eps)] * 4), g2.phi0())
    s = g2_from_phi(phi_eps)
    theta = ex.form_from_terms(7, 4, g2.STAR_PHI0_TERMS[1:])
    mu = ex.basis_form(7, (4, 5, 6, 7))
    assert s.star_phi.equals(eps * theta + eps * eps * mu, 1e-12)
    assert s.vol.equals(eps * eps * g2.vol0(), 1e-12)


def test_golden_fixture_file_matches_oracle():
    # the text file is exactly the canonical rendering, one `name =
    # rendering` per line, of the forms the star/decomposition machinery
    # produces
    forms = golden_forms()
    assert FIXTURE.read_text() == "".join(f"{k} = {ex.render(f)}\n" for k, f in forms.items())
    assert forms["phi0"].equals(forms["lambda"] + forms["omega"], 0.0)
    assert forms["star_phi0"].equals(forms["Theta"] + forms["mu"], 0.0)
    expected_omega = ex.zero_form(7, 3)
    for i in (1, 2, 3):
        expected_omega = expected_omega + ex.wedge(
            ex.basis_form(7, (i,)), forms[f"omega_{i}"]
        )
    assert forms["omega"].equals(expected_omega, 0.0)


class TestGeneralLinearPullbacks:
    def test_metric_of_pullback_is_pullback_metric(self):
        # A* of the model form induces A^t A, for orientation-preserving A
        rng = np.random.default_rng(13)
        for _ in range(10):
            A = rng.standard_normal((7, 7))
            if np.linalg.det(A) < 0:
                A[0] = -A[0]
            phi_A = ex.pullback(A, g2.phi0())
            got = g2.metric_from_phi(phi_A)
            assert np.abs(got - A.T @ A).max() < 1e-8 * max(1.0, np.abs(A.T @ A).max())

    def test_orientation_reversing_pullback_rejected(self):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((7, 7))
        if np.linalg.det(A) > 0:
            A[0] = -A[0]
        with pytest.raises(g2.NotG2FormError):
            g2.metric_from_phi(ex.pullback(A, g2.phi0()))

    def test_star_commutes_with_pullback(self):
        # *_{A*g}(A* phi) = A*(* phi) for orientation-preserving A
        rng = np.random.default_rng(15)
        A = rng.standard_normal((7, 7))
        if np.linalg.det(A) < 0:
            A[0] = -A[0]
        s = g2_from_phi(ex.pullback(A, g2.phi0()))
        expected = ex.pullback(A, g2.star_phi0())
        assert (s.star_phi - expected).norm() < 1e-8 * max(1.0, expected.norm())


class TestDerivedTensors:
    NAMES = ("metric_inv", "phi_dense", "chi_form", "tau_form", "lambda_matrices")

    def test_built_once_and_read_only(self):
        s = g2_from_phi(ex.pullback(np.diag([1.0] * 3 + [0.5] * 4), g2.phi0()))
        for name in self.NAMES:
            assert getattr(s, name) is getattr(s, name), name
        assert np.array_equal(s.metric_inv, np.linalg.inv(s.metric))
        assert np.array_equal(s.phi_dense, s.phi.to_dense())
        arrays = [s.metric_inv, s.phi_dense] + [L for L, _ in s.lambda_matrices.values()]
        assert not any(a.flags.writeable for a in arrays)

    def test_lambda_matrices_are_not_rebuilt(self):
        s = g2.standard_g2()
        beta = ex.basis_form(7, (1, 2))
        g2.project_k7(beta, 2, s)
        with mock.patch.object(g2, "lambda_k", wraps=g2.lambda_k) as spy:
            g2.project_k7(beta, 2, s)
            g2.lambda_k_inverse(beta, 2, s)
        assert spy.call_count == 0
