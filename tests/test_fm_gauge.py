import numpy as np
import pytest

from g2fueter import exterior as ex
from g2fueter import fm_gauge as fm
from g2fueter import g2core as g2
from g2fueter import pde


class TestTransformAndCurvature:
    def test_constant_lift_is_flat(self):
        u = pde.affine_map(np.zeros((4, 3)), b=[0.2, 0.4, 0.6, 0.8])
        K = fm.curvature(fm.fm_transform(u), np.zeros(3))
        assert K.is_zero(0.0)

    def test_linear_lift(self):
        u = pde.affine_map(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]))
        K = fm.curvature(fm.fm_transform(u), np.zeros(3))
        assert K.equals(ex.basis_form(7, (1, 4)), 0.0)

    def test_gauge_invariance_under_lattice_shifts(self):
        rng = np.random.default_rng(0)
        u = pde.random_polynomial_map(rng)
        shift = pde.affine_map(np.zeros((4, 3)), b=2.0 * np.pi * np.array([1.0, -2.0, 0.0, 3.0]))
        x = rng.standard_normal(3)
        K1 = fm.curvature(fm.fm_transform(u), x)
        K2 = fm.curvature(fm.fm_transform(u + shift), x)
        assert (K1 - K2).is_zero(0.0)

    def test_curvature_is_pure_mixed_type(self):
        rng = np.random.default_rng(1)
        K = fm.curvature(fm.fm_transform(pde.random_polynomial_map(rng)), rng.standard_normal(3))
        for idx in K.coeffs:
            assert idx[0] <= 3 < idx[1]


class TestBetaRelation:
    def test_linear_example_both_sides(self):
        # u4 = x1: beta = dx1 ^ dz4 and 2 pi Psi* K = dx1 ^ dz4
        u = pde.affine_map(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]))
        assert fm.beta_relation_residual(u, np.zeros(3)) == 0.0
        K = fm.curvature(fm.fm_transform(u), np.zeros(3))
        assert (2.0 * np.pi * fm.psi_pullback(K)).equals(ex.basis_form(7, (1, 4)), 1e-15)

    def test_constant(self):
        u = pde.affine_map(np.zeros((4, 3)), b=[1.0, 1, 1, 1])
        assert fm.beta_relation_residual(u, np.zeros(3)) == 0.0

    def test_random_cubics(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = pde.random_polynomial_map(rng)
            assert fm.beta_relation_residual(u, rng.standard_normal(3)) < 1e-12


class TestInstantonResidual:
    def test_fueter_section_transform_is_instanton(self):
        sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
        c = fm.fm_transform(sec)
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert fm.instanton_residual(c, rng.standard_normal(3)) == 0.0

    def test_single_slope_is_not_instanton(self):
        u = pde.affine_map(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]))
        r = fm.instanton_residual(fm.fm_transform(u), np.zeros(3))
        assert r == 1.0  # |dx1 ^ dy4 ^ *phi| = |chi_1| = 1

    def test_flat_connection(self):
        u = pde.affine_map(np.zeros((4, 3)))
        assert fm.instanton_residual(fm.fm_transform(u), np.zeros(3)) == 0.0

    def test_theta_route_equivalent(self):
        # K ^ mu = 0 for mixed-type K, so K ^ *phi = K ^ Theta on the nose
        theta = ex.form_from_terms(7, 4, g2.STAR_PHI0_TERMS[1:])
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = pde.random_polynomial_map(rng)
            K = fm.curvature(fm.fm_transform(u), rng.standard_normal(3))
            assert (ex.wedge(K, g2.star_phi0()) - ex.wedge(K, theta)).is_zero(0.0)

    def test_mixed_monomials_kill_mu(self):
        mu = ex.basis_form(7, (4, 5, 6, 7))
        for i in range(1, 4):
            for a in range(4, 8):
                assert ex.wedge(ex.basis_form(7, (i, a)), mu).is_zero(0.0)


class TestMirrorEquivalence:
    def test_ratio_is_pinned_constant(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = pde.random_polynomial_map(rng)
            x = rng.standard_normal(3)
            if fm.fueter_residual_norm(u, x) < 1e-8:
                continue
            assert abs(fm.mirror_ratio(u, x) - fm.MIRROR_RATIO) < 1e-12

    def test_zeros_coincide(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            F = pde.random_harmonic_map(rng)
            u = pde.harmonic_to_fueter(F)
            x = rng.standard_normal(3)
            assert fm.fueter_residual_norm(u, x) < 1e-10
            assert fm.instanton_residual(fm.fm_transform(u), x) < 1e-10


class TestDdt:
    def test_flat_connection_all_radii(self):
        c = fm.fm_transform(pde.affine_map(np.zeros((4, 3))))
        for r in (0.5, 1.0, 10.0):
            assert fm.ddt_residual(c, np.zeros(3), r) == 0.0

    def test_radius_validation(self):
        c = fm.fm_transform(pde.affine_map(np.zeros((4, 3))))
        with pytest.raises(ValueError):
            fm.ddt_residual(c, np.zeros(3), 0.0)
        with pytest.raises(ValueError, match="radius"):
            fm.ddt_residual(c, np.zeros(3), np.nan)

    def test_fueter_section_pure_cubic_tail(self):
        sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
        c = fm.fm_transform(sec)
        x = np.zeros(3)
        K = fm.curvature(c, x)
        k3 = ex.wedge(ex.wedge(K, K), K).norm() / 6.0
        for r in (1.0, 2.0, 5.0):
            assert abs(fm.ddt_residual(c, x, r) - k3) < 1e-12

    def test_large_radius_slope(self):
        u = pde.affine_map(np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 0]]))
        c = fm.fm_transform(u)
        x = np.zeros(3)
        # precondition for a clean fit: both 6-forms present and correlated
        K = fm.curvature(c, x)
        v = ex.wedge(K, g2.star_phi0())
        w = (1.0 / 6.0) * ex.wedge(ex.wedge(K, K), K)
        assert v.norm() > 0 and w.norm() > 0 and abs(ex.inner(v, w)) > 1e-10
        slope = fm.sweep_slope(c, x, np.logspace(0, 3, 16))
        assert abs(slope + 4.0) < 0.1

    def test_normalized_converges_to_instanton(self):
        u = pde.affine_map(np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 0]]))
        c = fm.fm_transform(u)
        rows = fm.radius_sweep(c, np.zeros(3), [1.0, 10.0, 100.0, 1000.0])
        inst = fm.instanton_residual(c, np.zeros(3))
        gaps = [abs(normalized - inst) for _, _, normalized in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-9
