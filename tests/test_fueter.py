import numpy as np
import pytest

from g2fueter import exterior as ex
from g2fueter import fueter as fu
from g2fueter import g2core as g2
from g2fueter import splitting as sp

S = sp.standard_splitting()
E = np.eye(7)

FUETER_T = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, -1.0, 0.0],
])


def random_fueter_plane(rng):
    v1 = np.concatenate([[1.0, 0, 0], rng.standard_normal(4)])
    v2 = np.concatenate([[0.0, 1, 0], rng.standard_normal(4)])
    v3 = fu.fueter_complete(v1, v2, S)
    g, _ = sp.graph_from_plane(sp.Plane(np.vstack([v1, v2, v3])), S)
    return g


class TestJTriple:
    def test_standard_matches_derived(self):
        a = fu.standard_jtriple().as_tuple()
        b = fu.jtriple_from_splitting(S).as_tuple()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_quaternion_relations_enforced(self):
        J = fu.standard_jtriple()
        eye = np.eye(4)
        for Ji in J.as_tuple():
            assert np.array_equal(Ji @ Ji, -eye)
        assert np.array_equal(J.J1 @ J.J2, -J.J3)
        with pytest.raises(ValueError):
            fu.JTriple(np.eye(4), J.J2, J.J3)
        nan = np.full((4, 4), np.nan)
        with pytest.raises(ValueError):
            fu.JTriple(nan, nan, nan)


class TestFueterVector:
    def test_horizontal_plane(self):
        assert np.abs(fu.fueter_vector(sp.GraphPlane(np.zeros((3, 4)), S))).max() == 0.0

    def test_single_entry_gives_eta5(self):
        T = np.zeros((3, 4))
        T[0, 0] = 1.0  # v14 = 1: e1 x eta4 = eta5
        assert np.array_equal(fu.fueter_vector(sp.GraphPlane(T, S)), [0.0, 1.0, 0.0, 0.0])

    def test_cancellation_example(self):
        assert np.abs(fu.fueter_vector(sp.GraphPlane(FUETER_T, S))).max() == 0.0

    def test_coordinate_formula(self):
        rng = np.random.default_rng(0)
        J = fu.jtriple_from_splitting(S)
        for _ in range(50):
            v = rng.standard_normal((3, 4))
            expected = np.array([
                -v[0, 1] - v[1, 2] + v[2, 3],
                v[0, 0] + v[1, 3] + v[2, 2],
                -v[0, 3] + v[1, 0] - v[2, 1],
                v[0, 2] - v[1, 1] - v[2, 0],
            ])
            g = sp.GraphPlane(v, S)
            assert np.abs(fu.fueter_vector(g) - expected).max() < 1e-14
            assert np.abs(fu.fueter_via_J(g, J) - expected).max() < 1e-14

    def test_route_equivalence(self):
        rng = np.random.default_rng(1)
        J = fu.jtriple_from_splitting(S)
        for _ in range(200):
            g = sp.GraphPlane(rng.standard_normal((3, 4)), S)
            f1 = fu.fueter_vector(g)
            f2 = fu.fueter_via_J(g, J)
            chi1 = fu.chi_component_values(g)[1]
            assert np.abs(f1 - f2).max() < 1e-12
            assert np.abs(f1 - chi1[3:]).max() < 1e-10
            assert np.abs(chi1[:3]).max() < 1e-14


class TestCompletions:
    def test_trivial_pair(self):
        assert np.allclose(fu.fueter_complete(E[0], E[1], S), E[2])

    def test_tilted_pair(self):
        got = fu.fueter_complete(E[0] + E[3], E[1], S)
        assert np.allclose(got, E[2] - E[5])  # e3 - eta6

    def test_random_pairs_unique_and_fueter(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v1 = np.concatenate([[1.0, 0, 0], rng.standard_normal(4)])
            v2 = np.concatenate([[0.0, 1, 0], rng.standard_normal(4)])
            (v3,), (cond,) = fu.fueter_complete_many([v1], [v2], S)
            g, _ = sp.graph_from_plane(sp.Plane(np.vstack([v1, v2, v3])), S)
            assert np.linalg.norm(fu.fueter_vector(g)) < 1e-12
            assert abs(cond - 1.0) < 1e-12  # J(h3) is orthogonal

    def test_rotated_horizontal_pair(self):
        c, s = np.cos(0.7), np.sin(0.7)
        v1 = c * E[0] + s * E[1] + 0.4 * E[4]
        v2 = -s * E[0] + c * E[1] - 0.2 * E[6]
        v3 = fu.fueter_complete(v1, v2, S)
        g, _ = sp.graph_from_plane(sp.Plane(np.vstack([v1, v2, v3])), S)
        assert np.linalg.norm(fu.fueter_vector(g)) < 1e-12

    def test_precondition(self):
        with pytest.raises(ValueError):
            fu.fueter_complete(2.0 * E[0], E[1], S)

    def test_non_finite_pair_rejected(self):
        for bad in (np.nan, np.inf):
            v1 = np.array([1.0, 0, 0, bad, 0, 0, 0])
            with pytest.raises(ValueError, match="finite"):
                fu.fueter_complete(v1, E[1], S)
            with pytest.raises(ValueError, match="finite"):
                fu.fueter_complete(E[0], v1[[1, 0, 2, 3, 4, 5, 6]], S)


class TestConditionReport:
    def test_fueter_plane_all_six_vanish(self):
        rep = fu.condition_residuals(sp.GraphPlane(FUETER_T, S))
        assert all(abs(r) <= 1e-12 for r in rep.residuals())

    def test_single_entry_plane_values(self):
        T = np.zeros((3, 4))
        T[0, 0] = 1.0
        rep = fu.condition_residuals(sp.GraphPlane(T, S))
        assert rep.fueter_norm == 1.0
        assert rep.chi1_norm == 1.0
        assert abs(rep.anisotropic_gap - 0.5) < 1e-14

    def test_horizontal_plane_trivially_fueter(self):
        rep = fu.condition_residuals(sp.GraphPlane(np.zeros((3, 4)), S))
        assert max(rep.residuals()) == 0.0

    def test_covanishing_statistics(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert fu.condition_residuals(random_fueter_plane(rng)).all_below()
            generic = sp.GraphPlane(rng.standard_normal((3, 4)), S)
            assert fu.condition_residuals(generic).none_below()

    def test_json_serialization(self):
        import json

        # the program serializes as_dict() inside its report
        rep = fu.condition_residuals(sp.GraphPlane(FUETER_T, S))
        payload = json.loads(json.dumps(rep.as_dict(), sort_keys=True))
        assert set(payload) == {
            "anisotropicGap", "fueterNorm", "chi1Norm", "thetaContractionNorm",
            "betaWedgeStarPhiNorm", "betaWedgeThetaNorm", "T",
        }


class TestChiViaBeta:
    def test_zero_plane(self):
        chi1, chi2, chi3 = fu.chi_via_beta(sp.GraphPlane(np.zeros((3, 4)), S))
        assert chi1.is_zero(0.0) and chi2.is_zero(0.0) and chi3.is_zero(0.0)

    def test_single_entry_matches_fueter_vector(self):
        T = np.zeros((3, 4))
        T[0, 0] = 1.0
        g = sp.GraphPlane(T, S)
        chi1, _, _ = fu.chi_via_beta(g)
        expected = ex.basis_form(7, (5,))  # eta5 flat
        assert chi1.equals(expected, 1e-14)

    def test_all_three_match_direct_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = sp.GraphPlane(rng.standard_normal((3, 4)), S)
            chis = fu.chi_component_values(g)
            via_beta = fu.chi_via_beta(g)
            for k, form in zip((1, 2, 3), via_beta):
                vec = np.array([form.coeffs.get((i,), 0.0) for i in range(1, 8)])
                assert np.abs(vec - chis[k]).max() < 1e-10
            proj = fu.chi1_via_projection(g)
            vec = np.array([proj.coeffs.get((i,), 0.0) for i in range(1, 8)])
            assert np.abs(vec - chis[1]).max() < 1e-10

    def test_chi1_alone_is_the_first_component(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = sp.GraphPlane(rng.standard_normal((3, 4)), S)
            assert fu.chi1_via_beta(g).coeffs == fu.chi_via_beta(g)[0].coeffs

    def test_beta_cubed_oracle(self):
        # beta^3 / 6 = -e123 ^ (Te1)flat ^ (Te2)flat ^ (Te3)flat
        rng = np.random.default_rng(6)
        g = sp.GraphPlane(rng.standard_normal((3, 4)), S)
        beta = sp.beta_of(g)
        lhs = (1.0 / 6.0) * ex.wedge(ex.wedge(beta, beta), beta)
        flats = [
            ex.Form(7, 1, {(a + 4,): g.T[i, a] for a in range(4)}) for i in range(3)
        ]
        rhs = ex.wedge(
            ex.basis_form(7, (1, 2, 3)),
            ex.wedge(ex.wedge(flats[0], flats[1]), flats[2]),
        )
        assert lhs.equals(-1.0 * rhs, 1e-12)

    def test_chi3_rank_characterization(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            T = rng.standard_normal((3, 4))
            T[rng.integers(3)] = 0.0
            g = sp.GraphPlane(T, S)
            assert np.linalg.norm(fu.chi_component_values(g)[3]) < 1e-13
            full = sp.GraphPlane(rng.standard_normal((3, 4)), S)
            if np.linalg.matrix_rank(full.T, tol=1e-6) == 3:
                assert np.linalg.norm(fu.chi_component_values(full)[3]) > 1e-8

    def test_rank2_fueter_implies_associative(self):
        # on chi_3 = 0 planes the vertical equation picks out associative
        # planes up to orientation
        rng = np.random.default_rng(8)
        for _ in range(50):
            v1 = np.concatenate([[1.0, 0, 0], rng.standard_normal(4)])
            v2 = np.concatenate([[0.0, 1, 0], np.zeros(4)])
            v3 = fu.fueter_complete(v1, v2, S)
            g, _ = sp.graph_from_plane(sp.Plane(np.vstack([v1, v2, v3])), S)
            if np.linalg.norm(fu.chi_component_values(g)[3]) > 1e-10:
                continue
            frame = g.frame()
            chi_plus = np.linalg.norm(g2.chi(*frame, S.g2))
            chi_minus = np.linalg.norm(g2.chi(frame[1], frame[0], frame[2], S.g2))
            assert min(chi_plus, chi_minus) < 1e-9

    def test_rank2_associative_implies_fueter(self):
        # converse direction: a projectable associative plane containing a
        # horizontal vector solves the vertical equation
        rng = np.random.default_rng(18)
        hits = 0
        for _ in range(100):
            h = np.zeros(7)
            h[:3] = rng.standard_normal(3)
            h /= np.linalg.norm(h)
            v = rng.standard_normal(7)
            w = g2.cross(h, v, S.g2)
            try:
                g, _ = sp.graph_from_plane(sp.Plane(np.vstack([h, v, w])), S)
            except sp.NotProjectableError:
                continue
            hits += 1
            assert np.linalg.norm(fu.chi_component_values(g)[3]) < 1e-8
            assert np.linalg.norm(fu.fueter_vector(g)) < 1e-8
        assert hits > 50


class TestKVanishing:
    # the vanishing depth and its ladder identities, read off equality_ladder
    def test_generic_depth_zero(self):
        rng = np.random.default_rng(9)
        rep = sp.equality_ladder(sp.GraphPlane(rng.standard_normal((3, 4)), S))
        assert rep.vanishing_depth == 0

    def test_full_rank_fueter_depth_two(self):
        rng = np.random.default_rng(10)
        g = random_fueter_plane(rng)
        assert np.linalg.matrix_rank(g.T, tol=1e-8) == 3
        rep = sp.equality_ladder(g)
        assert rep.vanishing_depth == 2
        assert max(rep.ladder_residuals) < 1e-10

    def test_fueter_with_horizontal_vector_depth_three(self):
        rep = sp.equality_ladder(sp.GraphPlane(FUETER_T, S))
        assert rep.vanishing_depth == 3
        assert max(rep.ladder_residuals) < 1e-12


class TestLinearization:
    def test_rank_at_zero_and_fueter_points(self):
        assert fu.linearization_rank(sp.GraphPlane(np.zeros((3, 4)), S)) == 4
        assert fu.linearization_rank(sp.GraphPlane(FUETER_T, S)) == 4

    def test_solution_dimension_is_eight(self):
        M = fu.fueter_map_matrix(S)
        assert M.shape == (4, 12)
        assert 12 - np.linalg.matrix_rank(M) == 8

    def test_requires_fueter_input(self):
        T = np.zeros((3, 4))
        T[0, 0] = 1.0
        for bad in (T, np.full((3, 4), np.nan)):
            with pytest.raises(ValueError, match="not Fueter"):
                fu.linearization_rank(sp.GraphPlane(bad, S))

    def test_p_map_linearity(self):
        rng = np.random.default_rng(11)
        M = fu.fueter_map_matrix(S)
        for _ in range(20):
            a, b = rng.standard_normal(2)
            T1, T2 = rng.standard_normal((2, 3, 4))
            lhs = M @ (a * T1 + b * T2).reshape(12)
            rhs = a * (M @ T1.reshape(12)) + b * (M @ T2.reshape(12))
            assert np.abs(lhs - rhs).max() < 1e-12


class TestPolarSpaces:
    def test_low_dimensional_planes(self):
        rng = np.random.default_rng(12)
        for system in ("associative", "fueter"):
            line = sp.Plane(rng.standard_normal((1, 7)))
            assert fu.polar_space_dim(line, system, S) == 7

    def test_two_plane_dimensions(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            W = sp.Plane(rng.standard_normal((2, 7)))
            assert fu.polar_space_dim(W, "associative", S) == 3
            assert fu.polar_space_dim(W, "fueter", S) == 3

    def test_fueter_needs_projectable(self):
        W = sp.Plane(np.vstack([E[3], E[4]]))
        with pytest.raises(sp.NotProjectableError):
            fu.polar_space_dim(W, "fueter", S)
        assert fu.polar_space_dim(W, "associative", S) == 3

    def test_unsupported_sizes(self):
        with pytest.raises(ValueError):
            fu.polar_space_dim(sp.Plane(E[:3]), "associative", S)
        with pytest.raises(ValueError):
            fu.polar_space_dim(sp.Plane(E[:2]), "bogus", S)

    def test_constancy_counts(self):
        counts = fu.polar_dim_constancy("associative", 2, 40, seed=14)
        assert counts == {3: 40}
        counts = fu.polar_dim_constancy("fueter", 2, 40, seed=15)
        assert counts == {3: 40}
        counts = fu.polar_dim_constancy("associative", 1, 20, seed=16)
        assert counts == {7: 20}


class TestClosedFormsOnGeneralFrames:
    def test_chi2_closed_form(self):
        # chi_2(v) = -sum_i <F(pi), p_V(v_i)> p_H(v_i)
        rng = np.random.default_rng(19)
        for _ in range(50):
            g = sp.GraphPlane(rng.standard_normal((3, 4)), S)
            f = fu.fueter_vector(g)
            expected = np.zeros(7)
            for i in range(3):
                expected[i] = -float(f @ g.T[i])
            assert np.abs(fu.chi_component_values(g)[2] - expected).max() < 1e-12

    def test_chi3_closed_form(self):
        # chi_3(v) = sum_a mu(v1, v2, v3, eta_a) eta_a
        rng = np.random.default_rng(20)
        _, _, _, mu = S.form_parts()
        for _ in range(50):
            g = sp.GraphPlane(rng.standard_normal((3, 4)), S)
            frame = list(g.frame())
            expected = np.zeros(7)
            for a in range(4):
                eta = np.zeros(7)
                eta[3 + a] = 1.0
                expected[3 + a] = mu.apply(frame + [eta])
            assert np.abs(fu.chi_component_values(g)[3] - expected).max() < 1e-12

    def test_weighted_equality_on_arbitrary_bases(self):
        # alpha_0(v) alpha_2(v) + |chi_1(v)|^2 / 2 = volH(v)^2 ve_1 for any
        # basis of a projectable plane, not just the orthonormal one
        rng = np.random.default_rng(21)
        lam, omega, _, _ = S.form_parts()
        chi1_form = S.chi_f_parts[1]
        for _ in range(50):
            g = sp.GraphPlane(rng.standard_normal((3, 4)), S)
            B = rng.standard_normal((3, 3))
            if abs(np.linalg.det(B)) < 0.1:
                continue
            vecs = list(B @ g.frame())
            a0 = lam.apply(vecs)
            a2 = omega.apply(vecs)
            chi1 = chi1_form.apply(vecs)
            volH = np.linalg.det(B)  # volH(v) for the graph frame is 1
            ve1 = sp.ve_series(g, 1)[1]
            lhs = a0 * a2 + 0.5 * float(chi1 @ chi1)
            assert abs(lhs - volH ** 2 * ve1) < 1e-10 * max(1.0, abs(volH) ** 2)

    def test_wedge_parts_match_ve_convolution_general_frame(self):
        # |v_ell|^2 = volH(v)^2 sum_{i+j=ell} ve_i ve_j on arbitrary bases
        rng = np.random.default_rng(22)
        for _ in range(30):
            g = sp.GraphPlane(rng.standard_normal((3, 4)), S)
            B = rng.standard_normal((3, 3))
            if abs(np.linalg.det(B)) < 0.1:
                continue
            vecs = B @ g.frame()
            norms = sp._wedge3_vertical_norms(vecs)
            ve = sp.ve_series(g, 3)
            volH_sq = np.linalg.det(B) ** 2
            for ell in range(4):
                conv = sum(ve[i] * ve[ell - i] for i in range(ell + 1))
                scale = max(1.0, abs(volH_sq * conv))
                assert abs(norms[ell] - volH_sq * conv) < 1e-10 * scale


class TestScanRobustness:
    def test_anisotropic_inequality_at_extreme_scales(self):
        # omega(v) <= ve_1 = |T|^2 / 2 on the same 5000 sampled planes,
        # rescaled, with the scan's exclusion threshold and slack
        Ts = sp.PlaneSampler(1234).graph_planes(5000)
        for scale in (0.01, 1.0, 10.0):
            scaled = scale * Ts
            omega = sp._omega_values(sp._omega_blocks(S), scaled)
            ve1 = 0.5 * np.einsum("nia,nia->n", scaled, scaled)
            keep = ve1 >= sp.VE1_EXCLUSION
            assert np.all(omega[keep] / ve1[keep] <= 1.0 + sp.INEQUALITY_SLACK), scale

    def test_identity_residual_scales_with_plane(self):
        # at scale 10 the identity terms are O(1e4); check relative residual
        rng = np.random.default_rng(23)
        lam, omega, _, _ = S.form_parts()
        for _ in range(100):
            g = sp.GraphPlane(10.0 * rng.standard_normal((3, 4)), S)
            frame = list(g.frame())
            chi1 = fu.chi_component_values(g)[1]
            ve1 = sp.ve_series(g, 1)[1]
            lhs = omega.apply(frame) + 0.5 * float(chi1 @ chi1)
            assert abs(lhs - ve1) < 1e-10 * max(1.0, ve1)
