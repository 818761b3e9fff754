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


def completed_graph(v1, v2):
    """The graph map (1, 3, 4) of the Fueter plane through v1 and v2."""
    V3, _ = fu.fueter_complete([v1], [v2])
    return sp.graph_from_planes(np.stack([v1, v2, V3[0]])[None])[0]


def random_fueter_plane(rng):
    v1 = np.concatenate([[1.0, 0, 0], rng.standard_normal(4)])
    v2 = np.concatenate([[0.0, 1, 0], rng.standard_normal(4)])
    return completed_graph(v1, v2)


class TestJTriple:
    def test_standard_matches_derived(self):
        a = fu.standard_jtriple().as_tuple()
        b = fu.jtriple_from_splitting().as_tuple()
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
        assert np.abs(fu.fueter_vector(np.zeros((1, 3, 4)))).max() == 0.0

    def test_single_entry_gives_eta5(self):
        T = np.zeros((3, 4))
        T[0, 0] = 1.0  # v14 = 1: e1 x eta4 = eta5
        assert np.array_equal(fu.fueter_vector(T[None]), [[0.0, 1.0, 0.0, 0.0]])

    def test_cancellation_example(self):
        assert np.abs(fu.fueter_vector(FUETER_T[None])).max() == 0.0

    def test_coordinate_formula(self):
        Ts = np.random.default_rng(0).standard_normal((50, 3, 4))
        J = fu.jtriple_from_splitting()
        for v, f, fJ in zip(Ts, fu.fueter_vector(Ts), fu.fueter_via_J(Ts, J)):
            expected = np.array([
                -v[0, 1] - v[1, 2] + v[2, 3],
                v[0, 0] + v[1, 3] + v[2, 2],
                -v[0, 3] + v[1, 0] - v[2, 1],
                v[0, 2] - v[1, 1] - v[2, 0],
            ])
            assert np.abs(f - expected).max() < 1e-14
            assert np.abs(fJ - expected).max() < 1e-14

    def test_route_equivalence(self):
        Ts = np.random.default_rng(1).standard_normal((200, 3, 4))
        J = fu.jtriple_from_splitting()
        routes = fu.fueter_vector(Ts), fu.fueter_via_J(Ts, J), fu.chi_component_values(Ts)[1]
        for f1, f2, chi1 in zip(*routes):
            assert np.abs(f1 - f2).max() < 1e-12
            assert np.abs(f1 - chi1[3:]).max() < 1e-10
            assert np.abs(chi1[:3]).max() < 1e-14


class TestCompletions:
    def test_trivial_pair(self):
        assert np.allclose(fu.fueter_complete([E[0]], [E[1]])[0], [E[2]])

    def test_tilted_pair(self):
        V3, _ = fu.fueter_complete([E[0] + E[3]], [E[1]])
        assert np.allclose(V3, [E[2] - E[5]])  # e3 - eta6

    def test_random_pairs_unique_and_fueter(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v1 = np.concatenate([[1.0, 0, 0], rng.standard_normal(4)])
            v2 = np.concatenate([[0.0, 1, 0], rng.standard_normal(4)])
            (v3,), (cond,) = fu.fueter_complete([v1], [v2])
            Ts, _ = sp.graph_from_planes(np.stack([v1, v2, v3])[None])
            assert np.linalg.norm(fu.fueter_vector(Ts)) < 1e-12
            assert abs(cond - 1.0) < 1e-12  # J(h3) is orthogonal

    def test_rotated_horizontal_pair(self):
        c, s = np.cos(0.7), np.sin(0.7)
        v1 = c * E[0] + s * E[1] + 0.4 * E[4]
        v2 = -s * E[0] + c * E[1] - 0.2 * E[6]
        assert np.linalg.norm(fu.fueter_vector(completed_graph(v1, v2))) < 1e-12

    def test_precondition(self):
        with pytest.raises(ValueError):
            fu.fueter_complete([2.0 * E[0]], [E[1]])

    def test_non_finite_pair_rejected(self):
        for bad in (np.nan, np.inf):
            v1 = np.array([1.0, 0, 0, bad, 0, 0, 0])
            with pytest.raises(ValueError, match="finite"):
                fu.fueter_complete([v1], [E[1]])
            with pytest.raises(ValueError, match="finite"):
                fu.fueter_complete([E[0]], [v1[[1, 0, 2, 3, 4, 5, 6]]])


class TestConditionReport:
    def test_fueter_plane_all_six_vanish(self):
        [rep] = fu.condition_residuals(FUETER_T[None])
        assert all(abs(r) <= 1e-12 for r in rep.residuals())

    def test_single_entry_plane_values(self):
        T = np.zeros((3, 4))
        T[0, 0] = 1.0
        [rep] = fu.condition_residuals(T[None])
        assert rep.fueter_norm == 1.0
        assert rep.chi1_norm == 1.0
        assert abs(rep.anisotropic_gap - 0.5) < 1e-14

    def test_horizontal_plane_trivially_fueter(self):
        [rep] = fu.condition_residuals(np.zeros((1, 3, 4)))
        assert max(rep.residuals()) == 0.0

    def test_covanishing_statistics(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            [completed, generic] = fu.condition_residuals(
                np.concatenate([random_fueter_plane(rng), rng.standard_normal((1, 3, 4))]))
            assert completed.all_below() and generic.none_below()

    def test_json_serialization(self):
        import json

        # the program serializes as_dict() inside its report
        [rep] = fu.condition_residuals(FUETER_T[None])
        payload = json.loads(json.dumps(rep.as_dict(), sort_keys=True))
        assert set(payload) == {
            "anisotropicGap", "fueterNorm", "chi1Norm", "thetaContractionNorm",
            "betaWedgeStarPhiNorm", "betaWedgeThetaNorm", "T",
        }


class TestChiViaBeta:
    def test_zero_plane(self):
        chis = fu.chi_via_beta(np.zeros((1, 3, 4)))
        assert all(chi._sample(0).is_zero(0.0) for chi in chis)

    def test_single_entry_matches_fueter_vector(self):
        T = np.zeros((3, 4))
        T[0, 0] = 1.0
        chi1, _, _ = fu.chi_via_beta(T[None])
        expected = ex.basis_form(7, (5,))  # eta5 flat
        assert chi1._sample(0).equals(expected, 1e-14)

    def test_all_three_match_direct_contraction(self):
        Ts = np.random.default_rng(5).standard_normal((100, 3, 4))
        chis = fu.chi_component_values(Ts)

        def rows(form):  # the (n, 7) coefficient rows of a stacked 1-form
            return np.stack([form.coeffs.get((i,), np.zeros(len(Ts))) for i in range(1, 8)], 1)

        for k, form in zip((1, 2, 3), fu.chi_via_beta(Ts)):
            assert np.abs(rows(form) - chis[k]).max() < 1e-10
        assert np.abs(rows(fu.chi1_via_projection(Ts)) - chis[1]).max() < 1e-10

    def test_chi1_alone_is_the_first_component(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            Ts = rng.standard_normal((1, 3, 4))
            chi1 = fu.chi_via_beta(Ts)[0]
            assert fu.chi1_via_beta(Ts)._sample(0).coeffs == chi1._sample(0).coeffs

    def test_beta_cubed_oracle(self):
        # beta^3 / 6 = -e123 ^ (Te1)flat ^ (Te2)flat ^ (Te3)flat
        rng = np.random.default_rng(6)
        T = rng.standard_normal((3, 4))
        beta = sp.beta_of(T[None])._sample(0)
        lhs = (1.0 / 6.0) * ex.wedge(ex.wedge(beta, beta), beta)
        flats = [
            ex.Form(7, 1, {(a + 4,): T[i, a] for a in range(4)}) for i in range(3)
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
            full = rng.standard_normal((3, 4))
            chi3 = fu.chi_component_values(np.stack([T, full]))[3]
            assert np.linalg.norm(chi3[0]) < 1e-13
            if np.linalg.matrix_rank(full, tol=1e-6) == 3:
                assert np.linalg.norm(chi3[1]) > 1e-8

    def test_rank2_fueter_implies_associative(self):
        # on chi_3 = 0 planes the vertical equation picks out associative
        # planes up to orientation
        rng = np.random.default_rng(8)
        for _ in range(50):
            v1 = np.concatenate([[1.0, 0, 0], rng.standard_normal(4)])
            v2 = np.concatenate([[0.0, 1, 0], np.zeros(4)])
            Ts = completed_graph(v1, v2)
            if np.linalg.norm(fu.chi_component_values(Ts)[3]) > 1e-10:
                continue
            frame = sp.graph_frames(Ts)
            chi_plus = np.linalg.norm(g2.chi(frame))
            chi_minus = np.linalg.norm(g2.chi(frame[:, [1, 0, 2]]))
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
            w = g2.cross(h, v)
            try:
                Ts, _ = sp.graph_from_planes(np.stack([h, v, w])[None])
            except sp.NotProjectableError:
                continue
            hits += 1
            assert np.linalg.norm(fu.chi_component_values(Ts)[3]) < 1e-8
            assert np.linalg.norm(fu.fueter_vector(Ts)) < 1e-8
        assert hits > 50


class TestKVanishing:
    # the vanishing depth and its ladder identities, read off equality_ladder
    def test_generic_depth_zero(self):
        rng = np.random.default_rng(9)
        [rep] = sp.equality_ladder(rng.standard_normal((1, 3, 4)))
        assert rep.vanishing_depth == 0

    def test_full_rank_fueter_depth_two(self):
        rng = np.random.default_rng(10)
        Ts = random_fueter_plane(rng)
        assert np.linalg.matrix_rank(Ts[0], tol=1e-8) == 3
        [rep] = sp.equality_ladder(Ts)
        assert rep.vanishing_depth == 2
        assert max(rep.ladder_residuals) < 1e-10

    def test_fueter_with_horizontal_vector_depth_three(self):
        [rep] = sp.equality_ladder(FUETER_T[None])
        assert rep.vanishing_depth == 3
        assert max(rep.ladder_residuals) < 1e-12


class TestLinearization:
    def test_rank_at_zero_and_fueter_points(self):
        assert fu.linearization_rank(sp.GraphPlane(np.zeros((3, 4)))) == 4
        assert fu.linearization_rank(sp.GraphPlane(FUETER_T)) == 4

    def test_solution_dimension_is_eight(self):
        M = fu.fueter_map_matrix()
        assert M.shape == (4, 12)
        assert 12 - np.linalg.matrix_rank(M) == 8

    def test_requires_fueter_input(self):
        T = np.zeros((3, 4))
        T[0, 0] = 1.0
        for bad in (T, np.full((3, 4), np.nan)):
            with pytest.raises(ValueError, match="not Fueter"):
                fu.linearization_rank(sp.GraphPlane(bad))

    def test_p_map_linearity(self):
        rng = np.random.default_rng(11)
        M = fu.fueter_map_matrix()
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
            assert fu.polar_space_dim(line, system) == 7

    def test_two_plane_dimensions(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            W = sp.Plane(rng.standard_normal((2, 7)))
            assert fu.polar_space_dim(W, "associative") == 3
            assert fu.polar_space_dim(W, "fueter") == 3

    def test_fueter_needs_projectable(self):
        W = sp.Plane(np.vstack([E[3], E[4]]))
        with pytest.raises(sp.NotProjectableError):
            fu.polar_space_dim(W, "fueter")
        assert fu.polar_space_dim(W, "associative") == 3

    def test_unsupported_sizes(self):
        with pytest.raises(ValueError):
            fu.polar_space_dim(sp.Plane(E[:3]), "associative")
        with pytest.raises(ValueError):
            fu.polar_space_dim(sp.Plane(E[:2]), "bogus")

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
        Ts = np.random.default_rng(19).standard_normal((50, 3, 4))
        for T, f, chi2 in zip(Ts, fu.fueter_vector(Ts), fu.chi_component_values(Ts)[2]):
            expected = np.zeros(7)
            for i in range(3):
                expected[i] = -float(f @ T[i])
            assert np.abs(chi2 - expected).max() < 1e-12

    def test_chi3_closed_form(self):
        # chi_3(v) = sum_a mu(v1, v2, v3, eta_a) eta_a
        Ts = np.random.default_rng(20).standard_normal((50, 3, 4))
        _, _, _, mu = S.form_parts()
        for frame, chi3 in zip(sp.graph_frames(Ts), fu.chi_component_values(Ts)[3]):
            expected = np.zeros(7)
            for a in range(4):
                expected[3 + a] = mu.apply(np.vstack([frame, E[3 + a]])[None])[0]
            assert np.abs(chi3 - expected).max() < 1e-12

    def test_weighted_equality_on_arbitrary_bases(self):
        # alpha_0(v) alpha_2(v) + |chi_1(v)|^2 / 2 = volH(v)^2 ve_1 for any
        # basis of a projectable plane, not just the orthonormal one
        rng = np.random.default_rng(21)
        lam, omega, _, _ = S.form_parts()
        chi1_form = S.chi_f_parts[1]
        for _ in range(50):
            Ts = rng.standard_normal((1, 3, 4))
            B = rng.standard_normal((3, 3))
            if abs(np.linalg.det(B)) < 0.1:
                continue
            vecs = B @ sp.graph_frames(Ts)
            a0 = lam.apply(vecs)[0]
            a2 = omega.apply(vecs)[0]
            chi1 = chi1_form.apply(vecs)[0]
            volH = np.linalg.det(B)  # volH(v) for the graph frame is 1
            ve1 = sp.ve_series(Ts, 1)[0, 1]
            lhs = a0 * a2 + 0.5 * float(chi1 @ chi1)
            assert abs(lhs - volH ** 2 * ve1) < 1e-10 * max(1.0, abs(volH) ** 2)

    def test_wedge_parts_match_ve_convolution_general_frame(self):
        # |v_ell|^2 = volH(v)^2 sum_{i+j=ell} ve_i ve_j on arbitrary bases
        rng = np.random.default_rng(22)
        for _ in range(30):
            Ts = rng.standard_normal((1, 3, 4))
            B = rng.standard_normal((3, 3))
            if abs(np.linalg.det(B)) < 0.1:
                continue
            vecs = B @ sp.graph_frames(Ts)[0]
            norms = sp._wedge3_vertical_norms(vecs)
            ve = sp.ve_series(Ts, 3)[0]
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
            omega = sp._omega_values(sp._omega_blocks(), scaled)
            ve1 = 0.5 * np.einsum("nia,nia->n", scaled, scaled)
            keep = ve1 >= sp.VE1_EXCLUSION
            assert np.all(omega[keep] / ve1[keep] <= 1.0 + sp.INEQUALITY_SLACK), scale

    def test_identity_residual_scales_with_plane(self):
        # at scale 10 the identity terms are O(1e4); check relative residual
        Ts = 10.0 * np.random.default_rng(23).standard_normal((100, 3, 4))
        lam, omega, _, _ = S.form_parts()
        values = (omega.apply(sp.graph_frames(Ts)), fu.chi_component_values(Ts)[1],
                  sp.ve_series(Ts, 1)[:, 1])
        for omega_v, chi1, ve1 in zip(*values):
            lhs = omega_v + 0.5 * float(chi1 @ chi1)
            assert abs(lhs - ve1) < 1e-10 * max(1.0, ve1)
