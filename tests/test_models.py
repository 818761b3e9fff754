import numpy as np
import pytest

from g2fueter import exterior as ex
from g2fueter import g2core as g2
from g2fueter import models as md

W1 = ex.form_from_terms(7, 2, [(1.0, (4, 5)), (1.0, (6, 7))])
W2 = ex.form_from_terms(7, 2, [(1.0, (4, 6)), (-1.0, (5, 7))])
W3 = ex.form_from_terms(7, 2, [(-1.0, (4, 7)), (-1.0, (5, 6))])


class TestCeDifferential:
    def test_su2_coframe(self):
        m = md.model_su2_semidirect()
        d = m.coframe_differentials()
        assert d[0].equals(-2.0 * ex.basis_form(7, (2, 3)), 0.0)
        assert d[1].equals(2.0 * ex.basis_form(7, (1, 3)), 0.0)  # -2 e^{31}
        assert d[2].equals(-2.0 * ex.basis_form(7, (1, 2)), 0.0)
        # de^4 = -(e16 - e27 - e35)
        expected = ex.form_from_terms(7, 2, [(-1.0, (1, 6)), (1.0, (2, 7)), (1.0, (3, 5))])
        assert d[3].equals(expected, 0.0)

    def test_heisenberg_structure_equation(self):
        rng = np.random.default_rng(0)
        B = rng.integers(-5, 6, size=(3, 3)).astype(float)
        m = md.model_heisenberg(B)
        d = m.coframe_differentials()
        for a in range(3, 7):
            assert d[a].is_zero(0.0)
        omegas = (W1, W2, W3)
        for i in range(3):
            expected = ex.zero_form(7, 2)
            for j in range(3):
                expected = expected + B[i, j] * omegas[j]
            assert d[i].equals(expected, 0.0)

    def test_d_squared_zero(self):
        for m in (md.model_product_flat(), md.model_su2_semidirect(),
                  md.model_heisenberg(np.diag([2, 4, -6]))):
            for k in range(1, 8):
                dd = md.ce_differential(md.ce_differential(ex.basis_form(7, (k,)), m), m)
                assert dd.is_zero(0.0)
            import itertools

            for idx in itertools.combinations(range(1, 8), 2):
                dd = md.ce_differential(md.ce_differential(ex.basis_form(7, idx), m), m)
                assert dd.is_zero(0.0)

    def test_leibniz(self):
        m = md.model_su2_semidirect()
        rng = np.random.default_rng(1)
        import itertools

        a = ex.Form(7, 2, {idx: rng.standard_normal() for idx in itertools.combinations(range(1, 8), 2)})
        b = ex.Form(7, 1, {(i,): rng.standard_normal() for i in range(1, 8)})
        lhs = md.ce_differential(ex.wedge(a, b), m)
        rhs = ex.wedge(md.ce_differential(a, m), b) + ex.wedge(a, md.ce_differential(b, m))
        assert lhs.equals(rhs, 1e-12)


class TestJacobi:
    def test_catalog_exact(self):
        assert md.jacobi_check(md.model_su2_semidirect().c) == 0.0
        rng = np.random.default_rng(2)
        for _ in range(10):
            B = 2 * rng.integers(-5, 6, size=(3, 3))
            assert md.jacobi_check(md.model_heisenberg(B).c) == 0.0

    def test_perturbed_fails(self):
        c = md.model_su2_semidirect().c.copy()
        c[0, 1, 2] = -2.0
        c[1, 0, 2] = 2.0
        assert md.jacobi_check(c) > 0.0
        with pytest.raises(ValueError):
            md.LieAlgebraModel(name="broken", c=c)


class TestSu2Model:
    def test_flags(self):
        m = md.model_su2_semidirect()
        fl = md.closedness_flags(m)
        closed = fl.closed()
        assert closed["dLambda"] and closed["dMu"] and closed["dTheta"] and closed["dStarPhi"]
        assert not closed["dOmega"] and not closed["dPhi"]

    def test_kaehler_triple_closed(self):
        m = md.model_su2_semidirect()
        for w in (W1, W2, W3):
            assert md.ce_differential(w, m).is_zero(0.0)

    def test_domega_display(self):
        m = md.model_su2_semidirect()
        _, omega, _, _ = m.forms()
        expected = (
            -2.0 * ex.wedge(ex.basis_form(7, (2, 3)), W1)
            + 2.0 * ex.wedge(ex.basis_form(7, (1, 3)), W2)
            - 2.0 * ex.wedge(ex.basis_form(7, (1, 2)), W3)
        )
        assert md.ce_differential(omega, m).equals(expected, 0.0)


class TestHeisenbergModel:
    def test_symbolic_identities_over_basis(self):
        mats = []
        for k in range(9):
            B = np.zeros((3, 3))
            B[k // 3, k % 3] = 2.0
            mats.append(B)
        rng = np.random.default_rng(3)
        mats += [2.0 * rng.integers(-4, 5, size=(3, 3)) for _ in range(10)]
        for B in mats:
            m = md.model_heisenberg(B)
            lam, omega, theta, mu = m.forms()
            assert (md.ce_differential(omega, m) - 2.0 * np.trace(B) * mu).is_zero(0.0)
            v = 2.0 * np.array([B[2, 1] - B[1, 2], B[0, 2] - B[2, 0], B[1, 0] - B[0, 1]])
            expected = ex.zero_form(7, 5)
            for i in range(3):
                expected = expected + v[i] * ex.wedge(ex.basis_form(7, (i + 1,)), mu)
            assert (md.ce_differential(theta, m) - expected).is_zero(0.0)
            assert md.ce_differential(mu, m).is_zero(0.0)

    def test_flag_equivalences(self):
        sym = md.model_heisenberg(np.diag([2.0, 2.0, -4.0]))
        closed = md.closedness_flags(sym).closed()
        assert closed["dOmega"] and closed["dTheta"] and closed["dMu"]
        assert not closed["dLambda"] and not closed["dPhi"]

        trace_free_family = [np.diag([2 * n, 2, -2 * n - 2]) for n in range(1, 4)]
        for B in trace_free_family:
            assert md.closedness_flags(md.model_heisenberg(B)).closed()["dOmega"]

        asym = md.model_heisenberg(np.array([[0, 2, 0], [0, 0, 2], [2, 0, 0]]))
        closed = md.closedness_flags(asym).closed()
        assert closed["dOmega"] and not closed["dTheta"] and not closed["dStarPhi"]

        zero = md.model_heisenberg(np.zeros((3, 3)))
        assert all(md.closedness_flags(zero).closed().values())

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_flags_at_extreme_scales(self, scale):
        # the differentials scale linearly with B; their norms must not
        # underflow to "closed" or overflow to inf
        unit = md.closedness_flags(md.model_heisenberg(np.eye(3)))
        scaled = md.closedness_flags(md.model_heisenberg(scale * np.eye(3)))
        assert scaled.closed() == unit.closed()
        assert not scaled.closed()["dLambda"] and not scaled.closed()["dOmega"]
        assert scaled.d_omega == pytest.approx(scale * unit.d_omega, rel=1e-14)
        assert scaled.d_phi == pytest.approx(scale * unit.d_phi, rel=1e-14)

    def test_dphi_iff_dlambda_and_domega(self):
        # dLambda lands in (2,2), dOmega in (0,4): no cancellation possible
        for B in (np.diag([2.0, 0, -2.0]), np.diag([2.0, 2.0, 2.0]), np.zeros((3, 3))):
            m = md.model_heisenberg(B)
            fl = md.closedness_flags(m).closed()
            assert fl["dPhi"] == (fl["dLambda"] and fl["dOmega"])

    def test_vertical_nonintegrability(self):
        assert md.vertical_nonintegrability_pairs(md.model_heisenberg(np.diag([2, 2, -4])))
        assert not md.vertical_nonintegrability_pairs(md.model_product_flat())
        assert not md.vertical_nonintegrability_pairs(md.model_su2_semidirect())


class TestProductFlat:
    def test_everything_closed(self):
        m = md.model_product_flat()
        assert max(md.closedness_flags(m).as_dict().values()) == 0.0

    def test_omega_layout_vs_hyperkaehler_forms(self):
        # omega = e1 ^ w1 + e2 ^ w2 - e3 ^ w3_HK for the standard Kaehler
        # triple w3_HK = eta47 + eta56
        m = md.model_product_flat()
        _, omega, _, _ = m.forms()
        w3_hk = ex.form_from_terms(7, 2, [(1.0, (4, 7)), (1.0, (5, 6))])
        expected = (
            ex.wedge(ex.basis_form(7, (1,)), W1)
            + ex.wedge(ex.basis_form(7, (2,)), W2)
            - ex.wedge(ex.basis_form(7, (3,)), w3_hk)
        )
        assert omega.equals(expected, 0.0)


class TestTypeSplit:
    def test_bidegrees_and_sum(self):
        m = md.model_su2_semidirect()
        rng = np.random.default_rng(4)
        import itertools

        for degree in (1, 2, 3):
            a = ex.Form(7, degree, {idx: rng.standard_normal()
                                    for idx in itertools.combinations(range(1, 8), degree)})
            split = md.derivative_type_split(a, m)
            total = split["FH"] + split["dH"] + split["dV"] + split["FV"]
            assert total.equals(md.ce_differential(a, m), 1e-12)

    def test_heisenberg_dlambda_is_pure_fv(self):
        m = md.model_heisenberg(np.diag([2, 2, -4]))
        split = md.derivative_type_split(m.forms()[0], m)
        assert split["FV"].norm() > 0.0
        assert split["FH"].norm() == split["dH"].norm() == split["dV"].norm() == 0.0
        # and the (2,2) target type
        for idx in split["FV"].coeffs:
            assert sum(1 for i in idx if i >= 4) == 2

    def test_su2_theta_coclosed_system(self):
        m = md.model_su2_semidirect()
        split = md.derivative_type_split(m.forms()[2], m)
        assert all(p.norm() == 0.0 for p in split.values())

    def test_abelian_all_zero(self):
        m = md.model_product_flat()
        split = md.derivative_type_split(g2.standard_g2().phi, m)
        assert all(p.norm() == 0.0 for p in split.values())

    def test_fv_lambda_iff_v_involutive(self):
        for m in (md.model_product_flat(), md.model_su2_semidirect()):
            split = md.derivative_type_split(m.forms()[0], m)
            assert split["FV"].norm() == 0.0
            assert not md.vertical_nonintegrability_pairs(m)
        m = md.model_heisenberg(np.diag([2, 0, 0]))
        assert md.derivative_type_split(m.forms()[0], m)["FV"].norm() > 0.0
        assert md.vertical_nonintegrability_pairs(m)


class TestSmithNormalForm:
    def test_unimodular_congruence(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            B = rng.integers(-9, 10, size=(3, 3))
            U, D, V = md.smith_normal_form(B)
            Ui = np.array(U.tolist(), dtype=object)
            Vi = np.array(V.tolist(), dtype=object)
            assert np.array_equal(Ui @ B @ Vi, np.array(D.tolist(), dtype=object))
            assert round(abs(np.linalg.det(Ui.astype(float)))) == 1
            assert round(abs(np.linalg.det(Vi.astype(float)))) == 1
            d = [D[i, i] for i in range(3)]
            assert all(x >= 0 for x in d)
            for i in range(2):
                if d[i]:
                    assert d[i + 1] % d[i] == 0

    def test_known_form(self):
        _, D, _ = md.smith_normal_form(np.diag([2, 2, -4]))
        assert [D[i, i] for i in range(3)] == [2, 2, 4]

    def test_large_entries_stay_exact(self):
        B = [[2 ** 40, 2, 0], [0, 2 ** 30, 2], [2, 0, 2 ** 20]]
        U, D, V = md.smith_normal_form(B)
        Ui = np.array(U.tolist(), dtype=object)
        Vi = np.array(V.tolist(), dtype=object)
        assert np.array_equal(Ui @ np.array(B, dtype=object) @ Vi,
                              np.array(D.tolist(), dtype=object))


class TestHomology:
    def test_diagonal_family(self):
        for n in range(1, 11):
            h = md.h1_nilmanifold(np.diag([2 * n, 2, -2 * n - 2]))
            assert h.free_rank == 4
            assert h.torsion_order == 8 * n * (n + 1)

    def test_rank_jump_family(self):
        for n in (1, 2, 5):
            h = md.h1_nilmanifold(np.diag([2 * n, 0, 0]))
            assert h.free_rank == 6
            assert h.torsion_factors == (2 * n,)

    def test_zero_matrix(self):
        h = md.h1_nilmanifold(np.zeros((3, 3)))
        assert h.free_rank == 7 and not h.torsion_factors
        assert str(h) == "Z^7"

    def test_odd_entries_rejected(self):
        with pytest.raises(ValueError):
            md.h1_nilmanifold(np.diag([1, 2, 2]))
        with pytest.raises(ValueError):
            md.h1_nilmanifold(np.diag([2.5, 2, 2]))
        with pytest.raises(ValueError):
            md.h1_nilmanifold(np.diag([np.nan, 2, 2]))

    def test_even_entries_beyond_int64_are_exact(self):
        h = md.h1_nilmanifold(np.diag([1e20, 2.0, 2.0]))
        assert h.torsion_factors == (2, 2, 10 ** 20)
        assert h.torsion_order == 4 * 10 ** 20


class TestCatalog:
    def test_by_name(self):
        assert md.model_by_name("product-flat").name == "product-flat"
        assert md.model_by_name("su2-semidirect").name == "su2-semidirect"
        with pytest.raises(ValueError):
            md.model_by_name("nope")
        with pytest.raises(ValueError):
            md.model_by_name("heisenberg")

    def test_antisymmetry_enforced(self):
        c = np.zeros((7, 7, 7))
        c[0, 1, 2] = 1.0  # missing the antisymmetric partner
        with pytest.raises(ValueError):
            md.LieAlgebraModel(name="bad", c=c)
