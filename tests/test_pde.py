import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2fueter import g2core as g2
from g2fueter import pde
from g2fueter import splitting as sp
from g2fueter import fueter as fu

J1, J2, J3 = pde._J


def finite_difference_jet1(u, x, h=1e-4):
    out = np.zeros((4, 3))
    for i in range(3):
        dp, dm = np.array(x, dtype=float), np.array(x, dtype=float)
        dp[i] += h
        dm[i] -= h
        out[:, i] = (u.eval(dp) - u.eval(dm)) / (2 * h)
    return out


class TestAnalyticMaps:
    def test_jets_match_finite_differences(self):
        # the anti-bug oracle: h = 1e-4 central differences, O(h^2) error;
        # the Fourier field is scaled so its third derivatives stay O(1)
        rng = np.random.default_rng(0)
        maps = [
            pde.random_polynomial_map(rng),
            0.02 * pde.random_fourier_field(rng, kmax=2),
            pde.NewtonianPotentialMap([1.0, -2.0, 0.5, 0.0]),
        ]
        for u in maps:
            x = rng.standard_normal(3) + np.array([2.0, 0, 0])  # away from origin
            assert np.abs(finite_difference_jet1(u, x) - u.jet1(x)).max() < 1e-6
            h = 1e-4
            for i in range(3):
                dp, dm = x.copy(), x.copy()
                dp[i] += h
                dm[i] -= h
                fd2 = (u.jet1(dp) - u.jet1(dm)) / (2 * h)
                assert np.abs(fd2 - u.jet2(x)[:, :, i]).max() < 1e-5

    def test_polynomial_jets_sized_by_the_point_dimension(self):
        # exponent quadruples give jets on R^4: u_4 = x1^2 x2 + 3 x3 x4^2, u_5 = 2 x4
        comps = [{(2, 1, 0, 0): 1.0, (0, 0, 1, 2): 3.0}, {(0, 0, 0, 1): 2.0}, {}, {}]
        u = pde.PolynomialMap(comps)
        x = np.random.default_rng(3).standard_normal((5, 4))
        x1, x2, x3, x4 = x.T
        grad = np.zeros((5, 4, 4))
        grad[:, 0] = np.stack([2 * x1 * x2, x1 ** 2, 3 * x4 ** 2, 6 * x3 * x4], axis=1)
        grad[:, 1, 3] = 2.0
        hess = np.zeros((5, 4, 4, 4))
        hess[:, 0, 0, 0] = 2 * x2
        hess[:, 0, 0, 1] = hess[:, 0, 1, 0] = 2 * x1
        hess[:, 0, 2, 3] = hess[:, 0, 3, 2] = 6 * x4
        hess[:, 0, 3, 3] = 6 * x3
        assert u.jet1(x).shape == (5, 4, 4) and u.jet2(x).shape == (5, 4, 4, 4)
        assert np.abs(u.jet1(x) - grad).max() < 1e-12
        assert np.abs(u.jet2(x) - hess).max() < 1e-12
        ambient = pde.AmbientPolynomialMap(comps)
        assert np.array_equal(ambient.jet1(x), u.jet1(x))
        assert np.array_equal(ambient.jet2(x), u.jet2(x))
        assert np.array_equal(u.jet1(x[0]), u.jet1(x)[0])

    def test_one_array_contract(self):
        # points (..., 3) in; (..., 4), (..., 4, 3), (..., 4, 3, 3) out,
        # so a (2, 5, 3) block gives the same jets as its (10, 3) rows
        rng = np.random.default_rng(8)
        poly = pde.random_polynomial_map(rng)
        fourier = 0.02 * pde.random_fourier_field(rng)
        newton = pde.NewtonianPotentialMap([1.0, -2.0, 0.5, 0.0])
        maps = [poly, fourier, newton, poly + fourier, pde.DMap(poly + newton)]
        x = rng.standard_normal((2, 5, 3)) + np.array([2.0, 0, 0])
        flat = x.reshape(10, 3)
        for u in maps:
            jets = [u.eval, u.jet1] + ([] if isinstance(u, pde.DMap) else [u.jet2])
            for jet in jets:
                block, rows = jet(x), jet(flat)
                assert block.shape == (2, 5) + rows.shape[1:]
                assert rows.shape[1:] == (4, 3, 3)[: rows.ndim - 1]
                assert np.allclose(block.reshape(rows.shape), rows, rtol=1e-14, atol=1e-14)
                assert np.allclose(jet(x[1, 2]), rows[7], rtol=1e-14, atol=1e-14)

    def test_periodicity_contract(self):
        sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
        A = np.asarray(sec.periodicity)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(3)
            n = rng.integers(-3, 4, size=3)
            assert np.abs(sec.eval(x + n) - sec.eval(x) - A @ n).max() < 1e-12

    def test_sum_and_scale_preserve_class(self):
        sec = pde.affine_fueter_section([1, 0, 0, 0], [0, 1, 0, 0])
        f = pde.random_fourier_field(np.random.default_rng(2))
        combo = sec + 0.5 * f
        assert np.array_equal(np.asarray(combo.periodicity), np.asarray(sec.periodicity))


def _reference_monomials(comp, x, d=()):
    """The per-monomial loop the table kernel replaced: the bit oracle."""
    out = np.zeros(x.shape[:-1])
    for powers, coeff in comp.items():
        p = list(powers)
        c = coeff
        for axis in d:
            if p[axis] == 0:
                break
            c *= p[axis]
            p[axis] -= 1
        else:
            term = np.full(x.shape[:-1], c)
            for axis in range(len(p)):
                if p[axis]:
                    term = term * x[..., axis] ** p[axis]
            out += term
    return out


def _reference_jets(u, x):
    n = x.shape[-1]
    value = np.stack([_reference_monomials(c, x) for c in u.components], axis=-1)
    d1 = np.empty(x.shape[:-1] + (4, n))
    d2 = np.empty(x.shape[:-1] + (4, n, n))
    for m, comp in enumerate(u.components):
        for i in range(n):
            d1[..., m, i] = _reference_monomials(comp, x, (i,))
            for j in range(i, n):
                d2[..., m, i, j] = d2[..., m, j, i] = _reference_monomials(comp, x, (i, j))
    return value, d1, d2


def _hexes(a):
    return [float(v).hex() for v in np.ravel(a)]


def _reference_fourier(waves, x):
    """The per-wave loops `FourierMap` evaluated before its stacked
    kernel: the bit oracle for eval, jet1 and jet2."""
    value = np.zeros(x.shape[:-1] + (4,))
    d1 = np.zeros(x.shape[:-1] + (4, 3))
    d2 = np.zeros(x.shape[:-1] + (4, 3, 3))
    for k, a, b in waves:
        k, a, b = (np.asarray(v, dtype=float) for v in (k, a, b))
        phase = 2.0 * np.pi * (x @ k)
        value += np.cos(phase)[..., None] * a + np.sin(phase)[..., None] * b
        dcos = -np.sin(phase)[..., None, None] * np.einsum("m,i->mi", a, 2.0 * np.pi * k)
        dsin = np.cos(phase)[..., None, None] * np.einsum("m,i->mi", b, 2.0 * np.pi * k)
        d1 += dcos + dsin
        kk = np.einsum("i,j->ij", 2.0 * np.pi * k, 2.0 * np.pi * k)
        d2 += -np.cos(phase)[..., None, None, None] * np.einsum("m,ij->mij", a, kk)
        d2 += -np.sin(phase)[..., None, None, None] * np.einsum("m,ij->mij", b, kk)
    return value, d1, d2


class TestPolynomialKernel:
    """PolynomialMap's compiled monomial table against the per-monomial loop."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 4]), st.sampled_from([(), (7,), (3, 2, 4)]),
           st.integers(-3, 3),
           st.lists(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]), max_size=4),
           st.integers(0, 2 ** 32 - 1))
    def test_bits_match_the_per_monomial_loop(self, n, shape, scale, specials, seed):
        rng = np.random.default_rng(seed)
        comps = []
        for _ in range(4):
            comp = {}
            for _ in range(rng.integers(0, 12)):
                powers = tuple(int(e) for e in rng.integers(0, 4, size=n))
                # integer and exactly-zero coefficients too
                comp[powers] = [rng.standard_normal(), 3, 0.0, -0.0][rng.integers(4)]
            comps.append(comp)
        u = (pde.PolynomialMap if n == 3 else pde.AmbientPolynomialMap)(comps)
        x = rng.standard_normal(shape + (n,)) * 10.0 ** scale
        x.flat[rng.integers(0, x.size, len(specials))] = specials
        with np.errstate(all="ignore"):
            got = (u.eval(x), u.jet1(x), u.jet2(x))
            want = _reference_jets(u, x)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert _hexes(g) == _hexes(w)
            # a strided view would change einsum's summation order downstream:
            # a moveaxis view of the jets changed `verify pde --profile strict
            # --seed 1`'s su2-dirac-squared residual in its last digits
            assert g.flags.c_contiguous

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.sampled_from([(), (5,), (2, 3)]), st.integers(0, 2 ** 32 - 1))
    def test_row_i_is_the_map_of_row_i_alone(self, F, shape, seed):
        # a map with F coefficient rows evaluates row i at the points x[i]
        rng = np.random.default_rng(seed)
        coefficients = rng.standard_normal((F, 80)) * (rng.random((F, 80)) < 0.8)
        x = rng.standard_normal((F,) + shape + (3,))
        rows = pde.cubic_polynomial_map(coefficients)
        for jet in ("eval", "jet1", "jet2"):
            got = getattr(rows, jet)(x)
            assert got.flags.c_contiguous
            for i in range(F):
                one = getattr(pde.cubic_polynomial_map(coefficients[i]), jet)(x[i])
                assert got[i].shape == one.shape and _hexes(got[i]) == _hexes(one)

    def test_maps_of_one_layout_share_a_read_only_table(self, monkeypatch):
        # random_polynomial_map always builds the same exponent layout: one
        # table per jet order for all of them, each map still its own bits
        compiles = []
        real = pde._monomial_table
        monkeypatch.setattr(pde, "_monomial_table",
                            lambda *args: compiles.append(args[1:]) or real(*args))
        pde._layout_table.cache_clear()
        rng = np.random.default_rng(6)
        maps = [pde.random_polynomial_map(rng) for _ in range(5)]
        x = rng.standard_normal((7, 3))
        for u in maps:
            for got, want in zip((u.eval(x), u.jet1(x), u.jet2(x)), _reference_jets(u, x)):
                assert _hexes(got) == _hexes(want)
        assert len(compiles) == 3
        for order in range(3):
            table = pde._layout_table(maps[0]._layout, order, 3)
            assert all(pde._layout_table(u._layout, order, 3) is table for u in maps)
            src, mults, axes = table
            assert not any(a.flags.writeable for a in (src, mults, *(e for _, e, _ in axes)))
        # another layout compiles its own table
        pde.PolynomialMap([{(1, 0, 0): 2.0}, {}, {}, {}]).jet1(x)
        assert len(compiles) == 4
        pde._layout_table.cache_clear()

    @pytest.mark.parametrize("powers", [(-1, 0, 0), (1.5, 0, 0), (1.0, 0, 0), "abc"])
    def test_rejects_non_natural_exponents(self, powers):
        with pytest.raises(ValueError, match="exponents"):
            pde.PolynomialMap([{powers: 1.0}, {}, {}, {}])

    def test_rejects_mixed_exponent_lengths(self):
        with pytest.raises(ValueError, match="one length"):
            pde.PolynomialMap([{(1, 0, 0): 1.0}, {(1, 0, 0, 0): 1.0}, {}, {}])

    @pytest.mark.parametrize("powers, point", [((1, 0, 0, 0), [2.0, 3.0, 4.0]),
                                               ((1, 0), [2.0, 3.0, 4.0]),
                                               ((1, 0, 0), 2.0)])
    def test_rejects_points_of_another_dimension(self, powers, point):
        u = pde.PolynomialMap([{powers: 1.0}, {}, {}, {}])
        for jet in (u.eval, u.jet1, u.jet2):
            with pytest.raises(ValueError, match="points"):
                jet(point)

    def test_numpy_integer_exponents_become_ints(self):
        # `solve su2` keys its monomials with rng.integers draws
        key = tuple(np.random.default_rng(0).integers(0, 2, size=4))
        u = pde.AmbientPolynomialMap([{key: 1.5}, {}, {}, {}])
        (powers,) = u.components[0]
        assert powers == key and all(type(e) is int for e in powers)

    def test_map_without_monomials_takes_any_dimension(self):
        u = pde.PolynomialMap([{}, {}, {}, {}])
        assert u.jet1(np.ones((2, 5))).shape == (2, 4, 5)
        assert not u.jet2(np.ones(3)).any()


class TestFourierKernel:
    """FourierMap's stacked wave table against the per-wave loops."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(), (7,), (2, 5)]), st.integers(1, 3), st.integers(-2, 2),
           st.integers(0, 2 ** 32 - 1))
    def test_bits_match_the_per_wave_loop(self, shape, kmax, scale, seed):
        rng = np.random.default_rng(seed)
        u = pde.random_fourier_field(rng, kmax)
        x = rng.standard_normal(shape + (3,)) * 10.0 ** scale
        for got, want in zip((u.eval(x), u.jet1(x), u.jet2(x)), _reference_fourier(u.waves, x)):
            assert got.shape == want.shape and got.flags.c_contiguous
            assert _hexes(got) == _hexes(want)

    def test_each_row_of_a_stack_is_its_field(self):
        # fields sharing wave vectors and repeating one within a field
        rng = np.random.default_rng(4)
        fields = [pde.random_fourier_field(rng, kmax=1).waves for _ in range(5)]
        fields[2][3] = (fields[2][0][0], *fields[2][3][1:])
        stack = pde.FourierMap(*fields)
        assert stack._table.slots.shape == (5, 6) and len(stack._table.vectors) < 30
        x = rng.standard_normal((9, 3))
        phases = stack._phases(stack._table.vectors, x)
        for order, want in enumerate(zip(*(_reference_fourier(f, x) for f in fields))):
            got = np.moveaxis(stack._wave_sum(*phases, order, slice(None)), -1, 1)
            assert _hexes(got) == _hexes(np.stack(want))
            rows = np.moveaxis(stack._wave_sum(*phases, order, slice(1, 4)), -1, 1)
            assert _hexes(rows) == _hexes(np.stack(want[1:4]))

    @pytest.mark.parametrize("shape", [(), (7,), (2, 5)])
    def test_no_waves_give_zeros(self, shape):
        u = pde.FourierMap([])
        x = np.ones(shape + (3,))
        for got, want in zip((u.eval(x), u.jet1(x), u.jet2(x)), _reference_fourier([], x)):
            assert got.shape == want.shape
            assert _hexes(got) == _hexes(want) == [(0.0).hex()] * want.size


class TestFlatOperator:
    def test_constant_map(self):
        u = pde.affine_map(np.zeros((4, 3)), b=[1.0, 2, 3, 4])
        assert np.abs(pde.fueter_operator_flat(u, np.zeros(3))).max() == 0.0

    def test_affine_solution_relation(self):
        rng = np.random.default_rng(3)
        a2, a3 = rng.standard_normal((2, 4))
        a1 = -J3 @ a2 + J2 @ a3
        u = pde.affine_map(np.column_stack([a1, a2, a3]))
        assert np.abs(pde.fueter_operator_flat(u, rng.standard_normal((10, 3)))).max() < 1e-15

    def test_polynomial_example(self):
        u = pde.PolynomialMap([{}, {(1, 0, 0): 2.0}, {(0, 1, 0): -2.0}, {}])
        assert np.abs(pde.fueter_operator_flat(u, np.array([0.3, 0.7, -0.2]))).max() == 0.0

    def test_d_squared_is_laplacian(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            F = pde.random_polynomial_map(rng)
            x = rng.standard_normal((10, 3))
            assert np.abs(pde.d_squared_residual(F, x)).max() < 1e-10

    def test_d_squared_concrete(self):
        F = pde.PolynomialMap([{(2, 0, 0): 1.0}, {}, {}, {}])
        x = np.array([0.1, 0.2, 0.3])
        dd = np.zeros(4)
        h = F.jet2(x)
        for i in range(3):
            for j in range(3):
                dd += (pde._J[j] @ pde._J[i]) @ h[:, i, j]
        assert np.allclose(dd, [-2.0, 0, 0, 0])


class TestHarmonicToFueter:
    def test_harmonic_examples(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            F = pde.random_harmonic_map(rng)
            u = pde.harmonic_to_fueter(F)
            pts = rng.standard_normal((1000, 3))
            assert np.abs(pde.fueter_operator_flat(u, pts)).max() < 1e-10

    def test_newtonian_potential(self):
        F = pde.NewtonianPotentialMap([0.0, 0, 1.0, 0])
        pts = np.random.default_rng(6).standard_normal((100, 3)) * 2
        pts = pts[np.linalg.norm(pts, axis=1) > 0.2]
        u = pde.harmonic_to_fueter(F)
        assert np.abs(pde.fueter_operator_flat(u, pts)).max() < 1e-10

    def test_concrete_construction(self):
        F = pde.PolynomialMap([{(2, 0, 0): 1.0, (0, 2, 0): -1.0}, {}, {}, {}])
        u = pde.harmonic_to_fueter(F)
        x = np.array([0.4, -0.7, 0.1])
        assert np.allclose(u.eval(x), [0.0, 2 * x[0], -2 * x[1], 0.0])

    def test_constant_gives_zero(self):
        F = pde.affine_map(np.zeros((4, 3)), b=[3.0, 1, 4, 1])
        u = pde.harmonic_to_fueter(F)
        assert np.abs(u.eval(np.zeros(3))).max() == 0.0

    def test_rejects_non_harmonic(self):
        for coeff in (1.0, np.nan):
            F = pde.PolynomialMap([{(2, 0, 0): coeff}, {}, {}, {}])
            with pytest.raises(pde.NotHarmonicError):
                pde.harmonic_to_fueter(F)


class TestSu2:
    def test_pinned_quaternion_frame(self):
        assert pde.su2_frame_commutator_check() == 0.0

    def test_constant_map(self):
        F = pde.AmbientPolynomialMap([{(0, 0, 0, 0): 2.0}, {}, {}, {}])
        hs = pde.random_su2_points(np.random.default_rng(7), 10)
        assert np.abs(pde.su2_fueter_operator(F, hs)).max() == 0.0
        assert np.abs(pde.su2_identity_residual(F, hs)).max() == 0.0

    def test_identity_on_polynomials(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            comps = []
            for _ in range(4):
                comp = {}
                for _ in range(4):
                    powers = tuple(rng.integers(0, 2, size=4))
                    comp[powers] = comp.get(powers, 0.0) + rng.standard_normal()
                comps.append(comp)
            F = pde.AmbientPolynomialMap(comps)
            hs = pde.random_su2_points(rng, 100)
            assert np.abs(pde.su2_identity_residual(F, hs)).max() < 1e-8

    def test_shifted_solution_from_harmonic(self):
        # the cot-distance potential is harmonic away from the poles
        Fc = pde.CotPotentialMap(p=[0.0, 0.6, 0.8, 0.0], v0=[1.0, 0, -1.0, 0.5])
        rng = np.random.default_rng(9)
        hs = pde.random_su2_points(rng, 300)
        hs = hs[np.abs(hs @ np.array([0.0, 0.6, 0.8, 0.0])) < 0.9]
        dd = Fc.dir2(hs)
        lap = dd[..., 0, 0] + dd[..., 1, 1] + dd[..., 2, 2]
        assert np.abs(lap).max() < 1e-8
        u = pde.ShiftedDiracMap(Fc)
        assert np.abs(pde.su2_fueter_operator(u, hs)).max() < 1e-8

    def test_domain_guard(self):
        Fc = pde.CotPotentialMap(p=[1.0, 0, 0, 0], v0=[1.0, 0, 0, 0])
        with pytest.raises(ValueError):
            Fc.eval(np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValueError, match="excluded"):
            Fc.eval(np.array([np.nan, 0, 0, 0]))

    def test_directional_jets_against_curve_differences(self):
        F = pde.AmbientPolynomialMap([
            {(2, 0, 0, 0): 1.0}, {(0, 1, 1, 0): 1.0}, {(0, 0, 0, 2): 1.0}, {(1, 0, 0, 1): 1.0},
        ])
        h = pde.random_su2_points(np.random.default_rng(10), 1)[0]
        eps = 1e-5
        d1 = F.dir1(h)
        for i, key in enumerate(("e1", "e2", "e3")):
            Fq = pde.SU2_FRAME_QUATERNIONS[key]
            hp = pde.quat_mul(h, np.array([np.cos(eps), *(np.sin(eps) * Fq[1:])]))
            hm = pde.quat_mul(h, np.array([np.cos(eps), *(-np.sin(eps) * Fq[1:])]))
            fd = (F.eval(hp) - F.eval(hm)) / (2 * eps)
            assert np.abs(fd - d1[:, i]).max() < 1e-6


def _exact_det3(M):
    """Determinant of a 3x3 matrix of Fractions, by the Leibniz sum."""
    return (M[0][0] * M[1][1] * M[2][2] + M[0][1] * M[1][2] * M[2][0]
            + M[0][2] * M[1][0] * M[2][1] - M[0][2] * M[1][1] * M[2][0]
            - M[0][0] * M[1][2] * M[2][1] - M[0][1] * M[1][0] * M[2][2])


class TestEnergies:
    def test_horizontal_slice(self):
        u = pde.affine_map(np.zeros((4, 3)), b=[0.25, 0.5, 0.75, 0.0])
        E = pde.immersion_energies(pde.ImmersionGrid(u, 6))
        assert E["VE"] == 0.0 and E["VolH"] == 1.0 and abs(E["Vol"] - 1.0) < 1e-14
        assert E["totalEnergy"] == 1.5

    def test_affine_section_energy(self):
        sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
        E = pde.immersion_energies(pde.ImmersionGrid(sec, 8))
        A = np.asarray(sec.periodicity, dtype=float)
        assert abs(E["VE"] - 0.5 * np.sum(A * A)) < 1e-12
        assert E["pointwiseIdentityResidual"] == 0.0
        assert E["Vol"] >= E["VolH"]

    def test_fueter_field_kills_ve2(self):
        sec = pde.affine_fueter_section([2, -1, 0, 1], [1, 1, -2, 0])
        E = pde.immersion_energies(pde.ImmersionGrid(sec, 6))
        assert abs(E["VE2"]) < 1e-12

    def test_ve_pointwise_matches_series(self):
        rng = np.random.default_rng(11)
        u = 0.3 * pde.random_fourier_field(rng, kmax=1)
        grid = pde.ImmersionGrid(u, 4)
        ve1, ve2, ve3, vol_density = pde._ve_pointwise(grid.jets)
        for n in range(0, grid.points.shape[0], 17):
            series = sp.ve_series(grid.jets[n].T[None], 3)[0]
            scale = max(1.0, float(np.abs(series).max()))
            assert abs(series[1] - ve1[n]) < 1e-12 * scale
            assert abs(series[2] - ve2[n]) < 1e-12 * scale
            assert abs(series[3] - ve3[n]) < 1e-12 * scale
            # the eigenvalue route: Vol density = prod sqrt(1 + lambda_i(G))
            lam = np.linalg.eigvalsh(grid.jets[n].T @ grid.jets[n])
            by_eigenvalues = float(np.prod(np.sqrt(1.0 + lam)))
            assert abs(vol_density[n] - by_eigenvalues) < 1e-13 * by_eigenvalues

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(st.integers(-60, 60), st.sampled_from([1, 2, 3, 5, 7, 8])),
        min_size=12 * n, max_size=12 * n)))
    def test_ve_pointwise_matches_exact_fractions(self, entries):
        # the kernel on rational jets against c1, c2, det G and det(I + G) in
        # exact arithmetic on the same floats; the error of ve_k and of
        # vol_density**2 is bounded by 1e-14 (1 + c1)^k, k = 1, 2, 3, 3
        jets = np.array([float(Fraction(a, b)) for a, b in entries]).reshape(-1, 4, 3)
        got = pde._ve_pointwise(jets)
        for n, jet in enumerate(jets):
            J = [[Fraction(x) for x in row] for row in jet]
            G = [[sum(J[m][i] * J[m][j] for m in range(4)) for j in range(3)]
                 for i in range(3)]
            c1 = G[0][0] + G[1][1] + G[2][2]
            c2 = sum(G[i][i] * G[j][j] - G[i][j] * G[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
            I_G = [[G[i][j] + (i == j) for j in range(3)] for i in range(3)]
            ve1 = c1 / 2
            ve2 = (c2 - ve1 ** 2) / 2
            ve3 = (_exact_det3(G) - 2 * ve1 * ve2) / 2
            for value, exact, k in ((got[0][n], ve1, 1), (got[1][n], ve2, 2),
                                    (got[2][n], ve3, 3), (got[3][n] ** 2, _exact_det3(I_G), 3)):
                assert abs(Fraction(float(value)) - exact) <= Fraction(1, 10 ** 14) * (1 + c1) ** k

    def test_ve_pointwise_calls_no_linalg(self, monkeypatch):
        # a fixed-order elementwise kernel: its floats must not depend on a
        # LAPACK routine or the BLAS kernel under it
        def raising(*args, **kwargs):
            raise AssertionError("_ve_pointwise called np.linalg")

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):  # LinAlgError stays
                monkeypatch.setattr(np.linalg, name, raising)
        vol_density = pde._ve_pointwise(np.random.default_rng(3).standard_normal((50, 4, 3)))[3]
        assert np.all(vol_density >= 1.0)

    def test_non_finite_energy_fails_the_guards(self):
        # the n = 4 torus grid contains the origin, where the potential's
        # jets are NaN; the identity guard must not let them through
        with np.errstate(divide="ignore", invalid="ignore"):
            grid = pde.ImmersionGrid(pde.NewtonianPotentialMap([1.0, 0, 0, 0]), 4)
            with pytest.raises(AssertionError, match="energy identity"):
                pde.immersion_energies(grid)

    def test_grid_reads_jets_only(self):
        sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])

        class JetsOnly(pde.AnalyticMap):
            def eval(self, x):
                raise AssertionError("a grid must not evaluate the map")

            def jet1(self, x):
                return sec.jet1(x)

        E = pde.immersion_energies(pde.ImmersionGrid(JetsOnly(), 6))
        assert E == pde.immersion_energies(pde.ImmersionGrid(sec, 6))

    def test_covering_degree(self):
        assert pde.covering_degree(2, 8) == 8
        assert pde.covering_degree(3, 9) == 27
        assert pde.covering_degree(1, 5) == 1
        with pytest.raises(ValueError):
            pde.covering_degree(2, 9)


class TestMinimization:
    def test_fueter_base_no_violations(self):
        sec = pde.affine_fueter_section([1, 0, 1, 0], [0, 1, 0, 1])
        rep = pde.minimization_experiment(sec, 40, 0.1, seed=42, grid_n=6)
        assert rep["veViolations"] == 0 and rep["totalViolations"] == 0
        assert rep["minGapVE"] >= 0.0
        assert rep["skipped"] == 0  # kept in the report schema

    def test_zero_amplitude_is_equality(self):
        sec = pde.affine_fueter_section([1, 0, 1, 0], [0, 1, 0, 1])
        rep = pde.minimization_experiment(sec, 5, 0.0, seed=1, grid_n=4)
        assert abs(rep["minGapVE"]) < 1e-14

    def test_non_solution_base_loses(self):
        # a non-affine base: subtracting its wobble strictly reduces VE
        wob = pde.random_fourier_field(np.random.default_rng(13), kmax=1)
        base = pde.affine_fueter_section([1, 0, 0, 0], [0, 0, 1, 0]) + 0.4 * wob
        rep = pde.minimization_experiment(
            base, 0, 0.1, seed=2, grid_n=6,
            extra_perturbations=[-0.2 * wob],
        )
        assert rep["veViolations"] >= 1

    def test_non_finite_competitor_fails(self):
        # a NaN competitor is an error, never a skipped sample
        sec = pde.affine_fueter_section([1, 0, 1, 0], [0, 1, 0, 1])
        nan = pde.PolynomialMap([{(1, 0, 0): np.nan}, {}, {}, {}])
        with np.errstate(invalid="ignore"), pytest.raises(AssertionError, match="energy identity"):
            pde.minimization_experiment(sec, 0, 0.1, seed=1, grid_n=4, extra_perturbations=[nan])


def _loop_minimization(base, n_samples, amplitude, seed, grid_n, extra_perturbations=()):
    """The per-competitor loop that the stacked experiment replaced, kept
    as its reference: each competitor is the map base + p on its own grid.
    Returns the report and every competitor's energies, in order."""
    rng = np.random.default_rng(seed)
    base_grid = pde.ImmersionGrid(base, grid_n)
    base_energy = pde.immersion_energies(base_grid)
    perturbations = list(extra_perturbations)
    for _ in range(n_samples):
        f = pde.random_fourier_field(rng)
        sup = np.abs(f.eval(base_grid.points)).max()
        perturbations.append((amplitude / sup) * f)
    energies, gaps_ve, gaps_total = [], [], []
    for p in perturbations:
        energy = pde.immersion_energies(pde.ImmersionGrid(base + p, grid_n))
        energies.append(energy)
        gaps_ve.append(energy["VE"] - base_energy["VE"])
        gaps_total.append((energy["VE"] + energy["VolH"])
                          - (base_energy["VE"] + base_energy["VolH"]))
    report = {
        "samples": len(perturbations),
        "skipped": 0,
        "veViolations": sum(g < -1e-12 for g in gaps_ve),
        "totalViolations": sum(g < -1e-12 for g in gaps_total),
        "minGapVE": float(min(gaps_ve, default=np.inf)),
        "minGapTotal": float(min(gaps_total, default=np.inf)),
        "baseVE": base_energy["VE"],
        "seed": seed,
        "amplitude": amplitude,
        "familyNote": "finite seeded homotopy family, not the full restricted class",
    }
    return report, energies


def _float_hexes(record):
    return {k: v.hex() if isinstance(v, float) else v for k, v in record.items()}


class _Spy(pde.AnalyticMap):
    """A map that records whether its jets were taken."""

    def __init__(self):
        self.calls = 0

    def jet1(self, x):
        self.calls += 1
        return np.zeros(np.shape(x)[:-1] + (4, 3))


class TestStackedCompetitors:
    BASE = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
    WOBBLE = pde.random_fourier_field(np.random.default_rng(13), kmax=1)

    @pytest.mark.parametrize("block", [None, 1000])
    @pytest.mark.parametrize("grid_n", [4, 6, 8])
    def test_bit_equal_to_the_loop(self, grid_n, block, monkeypatch):
        # blocks of the default size and of 1000 grid points: several
        # blocks with a partial last one, except one block at the default
        # size on the 4^3 grid
        if block:
            monkeypatch.setattr(pde, "_STACKED_POINTS", block)
        wobbles = [-0.2 * self.WOBBLE, 0.3 * self.WOBBLE]
        for seed, amplitude, extra in ((0, 0.01, ()), (5, 0.1, wobbles), (108, 0.5, ()),
                                       (1, 0.5, wobbles)):
            want, energies = _loop_minimization(self.BASE, 40, amplitude, seed, grid_n, extra)
            got = pde.minimization_experiment(self.BASE, 40, amplitude, seed, grid_n,
                                              extra_perturbations=extra)
            assert _float_hexes(got) == _float_hexes(want), (seed, amplitude)
            rng = np.random.default_rng(seed)
            fields = [pde.random_fourier_field(rng) for _ in range(40)]
            got = pde._fourier_competitor_energies(pde.ImmersionGrid(self.BASE, grid_n),
                                                   fields, amplitude)
            assert list(map(_float_hexes, got)) == list(map(_float_hexes, energies[len(extra):]))

    def test_phases_taken_once_for_the_stack(self, monkeypatch):
        # one phase call for all blocks, on the distinct wave vectors only
        calls = []
        real = pde.FourierMap._phases
        monkeypatch.setattr(pde.FourierMap, "_phases",
                            staticmethod(lambda k, x: calls.append(len(k)) or real(k, x)))
        monkeypatch.setattr(pde, "_STACKED_POINTS", 1000)
        rng = np.random.default_rng(3)
        fields = [pde.random_fourier_field(rng) for _ in range(40)]
        pde._fourier_competitor_energies(pde.ImmersionGrid(self.BASE, 8), fields, 0.1)
        distinct = {tuple(k) for f in fields for k, _, _ in f.waves}
        assert calls == [len(distinct)]

    def test_non_finite_competitor_raises_where_the_loop_does(self):
        nan = pde.PolynomialMap([{(1, 0, 0): np.nan}, {}, {}, {}])
        for run in (_loop_minimization, pde.minimization_experiment):
            spy = _Spy()
            with np.errstate(invalid="ignore"), \
                    pytest.raises(AssertionError, match="energy identity fails pointwise: nan"):
                run(self.BASE, 3, 0.1, 1, 4, extra_perturbations=[self.WOBBLE, nan, spy])
            assert spy.calls == 0  # no competitor after the first bad one is evaluated
            with np.errstate(invalid="ignore"), \
                    pytest.raises(AssertionError, match="energy identity fails pointwise: nan"):
                run(self.BASE, 3, np.nan, 1, 4, extra_perturbations=[self.WOBBLE, spy])
            assert spy.calls == 1


def translation_diffeo(shift):
    shift = np.asarray(shift, dtype=float)
    return pde.BaseDiffeo(
        lambda x: x + shift, lambda x: np.broadcast_to(np.eye(3), x.shape + (3,)).copy()
    )


class TestReparametrization:
    def test_identity_and_translation(self):
        sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
        assert pde.reparametrization_invariance(sec, translation_diffeo([0.3, 0.7, 0.1]), 8) < 1e-12

    def test_shear_residual_shrinks(self):
        u = (
            pde.affine_fueter_section([1, 0, 0, 1], [0, 1, 1, 0])
            + 0.3 * pde.random_fourier_field(np.random.default_rng(14), kmax=1)
        )
        shear = pde.shear_diffeo()
        coarse = pde.reparametrization_invariance(u, shear, 4)
        fine = pde.reparametrization_invariance(u, shear, 16)
        assert fine <= coarse + 1e-12
        assert fine < 1e-10


class TestActionFunctional:
    def setup_method(self):
        self.sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
        self.u0 = self.sec + pde.random_fourier_field(np.random.default_rng(15), kmax=1)

    def test_fueter_endpoint_critical(self):
        values = []
        for k in range(20):
            Z = pde.random_fourier_field(np.random.default_rng(200 + k), kmax=1)
            num, bnd = pde.cs_first_variation(self.u0, self.sec, Z, n=8)
            values += [abs(num), abs(bnd)]
        assert np.max(values) < 1e-6  # np.max keeps a NaN that max() would drop

    def test_variation_formula_agreement(self):
        bad = pde.affine_map(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]))
        u0 = bad + pde.random_fourier_field(np.random.default_rng(16), kmax=1)
        u1 = bad + 0.3 * pde.random_fourier_field(np.random.default_rng(17), kmax=1)
        Z = pde.random_fourier_field(np.random.default_rng(18), kmax=1)
        num, bnd = pde.cs_first_variation(u0, u1, Z, n=12)
        assert abs(num - bnd) < 1e-8

    def test_non_fueter_endpoint_detected(self):
        bad = pde.affine_map(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]))
        u0 = bad + pde.random_fourier_field(np.random.default_rng(19), kmax=1)
        Z = pde.adversarial_variation(bad)
        num, bnd = pde.cs_first_variation(u0, bad, Z, n=8)
        assert abs(num) >= 1e-3 and abs(bnd) >= 1e-3

    def test_zero_variation(self):
        num, bnd = pde.cs_first_variation(self.u0, self.sec, pde.FourierMap([]), n=4)
        assert num == 0.0 and bnd == 0.0

    def test_clearing_the_splitting_clears_theta(self, monkeypatch):
        # Theta's dense tensor derives from the splitting's cached parts, so
        # clearing that one cache must reach it: doubling the parts of
        # vertical degree 2 doubles Theta, and so the functional, exactly
        before = pde.cs_functional(self.u0, self.sec, n=4)
        real = sp._vertical_parts
        with monkeypatch.context() as m:
            m.setattr(sp, "_vertical_parts",
                      lambda a, cap: [2.0 * p if q == 2 else p for q, p in enumerate(real(a, cap))])
            sp.standard_splitting.cache_clear()
            doubled = pde.cs_functional(self.u0, self.sec, n=4)
        sp.standard_splitting.cache_clear()
        assert doubled == 2.0 * before

    def test_homotopy_class_guard(self):
        other = pde.affine_map(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            pde.cs_first_variation(other, self.sec, pde.FourierMap([]), n=4)


class _NoDenseEinsum:
    """numpy, except that einsum refuses a dense 7^k tensor (k >= 3)."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def einsum(subscripts, *operands, **kwargs):
        if any(np.ndim(op) >= 3 and set(np.shape(op)) == {7} for op in operands):
            raise AssertionError(f"dense einsum {subscripts!r}")
        return np.einsum(subscripts, *operands, **kwargs)


class TestSparseContractions:
    # criterion 10's endpoints and first variation field, at n = 8
    sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
    u0 = sec + pde.random_fourier_field(np.random.default_rng(110), kmax=1)
    Z = pde.random_fourier_field(np.random.default_rng(1100), kmax=1)
    bad = pde.affine_map(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]))

    def test_pinned_cs_functional(self):
        assert pde.cs_functional(self.u0, self.sec, n=8).hex() == "0x1.948812a527b9bp+6"

    def test_pinned_cs_first_variation(self):
        num, bnd = pde.cs_first_variation(self.u0, self.sec, self.Z, n=8)
        assert (num.hex(), bnd.hex()) == ("0x1.3880000000000p-33", "-0x1.8800000000000p-57")

    def test_pinned_adversarial_waves(self):
        waves = pde.adversarial_variation(self.bad).waves
        hexes = ",".join(float(c).hex() for _, a, b in waves for c in (*a, *b))
        assert len(waves) == 14
        assert hashlib.sha256(hexes.encode()).hexdigest() == (
            "90ddb9f85fa94e44810e7c1453b563a95d4dee2c3cb41f14a17a1d4b222c5b74")

    def test_no_dense_einsum(self, monkeypatch):
        monkeypatch.setattr(pde, "np", _NoDenseEinsum())
        monkeypatch.setattr(sp, "np", _NoDenseEinsum())
        pde.cs_functional(self.u0, self.sec, n=4)
        pde.cs_first_variation(self.u0, self.sec, self.Z, n=4)
        pde.adversarial_variation(self.bad)
        sp.semi_calibration_scan(g2.standard_g2().phi, np.eye(7),
                                 sp.PlaneSampler(0), 5, include_frames=[np.eye(7)[:3]])


class TestHeisenbergGraphs:
    def test_same_operator_as_flat(self):
        # graph sections of the nilmanifold quotient use the flat operator
        # verbatim; the splitting route agrees with it
        rng = np.random.default_rng(20)
        u = pde.random_polynomial_map(rng)
        J = fu.jtriple_from_splitting()
        for _ in range(20):
            x = rng.standard_normal(3)
            flat = pde.fueter_operator_flat(u, x)
            Ts = u.jet1(x).T[None]
            assert np.abs(fu.fueter_vector(Ts)[0] - flat).max() < 1e-12
            assert np.abs(fu.fueter_via_J(Ts, J)[0] - flat).max() == 0.0


class TestSu2LeftInvariance:
    def test_operator_commutes_with_left_translation(self):
        # (D (F o L_g))(h) = (D F)(g h): left translation is linear on the
        # ambient coordinates, so the composite is again an ambient map
        class LeftTranslated(pde.Su2AmbientMap):
            def __init__(self, F, gq):
                self.F = F
                a, b, c, d = gq
                # matrix of left multiplication by g on (1, i, j, k)
                self.L = np.array([
                    [a, -b, -c, -d],
                    [b, a, -d, c],
                    [c, d, a, -b],
                    [d, -c, b, a],
                ])

            def eval(self, h):
                return self.F.eval(h @ self.L.T)

            def jet1(self, h):
                return np.einsum("...mk,kl->...ml", self.F.jet1(h @ self.L.T), self.L)

            def jet2(self, h):
                d2 = self.F.jet2(h @ self.L.T)
                return np.einsum("...mkl,ka,lb->...mab", d2, self.L, self.L)

        rng = np.random.default_rng(30)
        F = pde.AmbientPolynomialMap([
            {(2, 0, 0, 0): 1.0, (0, 1, 0, 1): -0.5},
            {(1, 0, 1, 0): 2.0},
            {(0, 0, 0, 2): 1.0, (0, 2, 0, 0): 0.3},
            {(1, 1, 0, 0): -1.0},
        ])
        gq = pde.random_su2_points(rng, 1)[0]
        Fg = LeftTranslated(F, gq)
        hs = pde.random_su2_points(rng, 50)
        lhs = pde.su2_fueter_operator(Fg, hs)
        rhs = pde.su2_fueter_operator(F, pde.quat_mul(np.broadcast_to(gq, hs.shape), hs))
        assert np.abs(lhs - rhs).max() < 1e-12
