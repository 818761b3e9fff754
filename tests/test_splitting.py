import dataclasses
import hashlib
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from g2fueter import exterior as ex
from g2fueter import g2core as g2
from g2fueter import splitting as sp

from test_blockwise import _child, _degenerate, _EditedStreams, _pooled

S = sp.standard_splitting()
G = g2.standard_g2()
E = np.eye(7)

FUETER_T = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, -1.0, 0.0],
])  # frame e1+eta4, e2, e3-eta6


def unit_row_T():
    T = np.zeros((3, 4))
    T[0, 0] = 1.0
    return T


class TestSplittingConstruction:
    def test_one_field_and_no_frame_layer(self):
        # no field: the ambient structure is the one of g2.standard_g2()
        assert dataclasses.fields(sp.Splitting) == ()
        S2 = sp.Splitting()
        for args, kwargs in (((E[:3], E[3:]), {}), ((), {"g2": G})):
            with pytest.raises(TypeError):
                sp.Splitting(*args, **kwargs)
        for name in ("h_frame", "v_frame", "frame_matrix", "frame_coords", "to_frame",
                     "from_frame", "_is_standard", "frame_g2"):
            assert not hasattr(sp.Splitting, name) and not hasattr(S2, name)

    def test_identity_equality_and_hash(self):
        # one standard splitting per process, built once
        assert sp.standard_splitting() is sp.standard_splitting()
        S2 = sp.Splitting()
        g = sp.GraphPlane(FUETER_T)
        table = {S2: "splitting", g: "plane"}
        assert table[S2] == "splitting" and table[g] == "plane"
        assert S2 == S2 and g == g
        assert S2 != sp.standard_splitting()
        assert g != sp.GraphPlane(FUETER_T)

    def test_dense_phi_is_a_read_only_constant(self):
        dense = G.phi_dense
        assert dense is G.phi_dense
        assert np.array_equal(dense, G.phi.to_dense())
        assert not dense.flags.writeable


class TestGraphPlane:
    def test_horizontal_plane_has_zero_graph(self):
        Ts, signs = sp.graph_from_planes(E[None, :3])
        assert np.abs(Ts).max() == 0.0 and signs.tolist() == [1]

    def test_unit_tilt_plane_graph(self):
        span = np.vstack([E[0] + E[3], E[1], E[2]])
        Ts, signs = sp.graph_from_planes(span[None])
        expected = np.zeros((3, 4))
        expected[0, 0] = 1.0
        assert np.abs(Ts[0] - expected).max() < 1e-14 and signs.tolist() == [1]
        assert sp.beta_of(Ts)._sample(0).equals(ex.basis_form(7, (1, 4)), 1e-14)

    def test_vertical_plane_rejected(self):
        with pytest.raises(sp.NotProjectableError):
            sp.graph_from_planes(E[None, 3:6])

    def test_non_finite_plane_rejected(self):
        for bad in (np.nan, np.inf):
            span = E[:3].copy()
            span[0, 4] = bad
            with pytest.raises(ValueError, match="finite"):
                sp.Plane(span)

    def test_non_finite_span_not_projectable(self):
        for bad in (np.nan, np.inf):
            span = E[:3].copy()
            span[0, 4] = bad
            with pytest.raises(sp.NotProjectableError, match="finite"), \
                    np.errstate(invalid="ignore"):
                S.horizontal_part(span)

    def test_orientation_sign_reported(self):
        span = np.vstack([E[1], E[0], E[2]])
        _, signs = sp.graph_from_planes(span[None])
        assert signs.tolist() == [-1]

    def test_graph_spans_same_plane(self):
        rng = np.random.default_rng(0)
        span = rng.standard_normal((3, 7))
        Ts, _ = sp.graph_from_planes(span[None])
        # row spaces agree
        stacked = np.vstack([span, sp.graph_frames(Ts)[0]])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == 3


class TestHorizontalMetric:
    def test_graph_frame_is_orthonormal(self):
        rng = np.random.default_rng(1)
        got = sp.horizontal_metric(sp.graph_frames(rng.standard_normal((1, 3, 4)))[0])
        assert np.abs(got - np.eye(3)).max() < 1e-14

    def test_scaled_frame(self):
        got = sp.horizontal_metric(np.vstack([2 * E[0], E[1], E[2]]))
        assert np.abs(got - np.diag([4.0, 1.0, 1.0])).max() == 0.0

    def test_stack_is_row_by_row(self):
        spans = np.random.default_rng(3).standard_normal((4, 3, 7))
        stacked = sp.horizontal_metric(spans)
        assert all(np.array_equal(g, sp.horizontal_metric(span)) for g, span in zip(stacked, spans))

    def test_projectable_marks_each_span(self):
        spans = np.array([E[:3], E[:3], E[:3], E[3:6]])
        spans[1, 0, 5] = np.nan
        spans[2, 2] = spans[2, 1]
        assert S.projectable(spans).tolist() == [True, False, False, False]
        with pytest.raises(sp.NotProjectableError, match="not horizontally"):
            S.horizontal_part(spans[[0, 2]])

    def test_volH_below_vol(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            span = rng.standard_normal((3, 7))
            try:
                volH = np.sqrt(np.linalg.det(sp.horizontal_metric(span)))
            except sp.NotProjectableError:
                continue
            vol = np.sqrt(np.linalg.det(span @ span.T))
            assert volH <= vol + 1e-10
        # equality on horizontal planes only
        volH = np.sqrt(np.linalg.det(sp.horizontal_metric(E[:3])))
        assert abs(volH - 1.0) < 1e-14


class TestVeHierarchy:
    def test_zero_plane(self):
        assert np.array_equal(sp.ve_series(np.zeros((1, 3, 4)), 3), [[1, 0, 0, 0]])

    def test_single_unit_row_matches_sqrt_taylor(self):
        # oracle: Taylor series of sqrt(1 + eps)
        got = sp.ve_series(unit_row_T()[None], 3)[0]
        assert np.abs(got - np.array([1.0, 0.5, -0.125, 0.0625])).max() < 1e-15
        got_r = sp.ve_recursive(unit_row_T()[None], 3)[0]
        assert np.abs(got_r - np.array([1.0, 0.5, -0.125, 0.0625])).max() < 1e-15

    def test_fueter_plane_values(self):
        got = sp.ve_series(FUETER_T[None], 3)[0]
        assert np.abs(got - np.array([1.0, 1.0, 0.0, 0.0])).max() < 1e-14

    def test_two_routes_agree(self):
        Ts = np.random.default_rng(3).standard_normal((200, 3, 4))
        for a, b in zip(sp.ve_series(Ts, 5), sp.ve_recursive(Ts, 5)):
            assert np.abs(a[:4] - b[:4]).max() < 1e-10
            # the tail grows combinatorially; compare at matching scale
            scale = max(1.0, np.abs(a).max())
            assert np.abs(a - b).max() < 1e-10 * scale

    def test_series_against_numeric_determinant(self):
        # third oracle: fit the eps-expansion of sqrt det(I + eps G) numerically
        rng = np.random.default_rng(4)
        T = 0.5 * rng.standard_normal((3, 4))
        ve = sp.ve_series(T[None], 3)[0]
        gram = T @ T.T
        for eps in (1e-3, 1e-2):
            exact = np.sqrt(np.linalg.det(np.eye(3) + eps * gram))
            series = sum(ve[k] * eps ** k for k in range(4))
            assert abs(exact - series) < 10 * eps ** 4

    def test_recursion_closes_after_rank(self):
        # wedge powers vanish above the rank; higher ve are pure convolution
        rng = np.random.default_rng(5)
        ve = sp.ve_recursive(rng.standard_normal((1, 3, 4)), 6)[0]
        for k in (4, 5, 6):
            conv = -0.5 * sum(ve[i] * ve[k - i] for i in range(1, k))
            assert abs(ve[k] - conv) < 1e-12

    def test_kmax_validation(self):
        for route in (sp.ve_series, sp.ve_recursive):
            with pytest.raises(ValueError):
                route(np.zeros((1, 3, 4)), -1)

    def test_ve_divergence_toward_vertical(self):
        spans = np.array([np.vstack([np.cos(theta) * E[0] + np.sin(theta) * E[3], E[1], E[2]])
                          for theta in np.linspace(0.5, np.pi / 2 - 1e-4, 8)])
        values = sp.ve_series(sp.graph_from_planes(spans)[0], 1)[:, 1]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1e6


def _reference_ve_recursive(T, kmax):
    """ve_recursive's former loop, one det per minor: the bit oracle."""
    minor_sq = [1.0, float(np.sum(T * T)), 0.0, 0.0]
    for rows in itertools.combinations(range(3), 2):
        for cols in itertools.combinations(range(4), 2):
            m = np.linalg.det(T[np.ix_(rows, cols)])
            minor_sq[2] += m * m
    for cols in itertools.combinations(range(4), 3):
        m = np.linalg.det(T[:, cols])
        minor_sq[3] += m * m
    ve = [1.0]
    if kmax >= 1:
        ve.append(0.5 * minor_sq[1])
    for k in range(2, kmax + 1):
        wedge_term = minor_sq[k] if k <= 3 else 0.0
        ve.append(0.5 * (wedge_term - sum(ve[i] * ve[k - i] for i in range(1, k))))
    return np.array(ve)


def _reference_wedge3_norms(frame):
    norms = [0.0, 0.0, 0.0, 0.0]
    for idx in itertools.combinations(range(7), 3):
        c = np.linalg.det(frame.T[list(idx), :])
        norms[sum(1 for i in idx if i >= 3)] += c * c
    return norms


def _kernel_planes(rng):
    """Graph maps at scales 1e-4..1e4, with rank 1 and rank 2 ones
    (the planes meeting H that chi3-rank samples)."""
    for scale in 10.0 ** np.arange(-4, 5):
        yield scale * rng.standard_normal((3, 4))
        yield scale * rng.standard_normal((3, 1)) @ rng.standard_normal((1, 4))
        T = scale * rng.standard_normal((3, 4))
        T[rng.integers(3)] = 0.0
        yield T


class TestMinorKernels:
    """ve_recursive and _wedge3_vertical_norms stack their minors into one
    det call per size and must keep the per-minor loop's bits."""

    def test_ve_recursive_bits(self):
        rng = np.random.default_rng(13)
        for T in _kernel_planes(rng):
            for kmax in range(7):
                got, want = sp.ve_recursive(T[None], kmax)[0], _reference_ve_recursive(T, kmax)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_wedge3_norm_bits(self):
        rng = np.random.default_rng(14)
        for T in _kernel_planes(rng):
            frame = sp.graph_frames(T[None])[0]
            for vecs in (frame, rng.standard_normal((3, 3)) @ frame):
                got, want = sp._wedge3_vertical_norms(vecs), _reference_wedge3_norms(vecs)
                assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    def test_one_det_call_per_minor_size(self, monkeypatch):
        calls = []
        det = np.linalg.det

        def counting(a):
            calls.append(np.shape(a))
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counting)
        Ts = np.random.default_rng(15).standard_normal((5, 3, 4))
        sp.ve_recursive(Ts[:1], 6)
        assert calls == [(1, 18, 2, 2), (1, 4, 3, 3)]
        calls.clear()
        sp.ve_recursive(Ts, 6)
        assert calls == [(5, 18, 2, 2), (5, 4, 3, 3)]
        calls.clear()
        sp._wedge3_vertical_norms(sp.graph_frames(Ts[:1])[0])
        assert calls == [(35, 3, 3)]


class TestDecomposeAndAdiabatic:
    def test_phi_decomposition(self):
        parts = sp.decompose_form(G.phi)
        lam, omega, theta, mu = S.form_parts()
        assert parts[0].equals(ex.basis_form(7, (1, 2, 3)), 0.0)
        assert parts[1].is_zero(0.0) and parts[3].is_zero(0.0)
        assert parts[2].equals(omega, 0.0)
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        assert total.equals(G.phi, 0.0)

    def test_star_phi_decomposition(self):
        parts = sp.decompose_form(G.star_phi)
        assert parts[4].equals(ex.basis_form(7, (4, 5, 6, 7)), 0.0)
        assert parts[2].equals(ex.form_from_terms(7, 4, g2.STAR_PHI0_TERMS[1:]), 0.0)
        assert parts[0].is_zero(0.0) and parts[1].is_zero(0.0) and parts[3].is_zero(0.0)

    def test_chi_zeroth_component_vanishes(self):
        chi_parts = [sp.decompose_form(c) for c in S.chi_form_f().components]
        assert all(parts[0].is_zero(0.0) for parts in chi_parts)

    def test_adiabatic_identity_at_one(self):
        assert sp.adiabatic_family(G.phi, 1.0).equals(G.phi, 0.0)

    def test_adiabatic_matches_pullback(self):
        eps = 0.3
        got = sp.adiabatic_family(G.phi, eps)
        A = np.diag([1.0] * 3 + [np.sqrt(eps)] * 4)
        assert got.equals(ex.pullback(A, G.phi), 1e-14)
        lam, omega, _, _ = S.form_parts()
        assert got.equals(lam + eps * omega, 1e-14)

    def test_large_eps_in_domain_without_warnings(self):
        # phi's vertical-degree-3 part is empty, so its factor eps^(3/2),
        # which overflows here, must not be formed; the frames' norms
        # multiply past the float range, which still clears the degeneracy
        # bound.  The pinned report is that of the per-block streams.
        eps = 1e300
        lam, omega, _, _ = S.form_parts()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            phi_eps = sp.adiabatic_family(G.phi, eps)
            rep = sp.semi_calibration_scan(
                phi_eps, np.diag([1.0] * 3 + [eps] * 4), sp.PlaneSampler(0), 200)
        assert phi_eps.equals(lam + eps * omega, 0.0)
        assert rep.passed and rep.skipped == 0 and rep.max_ratio == 7.793686330156929e-150
        assert hashlib.sha256(json.dumps(rep.as_dict(), sort_keys=True).encode()).hexdigest() \
            == "67c6f1cd8fbca26ce4e8c2017c04aa55729257f724211fc383f9e72324eca48a"

    def test_adiabatic_rejects_nonpositive_eps(self):
        for eps in (0.0, np.nan):
            with pytest.raises(ValueError, match="eps"):
                sp.adiabatic_family(G.phi, eps)

    def test_adiabatic_rejects_eps_whose_factor_overflows(self):
        # at 1e300, star phi's vertical-degree-4 part needs eps^2 (a Python
        # float power) and chi's vertical-degree-3 part eps^(3/2) (a numpy
        # product): both leave the float range, and both must say so
        for a, q in ((G.star_phi, 4), (S.chi_form_f(), 3)):
            with pytest.raises(ValueError, match=rf"eps = 1e\+300 .* eps\^\({q}/2\)"):
                sp.adiabatic_family(a, 1e300)

    def test_vertical_component_scales_exactly(self):
        for eps in (0.5, 0.1, 0.02):
            fam = sp.adiabatic_family(G.phi, eps)
            parts = sp.decompose_form(fam)
            _, omega, _, _ = S.form_parts()
            assert parts[2].equals(eps * omega, 0.0)

    def test_eps_associator_equality(self):
        rng = np.random.default_rng(6)
        chi_f = S.chi_form_f()
        for _ in range(100):
            eps = float(rng.uniform(0.05, 1.0))
            phi_eps = sp.adiabatic_family(G.phi, eps)
            chi_eps = sp.adiabatic_family(chi_f, eps)
            g_eps = np.diag([1.0] * 3 + [eps] * 4)
            vs = rng.standard_normal((3, 7))
            lhs = phi_eps.apply(vs[None])[0] ** 2 + float(np.sum(chi_eps.apply(vs[None]) ** 2))
            assert abs(lhs - np.linalg.det(vs @ g_eps @ vs.T)) < 1e-10


class TestScans:
    def test_semi_calibration_standard(self):
        sampler = sp.PlaneSampler(17)
        rep = sp.semi_calibration_scan(
            G.phi, np.eye(7), sampler, 2000, include_frames=[E[:3]]
        )
        assert rep.violations == 0
        assert rep.max_ratio <= 1.0 + 1e-10
        assert rep.max_ratio >= 1.0 - 1e-3  # the seeded associative plane

    def test_non_finite_included_frame_rejected(self):
        # a NaN frame would otherwise give a NaN max ratio and a pass
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                sp.semi_calibration_scan(
                    G.phi, np.eye(7), sp.PlaneSampler(17), 10,
                    include_frames=[np.full((3, 7), bad)],
                )

    @pytest.mark.parametrize("shape", [(1, 3, 4), (7, 3, 3)])
    def test_included_frames_of_another_shape_rejected(self, shape):
        # (7, 3, 3) holds the 63 numbers of three frames: only the shape
        # check tells it apart, and it speaks before anything is drawn
        sampler = sp.PlaneSampler(17)
        streams = _EditedStreams(sampler)
        with pytest.raises(ValueError, match=r"shape \(k, 3, 7\)"):
            sp.semi_calibration_scan(G.phi, np.eye(7), sampler, 10,
                                     include_frames=np.ones(shape))
        assert streams.drawn == []

    def test_nan_ratio_is_a_violation(self):
        a = ex.Form(7, 3, {(1, 2, 3): np.nan})
        with np.errstate(invalid="ignore"):
            rep = sp.semi_calibration_scan(a, np.eye(7), sp.PlaneSampler(1), 100)
        assert rep.violations == 100 and not rep.passed

    def test_non_finite_metric_rejected_before_drawing(self):
        for bad in (np.nan, np.inf):
            metric = np.eye(7)
            metric[6, 6] = bad
            sampler = sp.PlaneSampler(1)
            streams = _EditedStreams(sampler)
            with pytest.raises(ValueError, match="finite"):
                sp.semi_calibration_scan(G.phi, metric, sampler, 100)
            assert streams.drawn == []

    def test_overflowing_included_plane_fails_identity_guard(self):
        # omega and ve_1 overflow to inf, so the identity residual is NaN
        P = np.zeros((3, 4))
        P[0, 0], P[2, 2] = 1.0, -1.0
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(AssertionError, match="identity violated"):
            sp.anisotropic_scan(sp.PlaneSampler(1), 1, include_planes=[1e200 * P])

    def test_scaled_fueter_map_matrix_fails_identity_guard(self, monkeypatch):
        # the scan's identity is the one place that ties the 4 x 12 matrix
        # to the geometry: omega + |F|^2 / 2 = ve_1 on every plane
        from g2fueter import fueter

        real = fueter.fueter_map_matrix
        monkeypatch.setattr(fueter, "fueter_map_matrix", lambda: 1.001 * real())
        with pytest.raises(AssertionError, match="identity violated"):
            sp.anisotropic_scan(sp.PlaneSampler(1), 100)

    def test_negative_form_also_semi_calibration(self):
        sampler = sp.PlaneSampler(18)
        rep = sp.semi_calibration_scan(-1.0 * G.phi, np.eye(7), sampler, 2000)
        assert rep.violations == 0

    def test_eps_family_scan(self):
        for eps in (1.0, 0.1, 0.01):
            phi_eps = sp.adiabatic_family(G.phi, eps)
            g_eps = np.diag([1.0] * 3 + [eps] * 4)
            rep = sp.semi_calibration_scan(phi_eps, g_eps, sp.PlaneSampler(19), 2000)
            assert rep.violations == 0
            assert rep.max_ratio <= 1.0 + 1e-10

    def test_anisotropic_scan(self):
        rep = sp.anisotropic_scan(sp.PlaneSampler(20), 5000, include_planes=[FUETER_T])
        assert rep.violations == 0
        assert abs(rep.max_ratio - 1.0) < 1e-12  # the seeded equality case
        assert rep.equality_cases  # fed to the six-way residual report
        assert max(abs(v) for v in rep.equality_cases[0].values() if isinstance(v, float)) < 1e-9

    def test_anisotropic_scan_memory_does_not_grow_with_n(self, monkeypatch):
        # the scan keeps a small summary per block: ten times the planes,
        # the same traced peak, with two workers' blocks of 1000 planes in
        # flight (holding every plane and measurement would add about 21 MB
        # from 2e4 to 2e5 planes)
        _pooled(monkeypatch, 1000)

        def peak(n):
            tracemalloc.start()
            try:
                sp.anisotropic_scan(sp.PlaneSampler(1), n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sp.anisotropic_scan(sp.PlaneSampler(1), 100)  # caches and imports
        small, large = peak(20_000), peak(200_000)
        assert abs(large - small) < 2 ** 20, (small, large)

    def test_horizontal_planes_excluded(self):
        rep = sp.anisotropic_scan(sp.PlaneSampler(21), 100, include_planes=[np.zeros((3, 4))])
        assert rep.skipped >= 1

    def test_non_finite_included_plane_rejected(self):
        # a NaN plane would otherwise be skipped as a 0/0 case and pass
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                sp.anisotropic_scan(sp.PlaneSampler(21), 10,
                                    include_planes=[np.full((3, 4), bad)])

    def test_report_json_roundtrip(self):
        rep = sp.anisotropic_scan(sp.PlaneSampler(22), 50)
        payload = json.loads(json.dumps(rep.as_dict(), sort_keys=True))
        assert payload["seed"] == 22 and payload["samples"] == 50

    def test_sampler_requires_seed(self):
        with pytest.raises(ValueError):
            sp.PlaneSampler(None)

    def test_batch_apply_matches_pointwise(self):
        rng = np.random.default_rng(23)
        frames = rng.standard_normal((20, 3, 7))
        batch = ex._ordered_contract(G.phi.to_dense(), *frames.swapaxes(0, 1))
        pointwise = G.phi.apply(frames)
        for i in range(20):
            assert abs(batch[i] - pointwise[i]) < 1e-12

    def test_omega_of_graph_frames_matches_form(self):
        rng = np.random.default_rng(24)
        Ts = rng.standard_normal((20, 3, 4))
        _, omega, _, _ = S.form_parts()
        batch = sp._omega_values(sp._omega_blocks(), Ts)
        pointwise = omega.apply(sp.graph_frames(Ts))
        for i in range(20):
            assert abs(batch[i] - pointwise[i]) < 1e-12


def _qr_frames(M, metric):
    """The thin-QR oracle for the frames of draws M (n, 7, 3): QR in
    L-coordinates (g = L^t L), sign fixed by a positive R diagonal, (n, 3, 7)."""
    L = np.linalg.cholesky(metric).T
    Q, R = np.linalg.qr(L[None] @ M)
    Q = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    return np.transpose(np.linalg.inv(L)[None] @ Q, (0, 2, 1))


def _gram_error(F, metric):
    """max |F g F^t - I| over frames (n, 3, 7), summed in extended
    precision so that the measurement adds no rounding of its own."""
    F = F.astype(np.longdouble)
    G = np.einsum("nia,ab,njb->nij", F, metric.astype(np.longdouble), F)
    return float(np.max(np.abs(G - np.eye(3))))


EPS_METRICS = [np.diag([1.0] * 3 + [eps] * 4) for eps in (1.0, 0.1, 0.01)]


class TestFrames:
    @pytest.mark.parametrize("metric", EPS_METRICS + [
        np.eye(7) + 0.3 * (np.eye(7, k=1) + np.eye(7, k=-1))])
    def test_frames_are_the_thin_qr_factor_of_the_draws(self, metric):
        # the QR oracle on the same draws in the same order: block b's
        # normals from child stream b of the seed
        n = 3000
        M = np.concatenate([_child(5, 0).standard_normal((2000, 7, 3)),
                            _child(5, 1).standard_normal((1000, 7, 3))])
        with pytest.MonkeyPatch.context() as m:
            _pooled(m, 2000)
            got = sp.PlaneSampler(5).frames(n, metric)
        assert got.shape == (n, 3, 7)
        assert np.max(np.abs(got - _qr_frames(M, metric))) < 1e-12

    @pytest.mark.parametrize("metric", EPS_METRICS)
    def test_orthonormality_tail(self, metric):
        # two Gram-Schmidt passes: at most 8.1e-16 at seeds 0, 1 and 5;
        # LAPACK QR gives 1.2e-15 to 1.6e-15 and a single pass 2.3e-15 to
        # 1.4e-14 on the same draws, so either fails here
        assert _gram_error(sp.PlaneSampler(1).frames(100_000, metric), metric) <= 1e-15

    def test_frames_are_columns_over_samples(self):
        F = sp.PlaneSampler(1).frames(10, np.eye(7))
        assert F.transpose(1, 2, 0).flags.c_contiguous  # a (3, 7, n) array

    def test_zero_draw_is_redrawn_without_a_warning(self):
        # the redraw is the first draw of the redraw stream, the root of the
        # seed's tree, at any n and on any number of workers
        row = 123
        metric = EPS_METRICS[2]
        redraw = _qr_frames(_child(9).standard_normal((1, 7, 3)), metric)[0]
        for n, workers in itertools.product((500, 700), (1, 2)):
            with pytest.MonkeyPatch.context() as m:
                _pooled(m, 200, workers)
                sampler = sp.PlaneSampler(9)
                streams = _EditedStreams(sampler, _degenerate(row))
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got = sampler.frames(n, metric)
                want = sp.PlaneSampler(9).frames(n, metric)
            assert streams.drawn.count(((), 1)) == 1 and streams.rows() == n + 1
            assert np.all(np.isfinite(got)) and _gram_error(got[row:row + 1], metric) < 1e-15
            assert np.max(np.abs(got[row] - redraw)) < 1e-12
            others = np.arange(n) != row
            assert np.array_equal(got[others], want[others])

    def test_one_draw_per_sampler(self):
        # every call orthonormalizes the first call's draw, in any metric,
        # and redraws the degenerate row from a fresh redraw stream, as a
        # fresh sampler of the seed would; another n is refused before
        # anything is drawn
        def degenerate():
            sampler = sp.PlaneSampler(4)
            return sampler, _EditedStreams(sampler, _degenerate(37))

        sampler, streams = degenerate()
        for metric in EPS_METRICS:
            assert np.array_equal(sampler.frames(100, metric), degenerate()[0].frames(100, metric))
        assert streams.drawn == [((0,), 100), ((), 1), ((), 1), ((), 1)]
        with pytest.raises(ValueError, match="drew 100 frames, not 101"):
            sampler.frames(101, np.eye(7))
        assert streams.rows() == 103

    def test_metric_not_positive_definite_rejected_before_drawing(self):
        sampler = sp.PlaneSampler(1)
        streams = _EditedStreams(sampler)
        with pytest.raises(np.linalg.LinAlgError):
            sampler.frames(10, np.diag([1.0] * 6 + [-1.0]))
        assert streams.drawn == []


class TestEqualityLadder:
    def test_random_planes(self):
        Ts = np.random.default_rng(25).standard_normal((100, 3, 4))
        for rep in sp.equality_ladder(Ts):
            assert rep.max_residual < 1e-10

    def test_fueter_plane_depths(self):
        [rep] = sp.equality_ladder(FUETER_T[None])
        # this plane contains a horizontal vector, so chi_3 vanishes too
        assert rep.vanishing_depth == 3
        ve = sp.ve_series(FUETER_T[None], 3)[0]
        assert abs(ve[2]) < 1e-14 and abs(ve[3]) < 1e-14

    def test_full_rank_fueter_plane(self):
        from g2fueter import fueter as fu

        v1 = np.concatenate([[1.0, 0, 0], [0.3, -0.2, 0.5, 0.1]])
        v2 = np.concatenate([[0.0, 1, 0], [-0.4, 0.7, 0.2, -0.6]])
        V3, _ = fu.fueter_complete([v1], [v2])
        Ts, _ = sp.graph_from_planes(np.stack([v1, v2, V3[0]])[None])
        [rep] = sp.equality_ladder(Ts)
        assert rep.vanishing_depth == 2
        ve = sp.ve_series(Ts, 3)[0]
        chi3 = fu.chi_component_values(Ts)[3][0]
        assert abs(ve[2]) < 1e-12
        assert abs(ve[3] - 0.5 * float(chi3 @ chi3)) < 1e-12
        assert rep.max_residual < 1e-10


# -- property tests --------------------------------------------------------------

from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_property_ve_routes_agree(seed):
    Ts = np.random.default_rng(seed).standard_normal((1, 3, 4))
    assert np.abs(sp.ve_series(Ts, 3) - sp.ve_recursive(Ts, 3)).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 1.0))
def test_property_adiabatic_scaling(seed, eps):
    rng = np.random.default_rng(seed)
    import itertools

    a = ex.Form(7, 3, {idx: rng.standard_normal()
                       for idx in itertools.combinations(range(1, 8), 3)})
    fam = sp.adiabatic_family(a, eps)
    parts = sp.decompose_form(a)
    fam_parts = sp.decompose_form(fam)
    for q in range(4):
        expected = (eps ** (q // 2) * (np.sqrt(eps) if q % 2 else 1.0)) * parts[q]
        assert fam_parts[q].equals(expected, 1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_property_equality_ladder(seed):
    Ts = np.random.default_rng(seed).standard_normal((1, 3, 4))
    assert sp.equality_ladder(Ts)[0].max_residual < 1e-10


def test_polar_space_at_a_point():
    from g2fueter import fueter as fu

    W0 = sp.Plane(np.zeros((0, 7)))
    assert fu.polar_space_dim(W0, "associative") == 7
    assert fu.polar_space_dim(W0, "fueter") == 7
