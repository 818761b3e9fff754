"""Geometry relative to a splitting TM = H + V with H associative.

Everything plane-level happens in the splitting's orthonormal frame
coordinates: indices 1..3 are the horizontal frame, 4..7 the vertical one.
A projectable oriented 3-plane is encoded by its graph map T: H -> V, a
3x4 coefficient array with rows v_{i,.}, so that the canonical spanning
frame is v_i = e_i + sum_a T[i,a] eta_a.  That frame is automatically
orthonormal for the horizontal inner product, which is the normalization
all closed formulas here assume.
"""

from __future__ import annotations

import collections
import contextvars
import itertools
import os
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import g2core
from .exterior import (
    Form,
    VectorValuedForm,
    _ordered_contract,
    _ordered_sum,
    _rowdot,
    _stacked,
    interior,
    pullback,
    zero_form,
)

__all__ = [
    "NotProjectableError",
    "Splitting",
    "Plane",
    "GraphPlane",
    "standard_splitting",
    "graph_from_plane",
    "graph_frames",
    "beta_of",
    "horizontal_metric",
    "ve_series",
    "ve_series_many",
    "ve_recursive",
    "ve_recursive_many",
    "decompose_form",
    "adiabatic_family",
    "PlaneSampler",
    "ScanReport",
    "semi_calibration_scan",
    "anisotropic_scan",
    "EqualityLadderReport",
    "equality_ladder",
    "equality_ladder_many",
]

DIM = 7

IDENTITY_RESIDUAL_TOL = 1e-10
INEQUALITY_SLACK = 1e-10
VE1_EXCLUSION = 1e-8


class NotProjectableError(ValueError):
    """The plane fails to project injectively onto H."""


# eq=False: ndarray fields make the generated __eq__/__hash__ raise; compare by identity
@dataclass(frozen=True, eq=False)
class Splitting:
    """An orthonormal frame adapted to TM = H + V, H associative.

    h_frame: rows of 3 vectors spanning H (their order fixes the
    orientation); v_frame: rows of 4 vectors spanning V; g2: the ambient
    structure, always the standard one (not a constructor argument).
    Construction checks orthonormality and that H is
    calibrated with phi(h1,h2,h3) = +1.
    """

    h_frame: np.ndarray
    v_frame: np.ndarray
    g2: g2core.G2Structure = field(init=False, default_factory=g2core.standard_g2)

    def __post_init__(self):
        h = np.asarray(self.h_frame, dtype=float).reshape(3, DIM)
        v = np.asarray(self.v_frame, dtype=float).reshape(4, DIM)
        object.__setattr__(self, "h_frame", h)
        object.__setattr__(self, "v_frame", v)
        F = self.frame_matrix
        gram = F @ self.g2.metric @ F.T
        # each guard is written so that a NaN fails it
        if not np.abs(gram - np.eye(DIM)).max() <= 1e-12:
            raise ValueError("frame is not orthonormal in the ambient metric")
        cal = self.g2.phi.apply(list(h))
        if not abs(cal - 1.0) <= 1e-10:
            raise ValueError(f"phi(h-frame) = {cal}, H is not positively calibrated")
        defect = g2core.chi(h[0], h[1], h[2], self.g2)
        if not np.linalg.norm(defect) <= 1e-10:
            raise ValueError("H is not associative")

    @property
    def frame_matrix(self):
        """Rows: h1, h2, h3, eta4..eta7."""
        return np.vstack([self.h_frame, self.v_frame])

    def frame_coords(self, span):
        """Frame coordinates of ambient vectors (rows of span, or one vector)."""
        return span @ self.g2.metric @ self.frame_matrix.T

    def horizontal_part(self, span):
        """The H-frame coordinates of the rows of span; raises
        NotProjectableError when they are not finite or (numerically)
        dependent."""
        A = self.frame_coords(span)[:, :3]
        if not np.all(np.isfinite(A)):
            raise NotProjectableError("span must be finite")
        if not np.linalg.svd(A, compute_uv=False)[-1] > 1e-10:
            raise NotProjectableError("not horizontally projectable")
        return A

    # -- frame-coordinate data ----------------------------------------------
    # Built lazily, once per splitting, and shared read-only by every caller.

    def to_frame(self, a: Form) -> Form:
        """Express an ambient-coordinate form in frame coordinates."""
        if self._is_standard:
            return a
        return pullback(self.frame_matrix.T, a)

    def from_frame(self, a: Form) -> Form:
        if self._is_standard:
            return a
        return pullback(np.linalg.inv(self.frame_matrix.T), a)

    @cached_property
    def _is_standard(self):
        return np.array_equal(self.frame_matrix, np.eye(DIM))

    @cached_property
    def frame_g2(self) -> g2core.G2Structure:
        """The structure in frame coordinates, where the metric is the identity."""
        return g2core.G2Structure(
            phi=self.to_frame(self.g2.phi),
            metric=np.eye(DIM),
            vol=g2core.vol0(),
            star_phi=self.to_frame(self.g2.star_phi),
        )

    @cached_property
    def phi_f_parts(self) -> tuple:
        """The vertical-degree parts alpha_0..alpha_3 of phi in frame coordinates."""
        return tuple(_vertical_parts(self.frame_g2.phi, 3))

    @cached_property
    def chi_f_parts(self) -> tuple:
        """The vertical-degree parts chi_0..chi_3 of chi in frame coordinates,
        split componentwise (the value slot is untouched)."""
        comp_parts = [_vertical_parts(c, 3) for c in self.frame_g2.chi_form.components]
        return tuple(
            VectorValuedForm(tuple(parts[q] for parts in comp_parts)) for q in range(4)
        )

    @cached_property
    def _form_parts(self):
        pphi = self.phi_f_parts
        pstar = _vertical_parts(self.frame_g2.star_phi, 4)
        for q in (1, 3):
            if not pphi[q].is_zero(1e-12):
                raise AssertionError(f"phi has an unexpected vertical-degree-{q} part")
        for q in (0, 1, 3):
            if not pstar[q].is_zero(1e-12):
                raise AssertionError(f"*phi has an unexpected vertical-degree-{q} part")
        return pphi[0], pphi[2], pstar[2], pstar[4]

    def form_parts(self):
        """(lam, omega, Theta, mu) in frame coordinates.

        lam/omega are the vertical-degree 0/2 parts of phi; Theta/mu the
        degree 2/4 parts of *phi.  For an associative splitting the other
        parts vanish, which is asserted.
        """
        return self._form_parts

    def omega_2form(self, i: int) -> Form:
        """The vertical 2-form omega_i = i(h_i) omega, frame coordinates."""
        _, omega, _, _ = self.form_parts()
        e = np.zeros(DIM)
        e[i - 1] = 1.0
        return interior(e, omega)

    def chi_form_f(self) -> VectorValuedForm:
        """chi as a TM-valued 3-form in frame coordinates (metric = id there)."""
        return self.frame_g2.chi_form


def standard_splitting() -> Splitting:
    eye = np.eye(DIM)
    return Splitting(h_frame=eye[:3], v_frame=eye[3:])


def _vertical_parts(a: Form, degree_cap):
    parts = a.vertical_degree_parts(range(4, DIM + 1))
    return [parts.get(q, zero_form(a.dim, a.degree)) for q in range(degree_cap + 1)]


# -- planes ------------------------------------------------------------------


# eq=False: ndarray fields make the generated __eq__/__hash__ raise; compare by identity
@dataclass(frozen=True, eq=False)
class Plane:
    """An oriented s-plane given by independent spanning vectors (ambient)."""

    span: np.ndarray

    def __post_init__(self):
        span = np.atleast_2d(np.asarray(self.span, dtype=float))
        object.__setattr__(self, "span", span)
        if span.shape[0] > span.shape[1]:
            raise ValueError("more spanning vectors than ambient dimensions")
        if not np.all(np.isfinite(span)):
            raise ValueError("spanning vectors must be finite")
        sv = np.linalg.svd(span, compute_uv=False)
        if not np.all(sv > 1e-10):
            raise ValueError("spanning vectors are (numerically) dependent")

    @property
    def s(self):
        return self.span.shape[0]


# eq=False: ndarray fields make the generated __eq__/__hash__ raise; compare by identity
@dataclass(frozen=True, eq=False)
class GraphPlane:
    """A positive horizontally projectable 3-plane, as its graph map T.

    T[i, a] is the eta_{a+4} coefficient of v_i = e_i + T(e_i) in the
    splitting frame; the frame (v_1, v_2, v_3) is orthonormal for the
    horizontal inner product by construction.
    """

    T: np.ndarray
    splitting: Splitting

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float).reshape(3, 4)
        object.__setattr__(self, "T", T)

    def frame(self):
        """Rows: the three spanning vectors in frame coordinates."""
        return graph_frames(self.T[None])[0]


def graph_from_plane(p: Plane, S: Splitting):
    """Convert a 3-plane to graph coordinates.

    Returns (GraphPlane, orientation_sign); the sign is -1 when the
    plane's given orientation disagrees with the projected orientation
    of H.  Raises NotProjectableError when p_H restricted to the plane
    is singular.
    """
    if p.s != 3:
        raise ValueError("graph coordinates require a 3-plane")
    A = S.horizontal_part(p.span)
    T = np.linalg.solve(A, S.frame_coords(p.span)[:, 3:])
    sign = 1 if np.linalg.det(A) > 0 else -1
    return GraphPlane(T=T, splitting=S), sign


def graph_frames(Ts):
    """The spanning frames (n, 3, 7) of stacked graph maps (n, 3, 4)."""
    Ts = _stacked(Ts, (3, 4))
    out = np.zeros((len(Ts), 3, DIM))
    out[:, :, :3] = np.eye(3)
    out[:, :, 3:] = Ts
    return out


def beta_of(g: GraphPlane) -> Form:
    """The 2-form beta = sum_i e^i ^ (T e_i)^flat, frame coordinates."""
    coeffs = {(i + 1, a + 4): g.T[i, a] for i in range(3) for a in range(4)}
    return Form._trusted(DIM, 2, coeffs)  # drops the zero entries


def horizontal_metric(p: Plane, S: Splitting):
    """Gram matrix of the horizontal projections of the spanning frame."""
    A = S.horizontal_part(p.span)
    return A @ A.T


# -- the vertical energy hierarchy -------------------------------------------


def _sqrt_series_coeffs(kmax):
    """Taylor coefficients of sqrt(1 + t) up to order kmax."""
    c = [1.0]
    for m in range(1, kmax + 1):
        c.append(c[-1] * (0.5 - (m - 1)) / m)
    return c


def _ve_from_grams(Gs, kmax):
    """ve coefficients of stacked vertical Gram matrices (n, k, k) ->
    (n, kmax + 1), by eigenvalues: prod_i sqrt(1 + eps * lambda_i) expanded
    in eps through order kmax.

    One stacked eigvalsh over the finite matrices; a matrix with a NaN or
    inf entry gets NaN eigenvalues, so its row is NaN past ve_0 = 1 and the
    other rows are untouched.  Each eigenvalue's factor sq[m] * lambda^m
    takes the power as libm's pow (np.float_power, as a scalar ** does),
    and each convolution entry is summed in index order from +0.0.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    finite = np.isfinite(Gs).all(axis=(1, 2))
    lam = np.full(Gs.shape[:2], np.nan)
    lam[finite] = np.linalg.eigvalsh(Gs[finite])
    sq = _sqrt_series_coeffs(kmax)
    series = np.zeros((len(Gs), kmax + 1))
    series[:, 0] = 1.0
    for ev in lam.T:
        series = _convolve(series, np.array(sq) * np.float_power(ev[:, None], range(kmax + 1)))
    return series


@cache
def _convolution_slots(m):
    """For the Cauchy product of two length-m rows: the slots (k, j) that
    hold a term and their indices i and k - i.  Row k holds its k + 1 terms
    in its last k + 1 slots, so the padding zeros come first."""
    k, j = np.indices((m, m))
    i = j - (m - 1 - k)
    keep = i >= 0
    return keep, i[keep], (k - i)[keep]


def _convolve(series, factor):
    """The Cauchy products of the rows of series and factor (n, m), each
    order's terms series[i] * factor[k - i] summed in index order from +0.0."""
    keep, i, ki = _convolution_slots(series.shape[1])
    terms = np.zeros(series.shape + series.shape[1:])
    terms[:, keep] = series[:, i] * factor[:, ki]
    return _ordered_sum(terms)


def ve_series(g: GraphPlane, kmax: int):
    """[ve_0..ve_kmax] via the eigenvalue expansion of sqrt det(I + eps G);
    the n = 1 case of `ve_series_many`."""
    return ve_series_many(g.T[None], kmax)[0]


def ve_series_many(Ts, kmax):
    """ve_series of stacked graph maps (n, 3, 4) -> (n, kmax + 1), from the
    Gram matrices T T^t of the one-plane matrix product."""
    Ts = _stacked(Ts, (3, 4))
    return _ve_from_grams(Ts @ Ts.swapaxes(1, 2), kmax)


# the minors of T in lexicographic order: 2x2 ones T[rows][:, cols] with the
# rows outer, then 3x3 ones T[:, cols]
_ROWS2, _COLS2 = map(np.array, zip(*itertools.product(
    itertools.combinations(range(3), 2), itertools.combinations(range(4), 2))))
_COLS3 = np.array(list(itertools.combinations(range(4), 3)))


def ve_recursive(g: GraphPlane, kmax: int):
    """[ve_0..ve_kmax] via wedge-power norms and the recursion; the n = 1
    case of `ve_recursive_many`."""
    return ve_recursive_many(g.T[None], kmax)[0]


def ve_recursive_many(Ts, kmax):
    """ve_recursive of stacked graph maps (n, 3, 4) -> (n, kmax + 1).

    |(p_V)^k|^2 is k! times the sum of squared k x k minors of T; the
    wedge powers vanish for k > 3, after which the recursion runs on its
    own.  Independent of ve_series (no eigenvalues).  One stacked det call
    per minor size; the squares are summed one by one in minor order.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    Ts = _stacked(Ts, (3, 4))
    n = len(Ts)
    minor_sq = [np.ones(n), np.sum(Ts.reshape(n, 12) ** 2, axis=1)]
    for minors in (Ts[:, _ROWS2[:, :, None], _COLS2[:, None]], Ts[:, :, _COLS3].swapaxes(1, 2)):
        m = np.linalg.det(minors)
        minor_sq.append(_ordered_sum(m * m))

    ve = [np.ones(n)]
    if kmax >= 1:
        ve.append(0.5 * minor_sq[1])
    for k in range(2, kmax + 1):
        wedge_term = minor_sq[k] if k <= 3 else 0.0  # already k! * e_k / k!
        ve.append(0.5 * (wedge_term - sum(ve[i] * ve[k - i] for i in range(1, k))))
    return np.stack(ve, axis=1)


# -- decomposition and the adiabatic family ----------------------------------


def decompose_form(a, S: Splitting):
    """Split a form by vertical degree: a = sum_i a_i, a_i with exactly i
    V-frame indices per monomial.  Returns a list of length degree + 1 in
    ambient coordinates."""
    frame_parts = _vertical_parts(S.to_frame(a), a.degree)
    return [S.from_frame(p) for p in frame_parts]


def adiabatic_family(a, S: Splitting, eps: float):
    """The one-parameter family sum_i (sqrt eps)^i a_i.

    Equals the pullback by diag(1,1,1,sqrt(eps)..) in the splitting frame;
    eps = 1 is the identity.  Applies to plain and vector-valued forms.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if isinstance(a, VectorValuedForm):  # the value slot is untouched
        return a.map_components(lambda c: adiabatic_family(c, S, eps))
    parts = decompose_form(a, S)
    root = np.sqrt(eps)
    out = parts[0]
    for q in range(1, len(parts)):
        if not parts[q].coeffs:
            # an empty part adds nothing, and its factor may overflow for
            # no reason: phi's vertical-degree-3 part is empty, and its
            # eps^(3/2) leaves the float range once eps passes about 1e205
            continue
        # even powers of sqrt(eps) computed as integer powers of eps, so
        # the vertical-degree-2q component scales by eps^q bit-exactly
        factor = eps ** (q // 2) * (root if q % 2 else 1.0)
        out = out + factor * parts[q]
    return out


# -- sampling and scans --------------------------------------------------------

_CONTRACT_BLOCK = 16384  # samples per block, so a block's columns stay in cache


def _row_blocks(n):
    """Consecutive slices of _CONTRACT_BLOCK rows that cover range(n)."""
    return [slice(start, min(start + _CONTRACT_BLOCK, n))
            for start in range(0, n, _CONTRACT_BLOCK)]


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blockwise(fn, jobs):
    """Call fn(job) for every job, on a thread pool sized to the usable CPUs.

    The one statement of the scans' worker rules.  The job iterator is
    consumed on the calling thread, in order, so any random draws it makes
    keep the stream of a plain loop; at most two jobs per worker wait at
    once.  Each fn writes its own rows of a result the caller
    preallocated, in place, and returns nothing, so the result does not
    depend on which thread ran which job; reductions over all rows stay
    with the caller.  Each call runs in a copy of the caller's context, so
    an `np.errstate` in force at the call holds in the workers.  fn calls
    numpy and private kernels only: no public g2fueter function (the
    package is traced as one thread) and never `_blockwise` (pools do not
    nest).  A lone job, or a process with one usable CPU, runs inline and
    starts no thread.
    """
    jobs = iter(jobs)
    head = list(itertools.islice(jobs, 2))
    workers = _usable_cpus()
    if len(head) < 2 or workers < 2:
        for job in itertools.chain(head, jobs):
            fn(job)
        return
    from concurrent.futures import ThreadPoolExecutor  # only scans pay the import

    with ThreadPoolExecutor(workers) as pool:
        pending = collections.deque()
        for job in itertools.chain(head, jobs):
            pending.append(pool.submit(contextvars.copy_context().run, fn, job))
            if len(pending) > 2 * workers:
                pending.popleft().result()
        for done in pending:
            done.result()


def _metric_inner(terms, a, b):
    """<a, b>_g of column arrays (dim, m) -> (m,): g_ij * a_i * b_j summed
    over the metric's nonzero entries (i, j, g_ij) in the order given, each
    product taken left to right.  Plain elementwise arithmetic, so every
    float is the same on any BLAS."""
    (i, j, g), *rest = terms
    acc = g * a[i] * b[j]
    for i, j, g in rest:
        acc += g * a[i] * b[j]
    return acc


def _gram_schmidt(terms, A, Q):
    """Orthonormalize the columns A[0], A[1], A[2] (each (dim, m)) in the
    metric by two-pass modified Gram-Schmidt, writing them to Q (3, dim, m).

    Returns the final norms r (3, m): the positive diagonal of R in A = QR,
    so Q is the thin-QR factor with the sign fixed by a positive R
    diagonal.  A second pass takes the orthonormality error to the
    rounding level (one pass leaves about 1e-14 at eps = 0.01).  A zero
    column gives r = 0 and NaN columns, without a warning.
    """
    r = np.empty((len(A), A.shape[2]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(len(A)):
            v = A[j].copy()
            for _ in range(2 if j else 0):
                for k in range(j):
                    v -= _metric_inner(terms, Q[k], v) * Q[k]
            r[j] = np.sqrt(_metric_inner(terms, v, v))
            np.divide(v, r[j], out=Q[j])
    return r


class PlaneSampler:
    """Seeded sampler for oriented frames and graph planes.

    Frames: independent standard normal entries, orthonormalized in the
    requested metric by two-pass modified Gram-Schmidt (`_gram_schmidt`),
    which is the thin QR with a positive R diagonal.  It is plain numpy
    elementwise work with no LAPACK or BLAS call, so frames are the same
    floats on any BLAS kernel.  Rotation invariance of the normal ensemble
    makes the plane distribution uniform.
    """

    def __init__(self, seed):
        if seed is None:
            raise ValueError("a seed is mandatory for sampling")
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)

    def frames(self, n, metric):
        """n oriented 3-frames, orthonormal w.r.t. metric, shape (n, 3, 7).

        The result is the transposed view of a (3, 7, n) array of columns,
        so each frame vector's coordinates are contiguous over samples.
        This thread draws each block of samples in turn, and `_blockwise`
        (whose docstring states the worker rules) orthonormalizes the
        blocks into their columns of the result, so the stream and every
        float match one whole draw.  After the whole draw, rows whose
        Gram-Schmidt norms multiply to at most 1e-8 (a numerically
        degenerate draw) are redrawn up to 5 times before giving up.  A
        metric that is not finite, or not positive definite, raises before
        anything is drawn.
        """
        metric = np.asarray(metric, dtype=float)
        if not np.all(np.isfinite(metric)):
            raise ValueError("metric must be finite")
        np.linalg.cholesky(metric)  # raises unless positive definite
        terms = [(i, j, metric[i, j]) for i, j in zip(*np.nonzero(metric))]  # row-major

        def orthonormalize(M, Q):
            """Frames of draws (m, 7, 3) into Q (3, 7, m); whether each is
            nondegenerate."""
            r = _gram_schmidt(terms, M.transpose(2, 1, 0), Q)
            # norms past about 1e103 (a metric with entries past 1e206)
            # overflow the product to inf, which is still above the bound
            with np.errstate(over="ignore"):
                return r[0] * r[1] * r[2] > 1e-8  # False for a NaN norm

        def draw(count):
            return self.rng.standard_normal((count, DIM, 3))

        def fill(job):
            rows, M = job
            good[rows] = orthonormalize(M, out[:, :, rows])

        out, good = np.empty((3, DIM, n)), np.empty(n, dtype=bool)
        _blockwise(fill, ((rows, draw(rows.stop - rows.start)) for rows in _row_blocks(n)))
        for _ in range(5):
            bad = np.nonzero(~good)[0]
            if not bad.size:
                break
            Q = np.empty((3, DIM, bad.size))
            good[bad] = orthonormalize(draw(bad.size), Q)
            out[:, :, bad] = Q
        if not np.all(good):
            raise RuntimeError("degenerate frames persisted across retries")
        return out.transpose(2, 0, 1)

    def graph_planes(self, n):
        """n graph maps T with independent N(0, 1) entries, (n, 3, 4)."""
        return self.rng.standard_normal((n, 3, 4))


@dataclass
class ScanReport:
    """Result of a Monte-Carlo comparison scan, JSON-serializable."""

    form: str
    metric: str
    samples: int
    max_ratio: float
    argmax_frame: list
    violations: int
    seed: int
    tol: float
    skipped: int = 0
    equality_cases: list = field(default_factory=list)

    def as_dict(self):
        return {
            "form": self.form,
            "metric": self.metric,
            "samples": self.samples,
            "maxRatio": self.max_ratio,
            "argmaxFrame": self.argmax_frame,
            "violations": self.violations,
            "seed": self.seed,
            "tol": self.tol,
            "skipped": self.skipped,
            "equalityCases": self.equality_cases,
        }

    @property
    def passed(self):
        return self.violations == 0


def _included(rows, shape, what):
    """Included samples as a (k, *shape) float array, k >= 0; a non-finite
    entry or another shape raises ValueError."""
    rows = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"included {what} must be finite")
    if len(rows) and rows.shape[1:] != shape:
        raise ValueError(f"included {what} must have shape (k, {shape[0]}, {shape[1]})")
    return rows.reshape(-1, *shape)


def _sample(included, drawn, i):
    """Row i of the included samples followed by the drawn ones."""
    return included[i] if i < len(included) else drawn[i - len(included)]


def _scan_report(ratios, included, drawn, seed, tol, **fields):
    """The report of a scan over included then drawn samples: the first
    maximal ratio and its sample, and the violations, any ratio that is
    not <= 1 + tol, NaN included."""
    imax = int(np.argmax(ratios))
    return ScanReport(samples=len(ratios), max_ratio=float(ratios[imax]),
                      argmax_frame=_sample(included, drawn, imax).tolist(),
                      violations=int(np.sum(~(ratios <= 1.0 + tol))),
                      seed=seed, tol=tol, **fields)


def semi_calibration_scan(
    a: Form,
    metric,
    sampler: PlaneSampler,
    n: int,
    tol: float = INEQUALITY_SLACK,
    include_frames=(),
    label="",
) -> ScanReport:
    """Check alpha(frame) <= vol(frame) over n random oriented 3-planes.

    Frames are orthonormalized in the given metric, so the ratio is the
    raw evaluation alpha(v1, v2, v3).  Violation: any ratio that is not
    <= 1 + tol, NaN included.  An included frame that is not finite or
    does not stack to (k, 3, 7), or a non-finite metric, raises
    ValueError.  Included frames are evaluated on this thread and the
    drawn ones block by block through `_blockwise`.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    included = _included(include_frames, (3, DIM), "frames")
    frames = sampler.frames(n, metric)
    dense = a.to_dense()
    k = len(included)
    ratios = np.empty(k + n)
    drawn = ratios[k:]

    def contract(rows):  # (m, 3, 7) frames, unpacked into their three (m, 7) vectors
        drawn[rows] = _ordered_contract(dense, *frames[rows].swapaxes(0, 1))

    ratios[:k] = _ordered_contract(dense, *included.swapaxes(0, 1))
    _blockwise(contract, _row_blocks(n))
    return _scan_report(ratios, included, frames, sampler.seed, tol, form=label or str(a),
                        metric=np.array2string(np.asarray(metric), precision=6))


def _omega_blocks(S: Splitting):
    """The vertical 4x4 blocks of omega_1, omega_2, omega_3."""
    return [S.omega_2form(i).to_dense()[3:, 3:] for i in (1, 2, 3)]


def _omega_values(w, Ts):
    """omega(v1, v2, v3) for graph maps (m, 3, 4) -> (m,), with w from
    `_omega_blocks`: only terms with one horizontal and two vertical slots
    survive, giving omega_1(u2,u3) - omega_2(u1,u3) + omega_3(u1,u2)."""
    u1, u2, u3 = Ts[:, 0], Ts[:, 1], Ts[:, 2]
    return (
        _ordered_contract(w[0], u2, u3)
        - _ordered_contract(w[1], u1, u3)
        + _ordered_contract(w[2], u1, u2)
    )


def anisotropic_scan(
    S: Splitting,
    sampler: PlaneSampler,
    n: int,
    tol: float = INEQUALITY_SLACK,
    include_planes=(),
) -> ScanReport:
    """Check omega(v) <= ve_1(pi) over n random graph planes.

    Planes with ve_1 below the 0/0 exclusion threshold are skipped and
    counted.  Near-equality cases (ratio > 1 - 1e-6) are re-examined with
    the six-way condition residuals and attached to the report.  The
    pointwise identity omega(v) + |chi_1(v)|^2 / 2 = ve_1 is also enforced
    on every sample.  An included plane that is not finite or does not
    stack to (k, 3, 4) raises ValueError.  Violation: any ratio that is
    not <= 1 + tol, NaN included.

    Included planes are measured on this thread.  The drawn ones are
    drawn one block at a time on this thread and measured through
    `_blockwise` (whose docstring states the worker rules); the constant
    matrices come from this thread.  The ratios, argmax, counts,
    near-equality cases and identity guard are taken over all rows here,
    so the report is that of one whole draw.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    included = _included(include_planes, (3, 4), "planes")
    from .fueter import condition_residuals, fueter_map_matrix

    w, fmap = _omega_blocks(S), fueter_map_matrix(S)

    def measures(T):
        """omega, ve_1 and the identity residual of graph maps (m, 3, 4)."""
        omega, ve1 = _omega_values(w, T), 0.5 * np.einsum("nia,nia->n", T, T)
        F = (fmap @ T.reshape(len(T), 12).T).T
        return omega, ve1, np.abs(omega + 0.5 * np.sum(F * F, axis=1) - ve1)

    k = len(included)
    Ts, values = np.empty((n, 3, 4)), np.empty((3, k + n))
    drawn = values[:, k:]

    def measure(job):
        rows, T = job
        Ts[rows] = T
        drawn[:, rows] = measures(T)

    values[:, :k] = measures(included)
    _blockwise(measure, ((rows, sampler.graph_planes(rows.stop - rows.start))
                         for rows in _row_blocks(n)))
    omega_vals, ve1, identity_residual = values
    keep = ve1 >= VE1_EXCLUSION
    ratios = np.where(keep, omega_vals / np.where(keep, ve1, 1.0), -np.inf)
    worst = float(identity_residual.max())
    if not worst <= IDENTITY_RESIDUAL_TOL:
        raise AssertionError(f"secondary-calibration identity violated: residual {worst}")

    equality_cases = [
        condition_residuals(GraphPlane(T=_sample(included, Ts, idx), splitting=S)).as_dict()
        for idx in np.nonzero(ratios > 1.0 - 1e-6)[0][:16]
    ]
    return _scan_report(ratios, included, Ts, sampler.seed, tol,
                        form="omega (secondary calibration)", metric="ve1 * volH",
                        skipped=int(np.sum(~keep)), equality_cases=equality_cases)


# -- the equality ladder -------------------------------------------------------


@dataclass
class EqualityLadderReport:
    even_residuals: list      # index ell-1: identity at weight 2*ell
    odd_residuals: list       # index ell-1: identity at weight 2*ell+1
    ve_match_residuals: list  # |v_ell|^2 against sum ve_i ve_j
    vanishing_depth: int
    ladder_residuals: list    # per verified depth: alpha_{2l}(v) vs ve_l

    @property
    def max_residual(self):
        pools = (
            self.even_residuals + self.odd_residuals
            + self.ve_match_residuals + self.ladder_residuals
        )
        # np.max keeps a NaN residual; Python's max may drop it
        return float(np.max(pools)) if pools else 0.0


def equality_ladder(g: GraphPlane):
    """Residuals of the graded equality identities on a graph plane; the
    n = 1 case of `equality_ladder_many`.

    For each ell = 1..3 the even identity compares sum_{i+j=2 ell} of the
    alpha- and chi-pairings against |v_ell|^2, itself cross-checked against
    the ve-convolution; the odd identities must vanish.  The vanishing
    depth is the largest k <= 3 with |chi_i(v)| < IDENTITY_RESIDUAL_TOL
    for all 1 <= i <= k; on such a k-vanishing plane the ladder identities
    alpha_{2l}(v) = ve_l and alpha_{2k+2}(v) + |chi_{k+1}(v)|^2 / 2 =
    ve_{k+1} are also evaluated.
    """
    return equality_ladder_many(g.T[None], g.splitting)[0]


def equality_ladder_many(Ts, S: Splitting):
    """equality_ladder of stacked graph maps (n, 3, 4) on the splitting S,
    one report per plane, every value computed over the sample axis."""
    frames = graph_frames(Ts)
    alpha = [p.apply_many(frames) for p in S.phi_f_parts]
    chi = [p.apply_many(frames) for p in S.chi_f_parts]
    v_parts_sq = _wedge3_vertical_norms(frames)
    ve = ve_series_many(Ts, 3).T

    def pairing(total):
        acc = np.zeros(len(frames))
        for i in range(4):
            j = total - i
            if 0 <= j <= 3:
                acc = acc + alpha[i] * alpha[j]
                acc = acc + _rowdot(chi[i], chi[j])
        return acc

    even, odd, ve_match = [], [], []
    for ell in range(1, 4):
        target = v_parts_sq[ell]
        even.append(np.abs(pairing(2 * ell) - target))
        conv = sum(ve[i] * ve[ell - i] for i in range(ell + 1))
        ve_match.append(np.abs(target - conv))
        odd.append(np.abs(pairing(2 * ell + 1)))

    chi_norms = [np.sqrt(_rowdot(c, c)) for c in chi]
    small = np.stack([c < IDENTITY_RESIDUAL_TOL for c in chi_norms[1:]], axis=1)
    depths = np.cumprod(small, axis=1).sum(axis=1)

    def alpha_at(q):
        return alpha[q] if q <= 3 else np.zeros(len(frames))

    # per depth: |alpha_2l - ve_l| and |alpha_2l+1| for l <= depth, then
    # the first nonvanishing step
    steps = [[np.abs(alpha_at(2 * ell) - ve[ell]), np.abs(alpha_at(2 * ell + 1))]
             for ell in range(1, 4)]
    nexts = [np.abs(alpha_at(2 * d + 2) + 0.5 * np.float_power(chi_norms[d + 1], 2) - ve[d + 1])
             for d in range(3)]
    columns = [np.stack(x, axis=1).tolist() for x in (even, odd, ve_match)]
    ladders = [np.stack(x, axis=1).tolist() for x in (sum(steps, []), nexts)]
    reports = []
    for row, depth in enumerate(depths.tolist()):
        ladder = ladders[0][row][:2 * depth] + (ladders[1][row][depth:depth + 1])
        reports.append(EqualityLadderReport(
            even_residuals=columns[0][row],
            odd_residuals=columns[1][row],
            ve_match_residuals=columns[2][row],
            vanishing_depth=depth,
            ladder_residuals=ladder,
        ))
    return reports


_WEDGE3_ROWS = np.array(list(itertools.combinations(range(DIM), 3)))
_WEDGE3_DEGREE = (_WEDGE3_ROWS >= 3).sum(axis=1)


def _wedge3_vertical_norms(frames):
    """|v_ell|^2 for ell = 0..3, the vertical-degree pieces of v1 ^ v2 ^ v3,
    for a frame (3, 7) or stacked frames (n, 3, 7), from the frames' 3x3
    row minors (one stacked det) summed in lexicographic order."""
    minors = np.linalg.det(frames.swapaxes(-1, -2)[..., _WEDGE3_ROWS, :])
    return [_ordered_sum(minors[..., _WEDGE3_DEGREE == q] ** 2) for q in range(4)]
