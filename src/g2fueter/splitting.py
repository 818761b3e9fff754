"""Geometry relative to a splitting TM = H + V with H associative.

The splitting is the standard one of phi0, which `standard_splitting()`
builds once per process and every function here reads; none takes a
splitting.  Its orthonormal frame coordinates are the ambient ones:
indices 1..3 span H, 4..7 span V.
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
    _read_only,
    _rowdot,
    _stacked,
    interior,
)

__all__ = [
    "NotProjectableError",
    "Splitting",
    "Plane",
    "GraphPlane",
    "standard_splitting",
    "graph_from_planes",
    "graph_frames",
    "beta_of",
    "horizontal_metric",
    "ve_series",
    "ve_recursive",
    "decompose_form",
    "adiabatic_family",
    "PlaneSampler",
    "ScanReport",
    "semi_calibration_scan",
    "anisotropic_scan",
    "EqualityLadderReport",
    "equality_ladder",
]

DIM = 7

IDENTITY_RESIDUAL_TOL = 1e-10
INEQUALITY_SLACK = 1e-10
VE1_EXCLUSION = 1e-8


class NotProjectableError(ValueError):
    """The plane fails to project injectively onto H."""


# eq=False: a splitting compares and hashes by identity, as
# test_identity_equality_and_hash pins
@dataclass(frozen=True, eq=False)
class Splitting:
    """The standard splitting TM = H + V of phi0: H = span(e1, e2, e3),
    V = span(e4, .., e7), with the standard frame adapted to it.

    G2 acts transitively on associative 3-planes, so every associative
    splitting of phi0 is congruent to this one, and its frame coordinates
    are the ambient ones.  It has no fields: the ambient structure is the
    one of `g2core.standard_g2()`, and the library reads only the
    splitting that `standard_splitting()` caches.
    """

    def horizontal_part(self, span):
        """The H coordinates of the rows of span, or of each span of a
        stack; raises NotProjectableError when a span is not finite or its
        H coordinates are (numerically) dependent."""
        span = np.asarray(span, dtype=float)
        # the whole span, so that a NaN or inf in a V column is refused too
        if not np.all(np.isfinite(span)):
            raise NotProjectableError("span must be finite")
        if not np.all(self.projectable(span)):
            raise NotProjectableError("not horizontally projectable")
        return span[..., :3]

    def projectable(self, spans):
        """Whether each span of a stack (..., s, 7) is finite and has H
        coordinates whose least singular value exceeds 1e-10."""
        finite = np.isfinite(spans).all(axis=(-2, -1))
        A = np.where(finite[..., None, None], spans[..., :3], 0.0)
        return finite & (np.linalg.svd(A, compute_uv=False)[..., -1] > 1e-10)

    # -- the vertical-degree parts -------------------------------------------
    # Built lazily, once per splitting, and shared read-only by every caller.

    @cached_property
    def phi_f_parts(self) -> tuple:
        """The vertical-degree parts alpha_0..alpha_3 of phi in frame coordinates."""
        return tuple(_vertical_parts(g2core.standard_g2().phi, 3))

    @cached_property
    def chi_f_parts(self) -> tuple:
        """The vertical-degree parts chi_0..chi_3 of chi in frame coordinates,
        split componentwise (the value slot is untouched)."""
        comp_parts = [_vertical_parts(c, 3) for c in g2core.standard_g2().chi_form.components]
        return tuple(
            VectorValuedForm(tuple(parts[q] for parts in comp_parts)) for q in range(4)
        )

    @cached_property
    def _form_parts(self):
        pphi = self.phi_f_parts
        pstar = _vertical_parts(g2core.standard_g2().star_phi, 4)
        for q in (1, 3):
            if not pphi[q].is_zero(1e-12):
                raise AssertionError(f"phi has an unexpected vertical-degree-{q} part")
        for q in (0, 1, 3):
            if not pstar[q].is_zero(1e-12):
                raise AssertionError(f"*phi has an unexpected vertical-degree-{q} part")
        return pphi[0], pphi[2], pstar[2], pstar[4]

    @cached_property
    def theta_dense(self) -> np.ndarray:
        """Theta as a dense, read-only 4-tensor, built from `form_parts`."""
        return _read_only(self.form_parts()[2].to_dense())

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
        return g2core.standard_g2().chi_form


@cache
def standard_splitting() -> Splitting:
    """The standard splitting, built once per process; its parts stay lazy.
    A test that patches a function feeding those parts clears this cache
    before and after, or a warm part hides the patch or outlives it."""
    return Splitting()


def _vertical_parts(a: Form, degree_cap):
    parts = a.vertical_degree_parts(range(4, DIM + 1))
    return [parts.get(q, Form._trusted(a.dim, a.degree, {})) for q in range(degree_cap + 1)]


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

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float).reshape(3, 4)
        object.__setattr__(self, "T", T)


def graph_from_planes(spans):
    """Graph coordinates of stacked 3-planes, spans (n, 3, 7): the graph
    maps (n, 3, 4) and the signs (n,), -1 where a plane's given
    orientation disagrees with the projected orientation of H.  A span
    whose p_H is singular raises NotProjectableError; the guard implies
    Plane's, since the singular values of a span bound those of its H
    part from above."""
    spans = _stacked(spans, (3, DIM))
    A = standard_splitting().horizontal_part(spans)
    return np.linalg.solve(A, spans[..., 3:]), np.where(np.linalg.det(A) > 0, 1, -1)


def graph_frames(Ts):
    """The spanning frames (n, 3, 7) of stacked graph maps (n, 3, 4)."""
    Ts = _stacked(Ts, (3, 4))
    out = np.zeros((len(Ts), 3, DIM))
    out[:, :, :3] = np.eye(3)
    out[:, :, 3:] = Ts
    return out


def beta_of(Ts) -> Form:
    """The 2-forms beta = sum_i e^i ^ (T e_i)^flat of stacked graph maps
    (n, 3, 4), frame coordinates: a stacked 2-form without the columns
    that are zero in every sample."""
    cols = np.asarray(Ts, dtype=float).reshape(-1, 12).T  # column (i, a) is row 4 i + a
    keys = itertools.product(range(1, 4), range(4, DIM + 1))
    return Form._trusted(DIM, 2, {key: col for key, col, kept in
                                  zip(keys, cols, cols.any(axis=1)) if kept})


def horizontal_metric(spans):
    """Gram matrix of the horizontal projections of a span (s, 7), or of
    each span of a stack (n, s, 7)."""
    A = standard_splitting().horizontal_part(spans)
    return A @ A.swapaxes(-1, -2)


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


def ve_series(Ts, kmax):
    """[ve_0..ve_kmax] of stacked graph maps (n, 3, 4) -> (n, kmax + 1), via
    the eigenvalue expansion of sqrt det(I + eps G) of the Gram matrices
    G = T T^t of the one-plane matrix product."""
    Ts = _stacked(Ts, (3, 4))
    return _ve_from_grams(Ts @ Ts.swapaxes(1, 2), kmax)


# the minors of T in lexicographic order: 2x2 ones T[rows][:, cols] with the
# rows outer, then 3x3 ones T[:, cols]
_ROWS2, _COLS2 = map(np.array, zip(*itertools.product(
    itertools.combinations(range(3), 2), itertools.combinations(range(4), 2))))
_COLS3 = np.array(list(itertools.combinations(range(4), 3)))


def ve_recursive(Ts, kmax):
    """[ve_0..ve_kmax] of stacked graph maps (n, 3, 4) -> (n, kmax + 1), via
    wedge-power norms and the recursion.

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


def decompose_form(a):
    """Split a form by vertical degree: a = sum_i a_i, a_i with exactly i
    V-frame indices per monomial.  Returns a list of length degree + 1."""
    return _vertical_parts(a, a.degree)


def adiabatic_family(a, eps: float):
    """The one-parameter family sum_i (sqrt eps)^i a_i.

    Equals the pullback by diag(1,1,1,sqrt(eps)..) in the splitting frame;
    eps = 1 is the identity.  Applies to plain and vector-valued forms; an
    (n,) array of eps gives the stacked family, sample by sample.
    ValueError when eps is not positive, or when the factor eps^(q/2) of a
    nonempty vertical-degree-q part is not finite.
    """
    if isinstance(a, VectorValuedForm):  # the value slot is untouched
        return VectorValuedForm(tuple(adiabatic_family(c, eps) for c in a.components))
    if not np.all(eps > 0.0):
        raise ValueError("eps must be positive")
    root, out = np.sqrt(eps), Form._trusted(a.dim, a.degree, {})  # 0.0 + 1.0 * c is c
    for q, part in enumerate(decompose_form(a)):
        if not part.coeffs:
            # an empty part adds nothing, and its factor may overflow for
            # no reason: phi's vertical-degree-3 part is empty, and its
            # eps^(3/2) leaves the float range once eps passes about 1e205
            continue
        # even powers of sqrt(eps) computed as integer powers of eps, so
        # the vertical-degree-2q component scales by eps^q bit-exactly
        try:
            with np.errstate(over="raise"):
                factor = eps ** (q // 2) * (root if q % 2 else 1.0)
        except (OverflowError, FloatingPointError):  # a Python or a numpy float
            factor = np.inf
        if not np.all(np.isfinite(factor)):
            raise ValueError(f"eps = {eps} is out of range: the factor eps^({q}/2) "
                             f"of the vertical-degree-{q} part is not finite")
        out = out + part * factor  # Form * an (n,) factor, not the array's product
    return out


# -- sampling and scans --------------------------------------------------------

# samples per block, so a block's columns stay in cache.  The block is also
# the unit of the random stream (`PlaneSampler._stream`): block b draws from
# child b of the seed, so changing this size is an RNG-stream change of
# every scan report
_CONTRACT_BLOCK = 16384


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

    The one statement of the scans' worker rules.  The jobs are taken in
    order on the calling thread; at most two jobs per worker wait at once.
    A job draws its random numbers inside fn, from a stream of its own
    (`PlaneSampler._stream`), never from a generator that another job
    shares, so no float depends on which thread ran which job or in what
    order.  Each fn writes its own rows or slot of a result the caller
    preallocated, in place, and returns nothing; reductions over all rows
    stay with the caller.  Each call runs in a copy of the caller's
    context, so an `np.errstate` in force at the call holds in the
    workers.  fn calls numpy and private kernels only: no public g2fueter
    function (the package is traced as one thread) and never `_blockwise`
    (pools do not nest).  A lone job, or a process with one usable CPU,
    runs inline and starts no thread.
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


def _per_block(n, measure):
    """[measure(b, rows) for each block b of n samples], in block order.

    The scans' one route onto `_blockwise`: block b holds the rows
    `_row_blocks(n)[b]`, and the worker that measures it also draws it
    from its own stream, so the draw runs on every worker too.
    """
    blocks = _row_blocks(n)
    results = [None] * len(blocks)

    def run(b):
        results[b] = measure(b, blocks[b])

    _blockwise(run, range(len(blocks)))
    return results


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

    Every draw comes from a stream of the seed's `np.random.SeedSequence`
    tree (`_stream`).  Block b of a scan's samples (`_CONTRACT_BLOCK` rows
    each) draws its independent standard normals from child b, so the first
    blocks of a scan of n samples and of a larger n are the same samples,
    and the report does not depend on the workers.  Semical's degenerate
    rows are redrawn from the root of the tree, the redraw stream, which
    no block uses.

    Frames: the normals orthonormalized in the requested metric by two-pass
    modified Gram-Schmidt (`_gram_schmidt`), which is the thin QR with a
    positive R diagonal.  It is plain numpy elementwise work with no LAPACK
    or BLAS call, so frames are the same floats on any BLAS kernel.
    Rotation invariance of the normal ensemble makes the plane distribution
    uniform.

    A sampler keeps one draw of frames: its first `frames` or
    `semi_calibration_scan` call draws the normals of n frames, and every
    later call, in any metric, orthonormalizes those same normals.  A later
    call with another n raises ValueError.
    """

    def __init__(self, seed):
        if seed is None:
            raise ValueError("a seed is mandatory for sampling")
        self.seed = int(seed)
        self._draws = None  # the one draw of frame normals, (n, 7, 3)

    def _stream(self, *key):
        """The generator of the seed's stream `key`: (b,) for block b, ()
        for the redraws."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed,
                                                                          spawn_key=key)))

    def _graph_block(self, b, rows):
        """Block b's graph maps, one (3, 4) per row of the slice rows, from
        the block's own stream."""
        return self._stream(b).standard_normal((rows.stop - rows.start, 3, 4))

    def frames(self, n, metric):
        """n oriented 3-frames, orthonormal w.r.t. metric, shape (n, 3, 7):
        the frames that `semi_calibration_scan` of n samples measures.

        The result is the transposed view of a (3, 7, n) array of columns,
        so each frame vector's coordinates are contiguous over samples.
        `_frame_blocks` states the draw, the redraws and what raises.
        """
        out = np.empty((3, DIM, n))

        def keep(rows, Q):
            out[:, :, rows] = Q

        self._frame_blocks(n, metric, keep)
        return out.transpose(2, 0, 1)

    def _frame_blocks(self, n, metric, use):
        """Orthonormalize the one draw of n frames in the metric and call
        use(rows, Q) with each block's frames Q, (3, 7, m) columns.

        Each block runs on `_per_block` (whose `_blockwise` states the
        worker rules): on the sampler's first call the worker fills the
        block's rows of the stored draw in place from the block's stream,
        then runs the Gram-Schmidt and `use`.  The draw is kept only once
        every block is drawn, so a first call that raised leaves the sampler
        as new.  After all blocks, rows whose Gram-Schmidt norms multiply to
        at most 1e-8 (a numerically degenerate draw) are redrawn up to 5
        times, on this thread, from a fresh redraw stream per call, so the
        redraws of every metric are those of a fresh sampler, and `use` sees
        the redrawn rows (an index array) again.  A metric that is not
        finite or not positive definite, or another n than the draw's,
        raises before anything is drawn.  Returns frame(i), the final frame
        (3, 7) of row i, orthonormalized again from its normals.
        """
        metric = np.asarray(metric, dtype=float)
        if not np.all(np.isfinite(metric)):
            raise ValueError("metric must be finite")
        np.linalg.cholesky(metric)  # raises unless positive definite
        if self._draws is not None and len(self._draws) != n:
            raise ValueError(f"this sampler drew {len(self._draws)} frames, not {n}; "
                             "it makes one draw")
        fresh = self._draws is None
        draws = np.empty((n, DIM, 3)) if fresh else self._draws
        terms = [(i, j, metric[i, j]) for i, j in zip(*np.nonzero(metric))]  # row-major

        def orthonormalize(M, Q):
            """Frames of draws (m, 7, 3) into Q (3, 7, m); whether each is
            nondegenerate."""
            r = _gram_schmidt(terms, M.transpose(2, 1, 0), Q)
            # norms past about 1e103 (a metric with entries past 1e206)
            # overflow the product to inf, which is still above the bound
            with np.errstate(over="ignore"):
                return r[0] * r[1] * r[2] > 1e-8  # False for a NaN norm

        def measure(b, rows):
            if fresh:
                self._stream(b).standard_normal(out=draws[rows])
            Q = np.empty((3, DIM, rows.stop - rows.start))
            good[rows] = orthonormalize(draws[rows], Q)
            use(rows, Q)

        good = np.empty(n, dtype=bool)
        _per_block(n, measure)
        self._draws = draws
        rng, redrawn = self._stream(), {}
        for _ in range(5):
            bad = np.nonzero(~good)[0]
            if not bad.size:
                break
            M, Q = rng.standard_normal((bad.size, DIM, 3)), np.empty((3, DIM, bad.size))
            good[bad] = orthonormalize(M, Q)
            use(bad, Q)
            redrawn.update(zip(bad.tolist(), M))
        if not np.all(good):
            raise RuntimeError("degenerate frames persisted across retries")

        def frame(i):
            Q = np.empty((3, DIM, 1))
            orthonormalize(redrawn.get(i, draws[i])[None], Q)
            return Q[:, :, 0]

        return frame

    def graph_planes(self, n):
        """n graph maps T with independent N(0, 1) entries, (n, 3, 4): the
        planes that `anisotropic_scan` of n samples draws."""
        return np.concatenate([np.empty((0, 3, 4))] + [
            self._graph_block(b, rows) for b, rows in enumerate(_row_blocks(n))])


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


class _RatioFold:
    """The reduction of a scan's ratios, fed block by block in row order.

    It keeps what `np.argmax` over all rows would give: the first maximal
    ratio, where a NaN beats every number (the first NaN is kept) and a
    later block wins only with a strictly greater ratio; and the
    violations, every ratio that is not <= 1 + tol, NaN included.  A block
    comes in as its ratios (`add`) or as the fold of its ratios alone
    (`merge`), with one result.
    """

    def __init__(self, tol):
        self.tol, self.max_ratio, self.violations = tol, None, 0

    def add(self, ratios):
        """Fold a nonempty block in.  Returns the row of the block that
        holds the new running maximum, or None when an earlier row keeps it."""
        i, block = int(np.argmax(ratios)), _RatioFold(self.tol)
        block.max_ratio = float(ratios[i])
        block.violations = int(np.sum(~(ratios <= 1.0 + self.tol)))
        return i if self.merge(block) else None

    def merge(self, block):
        """Fold in the fold of a later block; whether it holds the new
        running maximum."""
        self.violations += block.violations
        best, top = self.max_ratio, block.max_ratio
        if best is None or not np.isnan(best) and (np.isnan(top) or top > best):
            self.max_ratio = top
            return True
        return False


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
    ValueError.  Included frames are evaluated on this thread; each drawn
    block is drawn (on the sampler's first call), orthonormalized and
    contracted by one worker (`PlaneSampler._frame_blocks`), so no array
    of all n frames is built and scans of several metrics on one sampler
    draw once.  The frames are those of `sampler.frames(n, metric)`.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    included = _included(include_frames, (3, DIM), "frames")
    dense = a.to_dense()
    k = len(included)
    ratios = np.empty(k + n)
    drawn = ratios[k:]

    def contract(rows, Q):  # the three frame vectors, each (m, 7)
        drawn[rows] = _ordered_contract(dense, *Q.swapaxes(1, 2))

    ratios[:k] = _ordered_contract(dense, *included.swapaxes(0, 1))
    frame = sampler._frame_blocks(n, metric, contract)

    fold = _RatioFold(tol)
    i = fold.add(ratios)
    return ScanReport(form=label or str(a),
                      metric=np.array2string(np.asarray(metric), precision=6),
                      samples=k + n, max_ratio=fold.max_ratio,
                      argmax_frame=(included[i] if i < k else frame(i - k)).tolist(),
                      violations=fold.violations, seed=sampler.seed, tol=tol)


def _omega_blocks():
    """The vertical 4x4 blocks of omega_1, omega_2, omega_3."""
    return [standard_splitting().omega_2form(i).to_dense()[3:, 3:] for i in (1, 2, 3)]


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

    The scan streams.  The included planes are measured on this thread.
    Each block of `_CONTRACT_BLOCK` drawn planes (those of
    `sampler.graph_planes(n)`) is drawn from its own stream and measured
    by one worker (`_per_block`), which reduces it to a small summary and
    drops it, so memory is O(workers x block) for any n.  A summary holds
    the largest identity residual (a NaN kept), the skip count, the fold
    of the block's ratios with a copy of its first argmax plane, and
    copies of its first 16 near-equality planes.  This thread folds the
    summaries in block order by `_RatioFold`'s rule, as `np.argmax` over
    all rows (a NaN beats every number, and an all-skipped scan gives row
    0), and keeps the first 16 near-equality planes in row order.  The
    identity guard raises only after every block is drawn, and the
    condition residuals run after the guard.  The report is that of one
    whole-array pass over the same planes, byte for byte.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    included = _included(include_planes, (3, 4), "planes")
    from .fueter import condition_residuals, fueter_map_matrix

    w, fmap = _omega_blocks(), fueter_map_matrix()

    def summary(T):
        """The summary of graph maps (m, 3, 4); the temporaries die here."""
        omega, ve1 = _omega_values(w, T), 0.5 * np.einsum("nia,nia->n", T, T)
        # einsum, not `@`: a BLAS dgemm per block woke OpenBLAS's second
        # thread, which doubled the scan's CPU time to save ~5% of its wall
        F = np.einsum("rc,nc->nr", fmap, T.reshape(len(T), 12))
        keep = ve1 >= VE1_EXCLUSION
        ratios = np.where(keep, omega / np.where(keep, ve1, 1.0), -np.inf)
        fold = _RatioFold(tol)
        i = fold.add(ratios)
        return (np.abs(omega + 0.5 * np.einsum("nr,nr->n", F, F) - ve1).max(),
                int(np.sum(~keep)), fold, T[i].copy(),
                T[np.nonzero(ratios > 1.0 - 1e-6)[0][:16]])

    summaries = [summary(included)] if len(included) else []
    summaries += _per_block(n, lambda b, rows: summary(sampler._graph_block(b, rows)))
    fold, worst, skipped, argmax_plane, near = _RatioFold(tol), -np.inf, 0, None, []
    for residual, skips, block, plane, close in summaries:
        worst, skipped = np.maximum(worst, residual), skipped + skips
        if fold.merge(block):
            argmax_plane = plane
        near.extend(close[:16 - len(near)])
    if not worst <= IDENTITY_RESIDUAL_TOL:
        raise AssertionError(f"secondary-calibration identity violated: residual {float(worst)}")

    return ScanReport(form="omega (secondary calibration)", metric="ve1 * volH",
                      samples=len(included) + n, max_ratio=fold.max_ratio,
                      argmax_frame=argmax_plane.tolist(), violations=fold.violations,
                      seed=sampler.seed, tol=tol, skipped=skipped,
                      equality_cases=[report.as_dict() for report in
                                      condition_residuals(np.reshape(near, (-1, 3, 4)))])


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


def equality_ladder(Ts):
    """Residuals of the graded equality identities on stacked graph maps
    (n, 3, 4), one report per plane, every value computed over the sample
    axis.

    For each ell = 1..3 the even identity compares sum_{i+j=2 ell} of the
    alpha- and chi-pairings against |v_ell|^2, itself cross-checked against
    the ve-convolution; the odd identities must vanish.  The vanishing
    depth is the largest k <= 3 with |chi_i(v)| < IDENTITY_RESIDUAL_TOL
    for all 1 <= i <= k; on such a k-vanishing plane the ladder identities
    alpha_{2l}(v) = ve_l and alpha_{2k+2}(v) + |chi_{k+1}(v)|^2 / 2 =
    ve_{k+1} are also evaluated.
    """
    frames = graph_frames(Ts)
    alpha = [p.apply(frames) for p in standard_splitting().phi_f_parts]
    chi = [p.apply(frames) for p in standard_splitting().chi_f_parts]
    v_parts_sq = _wedge3_vertical_norms(frames)
    ve = ve_series(Ts, 3).T

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
