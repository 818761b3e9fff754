"""Analytic Fueter PDE machinery on the flat, SU(2) and Heisenberg models.

All maps carry exact first and second jets, and nothing higher: the
vertical equation D u = 0 needs first jets, and the identities D^2 =
-Laplacian (flat) and D^2 = -Laplacian - 2D (SU(2)) need second jets.
Finite differences appear only as a testing oracle, never in the main
path, so the operator identities hold to float roundoff rather than
discretization error.

Graph sections x -> (x, u(x)) over the 3-torus (flat and Heisenberg
models) are Fueter exactly when D u = J_1 du/dx1 + J_2 du/dx2 + J_3
du/dx3 vanishes; on SU(2) the derivatives become left-invariant ones and
the identity D^2 = -Laplacian picks up a -2D correction.  An SU(2) map
is an R^4 jet map (the same eval/jet1/jet2 API, on points of R^4) with
the Su2AmbientMap mixin, which restricts it to the unit quaternions and
turns its ambient jets into left-invariant directional ones.

Quaternion convention (pinned): SU(2) points are unit quaternions
q = a + b i + c j + d k stored as (a, b, c, d); the orthonormal
left-invariant frame is e_1 = j, e_2 = k, e_3 = i, which reproduces
[e_1, e_2] = 2 e_3 and matches the trace-free basis matrices used to
define the model.
"""

from __future__ import annotations

import functools
import itertools
import operator
import types
from dataclasses import dataclass

import numpy as np

from .exterior import _ordered_contract, _read_only
from .fueter import standard_jtriple
from .splitting import graph_frames, standard_splitting

__all__ = [
    "AnalyticMap",
    "PolynomialMap",
    "FourierMap",
    "SumMap",
    "NewtonianPotentialMap",
    "DMap",
    "affine_map",
    "affine_fueter_section",
    "random_polynomial_map",
    "cubic_polynomial_map",
    "random_harmonic_map",
    "random_fourier_field",
    "fueter_operator_flat",
    "d_squared_residual",
    "harmonic_to_fueter",
    "NotHarmonicError",
    "quat_mul",
    "SU2_FRAME_QUATERNIONS",
    "su2_frame_commutator_check",
    "AmbientPolynomialMap",
    "CotPotentialMap",
    "ShiftedDiracMap",
    "su2_fueter_operator",
    "su2_identity_residual",
    "random_su2_points",
    "ImmersionGrid",
    "immersion_energies",
    "covering_degree",
    "minimization_experiment",
    "BaseDiffeo",
    "shear_diffeo",
    "reparametrization_invariance",
    "cs_functional",
    "cs_first_variation",
    "adversarial_variation",
]

_J = standard_jtriple().as_tuple()


# =============================================================================
# analytic maps R^3 -> R^4
# =============================================================================


class AnalyticMap:
    """A smooth map U subset R^3 -> R^4 with exact first and second jets.

    One array contract, shared with the SU(2) maps: eval/jet1/jet2 take
    points of shape (..., 3) and return shapes (..., 4), (..., 4, 3) and
    (..., 4, 3, 3); a single point (3,) is the case of no leading axes.
    No map provides higher jets; a map that does not override the three
    implements `_jet(x, order)`.  `periodicity`, when set, is the 4x3
    integer matrix A with u(x + n) = u(x) + A n for n in Z^3, so the map
    descends to a torus section.
    """

    periodicity = None

    def eval(self, x):
        return self._jet(x, 0)

    def jet1(self, x):
        return self._jet(x, 1)

    def jet2(self, x):
        return self._jet(x, 2)

    def _jet(self, x, order):
        raise NotImplementedError

    def __add__(self, other):
        return SumMap([self, other])

    def __mul__(self, scalar):
        return ScaledMap(self, float(scalar))

    __rmul__ = __mul__


def _exponents(powers):
    try:
        return tuple(map(operator.index, powers))
    except TypeError:
        raise ValueError(f"exponents must be integers, got {powers!r}") from None


@functools.lru_cache(maxsize=256)
def _layout_table(layout, order, n):
    """The jet table of one order for an exponent layout (the exponent
    tuples of each component, in dict order), shared read-only by every
    map with that layout."""
    # axes sorted: d/dx_i d/dx_j multiplies by p_i before p_j, so (i, j)
    # and (j, i) share the bits of the i <= j value
    ds = [sorted(d) for d in itertools.product(range(n), repeat=order)]
    return _monomial_table(layout, ds, n)


def _monomial_table(layout, ds, n):
    """Per (component, d) output, its surviving monomials in dict order,
    padded: their positions among all the layout's monomials (the padding
    points one past the last, at a 0.0), the exponent that each
    differentiation in d multiplies by in turn (1 for the padding) and the
    lowered exponents (0 for the padding).  Returns the positions, the
    multipliers and, per axis with a nonzero exponent, (axis, its
    exponents, largest + 1)."""
    rows, offsets = [], np.cumsum([0] + [len(comp) for comp in layout])
    for (k, comp), d in itertools.product(enumerate(layout), ds):
        terms = []
        for pos, powers in enumerate(comp, start=offsets[k]):
            p, mult = list(powers), []
            for axis in d:
                mult.append(p[axis])
                p[axis] -= 1
            if min(p, default=0) >= 0:
                terms.append((pos, mult, p))
        rows.append(terms)
    src = np.full((len(rows), max(map(len, rows))), offsets[-1])
    mults = np.ones((len(ds[0]),) + src.shape)
    exps = np.zeros(src.shape + (n,), dtype=np.intp)
    for r, terms in enumerate(rows):
        for t, (pos, mult, p) in enumerate(terms):
            src[r, t], mults[:, r, t], exps[r, t] = pos, mult, p
    axes = [(a, _read_only(exps[..., a].copy()), exps[..., a].max() + 1)
            for a in range(n) if exps[..., a].any()]
    return _read_only(src), _read_only(mults), axes


class PolynomialMap(AnalyticMap):
    """Componentwise polynomial map on R^n; monomials keyed by exponent
    n-tuples (triples on R^3) of nonnegative integers, one n per map, and
    points must have last axis n.

    Bits match a per-monomial loop: each term c * x0^p0 * x1^p1 * ... is
    multiplied left to right with powers `x[..., a] ** p`, and the terms
    are summed one by one in dict order from +0.0.  The monomials are
    compiled into a table per jet order and exponent layout, shared
    read-only by every map with that layout; each map gathers its own
    coefficients through it and multiplies them by the exponents in turn,
    once per order.  A call builds one power table per axis and forms every
    output's terms in one gather and multiply per axis.  Padding (0.0 times
    powers 1.0) keeps each sum's bits, axes whose exponents are all 0 are
    skipped, and outputs are C-contiguous.
    With (F,) columns as coefficients it holds F rows over one layout,
    and row i is evaluated at its own points x[i] of x (F, ..., n).
    """

    def __init__(self, components, periodicity=None):
        # components: sequence of 4 dicts {(p1,..,pn): coeff}, stored
        # read-only since the compiled tables are cached; numpy integer
        # exponents (as `solve su2` draws them) become ints
        self.components = tuple(types.MappingProxyType(
            {_exponents(p): c for p, c in dict(comp).items()}) for comp in components)
        if len(self.components) != 4:
            raise ValueError("need 4 components")
        exps = [p for comp in self.components for p in comp]
        if any(e < 0 for p in exps for e in p) or len({len(p) for p in exps}) > 1:
            raise ValueError("exponents must be nonnegative, all of one length")
        self._n = len(exps[0]) if exps else None
        self._layout = tuple(tuple(comp) for comp in self.components)
        self._tables = {}
        self.periodicity = None if periodicity is None else np.asarray(periodicity)

    def _jet(self, x, order):
        """All derivatives of one order, shape (..., 4) + (n,) * order."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or self._n not in (None, x.shape[-1]):
            raise ValueError(f"points of shape {x.shape} for exponents of length {self._n}")
        n = x.shape[-1]
        if (order, n) not in self._tables:
            src, mults, axes = _layout_table(self._layout, order, n)
            values = [c for comp in self.components for c in comp.values()]
            coef = np.array(values + [np.zeros(np.shape(values[0]) if values else ())]).T[..., src]
            for mult in mults:
                coef = coef * mult
            self._tables[order, n] = coef, axes
        coef, axes = self._tables[order, n]
        lead = coef.shape[:-2]  # (F,) with rows, each facing its own points
        terms = coef = coef.reshape(lead + (1,) * (x.ndim - 1 - len(lead)) + coef.shape[-2:])
        for a, e, size in axes:
            xa = x[..., a]
            powers = np.stack([xa ** k for k in range(size)], axis=-1)[..., e]
            terms = np.multiply(terms, powers, out=powers)
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], coef.shape[:-2]) + coef.shape[-2:-1])
        for t in range(coef.shape[-1]):
            out += terms[..., t]
        return out.reshape(out.shape[:-1] + (4,) + (n,) * order)


class FourierMap(AnalyticMap):
    """Truncated Fourier field sum_k a_k cos(2 pi k.x) + b_k sin(2 pi k.x).

    Fully periodic (periodicity matrix 0); wave vectors are integer.  The
    map is a table of F fields of W waves each: `waves` is its first row,
    a list of (k (3,), cos_amp (4,), sin_amp (4,)), and each of `rows` is
    one more field of as many waves.  `_phases` and `_wave_sum` are its
    one kernel; eval/jet1/jet2 are their first row (F = 1 for a single
    field) in the AnalyticMap layout.
    """

    def __init__(self, waves, *rows):
        self.waves = [tuple(np.asarray(v, dtype=float) for v in wave) for wave in waves]
        self._fields = (self.waves, *rows)
        self.periodicity = np.zeros((4, 3), dtype=int)

    @functools.cached_property
    def _table(self):
        """The distinct wave vectors (K, 3), each wave's slot among them
        (F, W), the cos and sin amplitudes (F, W, 4) and 2 pi k (F, W, 3).
        Built on first use: minimization reads only its fields' `waves`."""
        F, W = len(self._fields), len(self.waves)
        # one (k, a, b) row of 3 + 4 + 4 numbers per wave
        table = np.array([[np.concatenate(wave) for wave in field] for field in self._fields],
                         dtype=float).reshape(F, W, 11)
        k = table[..., :3]
        keys, distinct = map(tuple, k.reshape(-1, 3).tolist()), {}
        slots = [distinct.setdefault(key, len(distinct)) for key in keys]
        return types.SimpleNamespace(
            vectors=np.array(list(distinct), dtype=float).reshape(-1, 3),
            slots=np.array(slots, dtype=int).reshape(F, W),
            cos_amps=table[..., 3:7], sin_amps=table[..., 7:], twopi_k=2.0 * np.pi * k)

    @staticmethod
    def _phases(vectors, x):
        """cos and sin of 2 pi k.x for each wave vector k (K, 3), at the
        points x (..., 3) in order: two (K, P) arrays.

        `x @ k` runs through BLAS: `ddot` for a single point (3,) and
        `dgemv` for a batch (N, 3), and the two round differently.  So a
        point's jets can differ in the last bits between a single-point
        call and the same point inside a batch.  For
        `random_fourier_field(default_rng(2), 3)` one set of 7 Gaussian
        points gave up to 3.4e-13 in `jet2`; the sets
        `default_rng(s).standard_normal((7, 3))`, s < 200, gave at worst
        2.1e-14 in `eval`, 5.6e-13 in `jet1` and 7.5e-12 in `jet2`.
        The fixed-order elementwise phase `x0*k0 + x1*k1 + x2*k2` would
        make every Fourier jet shape-independent and free of the BLAS
        kernel, but it moves the `verify pde`, `first-variation` and
        `cs_*` bytes, so it waits for a declared byte change (ROADMAP
        item 7, stage 2)."""
        x = np.asarray(x, dtype=float)
        cos, sin = np.empty((2, len(vectors), x[..., 0].size))
        for i, k in enumerate(vectors):
            phase = (2.0 * np.pi * (x @ k)).reshape(-1)
            cos[i], sin[i] = np.cos(phase), np.sin(phase)
        return cos, sin

    def _wave_sum(self, cos, sin, order, rows):
        """Order 0, 1 or 2 jets of the fields `rows` at the points of
        `_phases(self._table.vectors, x)`, each wave added in order from +0.0:
        shape (F, 4) + (3,) * order + (P,), the point axis innermost."""
        t = self._table
        slots, k = t.slots[rows], t.twopi_k[rows]
        factor = (np.ones(k.shape[:2]), k, k[..., :, None] * k[..., None, :])[order]
        a, b = (amps[rows].reshape(factor.shape[:2] + (4,) + (1,) * order) * factor[:, :, None]
                for amps in (t.cos_amps, t.sin_amps))
        out = np.zeros(a.shape[:1] + a.shape[2:] + cos.shape[1:])
        trig = (len(slots),) + (1,) * (1 + order) + cos.shape[1:]
        for w in range(slots.shape[1]):
            c, s = cos[slots[:, w]].reshape(trig), sin[slots[:, w]].reshape(trig)
            aw, bw = a[:, w, ..., None], b[:, w, ..., None]
            if order == 0:
                out += c * aw + s * bw
            elif order == 1:
                out += -s * aw + c * bw
            else:
                out += -c * aw
                out += -s * bw
        return out

    def _jet(self, x, order):
        x = np.asarray(x, dtype=float)
        (out,) = self._wave_sum(*self._phases(self._table.vectors, x), order, slice(1))
        return np.ascontiguousarray(np.moveaxis(out, -1, 0)).reshape(x.shape[:-1] + out.shape[:-1])


class SumMap(AnalyticMap):
    def __init__(self, maps):
        self.maps = list(maps)
        ps = [m.periodicity for m in self.maps]
        if all(p is not None for p in ps):
            self.periodicity = sum(np.asarray(p) for p in ps)

    def eval(self, x):
        return sum(m.eval(x) for m in self.maps)

    def jet1(self, x):
        return sum(m.jet1(x) for m in self.maps)

    def jet2(self, x):
        return sum(m.jet2(x) for m in self.maps)


class ScaledMap(AnalyticMap):
    def __init__(self, base, scalar):
        self.base = base
        self.scalar = scalar
        if base.periodicity is not None:
            scaled = float(scalar) * np.asarray(base.periodicity, dtype=float)
            if np.array_equal(scaled, np.rint(scaled)):
                self.periodicity = np.rint(scaled).astype(int)

    def eval(self, x):
        return self.scalar * self.base.eval(x)

    def jet1(self, x):
        return self.scalar * self.base.jet1(x)

    def jet2(self, x):
        return self.scalar * self.base.jet2(x)


class NewtonianPotentialMap(AnalyticMap):
    """F(x) = v0 / (4 pi |x|) on R^3 minus the origin."""

    def __init__(self, v0):
        self.v0 = np.asarray(v0, dtype=float).reshape(4)

    # |x| keeps its last axis, so a single point's powers of r stay
    # arrays and round exactly as a batch's do

    def eval(self, x):
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return 1.0 / (4.0 * np.pi * r) * self.v0

    def jet1(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        grad = -x / (4.0 * np.pi * r ** 3)
        return np.einsum("m,...i->...mi", self.v0, grad)

    def jet2(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)[..., None]
        hess = (3.0 * np.einsum("...i,...j->...ij", x, x) / r ** 5 - np.eye(3) / r ** 3) / (4.0 * np.pi)
        return np.einsum("m,...ij->...mij", self.v0, hess)


def affine_map(A, b=(0.0, 0.0, 0.0, 0.0)) -> PolynomialMap:
    """u(x) = A x + b; periodic with matrix A when A is integer."""
    A = np.asarray(A, dtype=float).reshape(4, 3)
    b = np.asarray(b, dtype=float).reshape(4)
    comps = []
    for m in range(4):
        comp = {(0, 0, 0): b[m]}
        for i in range(3):
            powers = tuple(1 if j == i else 0 for j in range(3))
            comp[powers] = A[m, i]
        comps.append(comp)
    periodicity = A.astype(int) if np.all(A == np.rint(A)) else None
    return PolynomialMap(comps, periodicity=periodicity)


def affine_fueter_section(a2, a3) -> PolynomialMap:
    """The linear Fueter section with integer columns a2, a3 and
    a1 = -J3 a2 + J2 a3 (which is again integer)."""
    a2 = np.asarray(a2, dtype=float).reshape(4)
    a3 = np.asarray(a3, dtype=float).reshape(4)
    a1 = -_J[2] @ a2 + _J[1] @ a3
    return affine_map(np.column_stack([a1, a2, a3]))


_HARMONIC_BASIS = [
    {(0, 0, 0): 1.0},
    {(1, 0, 0): 1.0},
    {(0, 1, 0): 1.0},
    {(0, 0, 1): 1.0},
    {(1, 1, 0): 1.0},
    {(1, 0, 1): 1.0},
    {(0, 1, 1): 1.0},
    {(2, 0, 0): 1.0, (0, 2, 0): -1.0},
    {(0, 2, 0): 1.0, (0, 0, 2): -1.0},
    {(1, 1, 1): 1.0},
    {(3, 0, 0): 1.0, (1, 2, 0): -3.0},
    {(0, 3, 0): 1.0, (0, 1, 2): -3.0},
    {(0, 0, 3): 1.0, (2, 0, 1): -3.0},
    {(2, 1, 0): 1.0, (0, 1, 2): -1.0},
    {(0, 2, 1): 1.0, (2, 0, 1): -1.0},
    {(1, 0, 2): 1.0, (1, 2, 0): -1.0},
]


_CUBIC = [(p1, p2, p3) for p1 in range(4) for p2 in range(4 - p1) for p3 in range(4 - p1 - p2)]


def random_polynomial_map(rng) -> PolynomialMap:
    """Polynomial map of degree <= 3 with standard normal coefficients."""
    return cubic_polynomial_map(rng.standard_normal(4 * len(_CUBIC)))


def cubic_polynomial_map(coefficients) -> PolynomialMap:
    """The polynomial map of degree <= 3 with coefficients (80,), the 20
    monomials of each component in turn, in lexicographic exponent order;
    rows (F, 80) give the map with F rows."""
    cols = np.asarray(coefficients, dtype=float).T
    cols = cols.reshape((4, len(_CUBIC)) + cols.shape[1:])
    return PolynomialMap([dict(zip(_CUBIC, comp)) for comp in cols])


def random_harmonic_map(rng) -> PolynomialMap:
    """Componentwise-harmonic polynomial map of degree <= 3 (exact)."""
    comps = []
    for _ in range(4):
        comp = {}
        for basis in _HARMONIC_BASIS:
            w = rng.standard_normal()
            for powers, coeff in basis.items():
                comp[powers] = comp.get(powers, 0.0) + w * coeff
        comps.append(comp)
    return PolynomialMap(comps)


def random_fourier_field(rng, kmax=2) -> FourierMap:
    """Seeded truncated Fourier field of six waves with integer wave vectors."""
    waves = []
    for _ in range(6):
        k = rng.integers(-kmax, kmax + 1, size=3)
        if not np.any(k):
            k[rng.integers(0, 3)] = 1
        waves.append((k, rng.standard_normal(4), rng.standard_normal(4)))
    return FourierMap(waves)


# =============================================================================
# the flat Fueter operator
# =============================================================================


class NotHarmonicError(ValueError):
    pass


def _dirac(d):
    """sum_i J_i d[..., i] over first derivatives d of shape (..., 4, 3)."""
    return sum(np.einsum("ab,...b->...a", _J[i], d[..., i]) for i in range(3))


def fueter_operator_flat(u: AnalyticMap, x):
    """D u = J_1 du/dx1 + J_2 du/dx2 + J_3 du/dx3 at x (batched)."""
    return _dirac(u.jet1(x))


def d_squared_residual(F: AnalyticMap, x):
    """D(D F) + Laplacian F, componentwise; zero for exact jets."""
    h = F.jet2(x)
    dd = np.zeros(h.shape[:-2])
    for i in range(3):
        for j in range(3):
            dd = dd + np.einsum("ab,...b->...a", _J[j] @ _J[i], h[..., i, j])
    lap = h[..., 0, 0] + h[..., 1, 1] + h[..., 2, 2]
    return dd + lap


class DMap(AnalyticMap):
    """The map D F, with its first jet from F's second jet."""

    def __init__(self, F: AnalyticMap):
        self.F = F
        if F.periodicity is not None:
            # the jet of a section with linear holonomy is fully periodic
            self.periodicity = np.zeros((4, 3), dtype=int)

    def eval(self, x):
        return fueter_operator_flat(self.F, x)

    def jet1(self, x):
        j2 = self.F.jet2(x)
        out = np.zeros(j2.shape[:-3] + (4, 3))
        for i in range(3):
            out += np.einsum("ab,...bj->...aj", _J[i], j2[..., i, :])
        return out


def harmonic_to_fueter(F: AnalyticMap) -> DMap:
    """Turn a componentwise-harmonic map into a Fueter solution u = D F.

    The harmonicity precondition is checked at 64 deterministic Halton
    points in [0.25, 1.25)^3, away from the origin where the Newtonian
    potential is singular; |Laplacian F| above 1e-10 there, or a
    non-finite one, raises NotHarmonicError carrying its max.
    """
    h = F.jet2(_halton_points(64) + 0.25)
    lap = np.abs(h[..., 0, 0] + h[..., 1, 1] + h[..., 2, 2]).max()
    if not lap <= 1e-10:
        raise NotHarmonicError(f"max |Laplacian F| = {lap}")
    return DMap(F)


def _halton_points(n):
    out = np.empty((n, 3))
    for axis, base in enumerate((2, 3, 5)):
        seq = np.zeros(n)
        for i in range(n):
            f, r, idx = 1.0, 0.0, i + 1
            while idx > 0:
                f /= base
                r += f * (idx % base)
                idx //= base
            seq[i] = r
        out[:, axis] = seq
    return out


# =============================================================================
# SU(2): quaternions and the left-invariant operator
# =============================================================================

# components (a, b, c, d) of a + b i + c j + d k
SU2_FRAME_QUATERNIONS = {
    "e1": np.array([0.0, 0.0, 1.0, 0.0]),  # j
    "e2": np.array([0.0, 0.0, 0.0, 1.0]),  # k
    "e3": np.array([0.0, 1.0, 0.0, 0.0]),  # i
}


def quat_mul(p, q):
    """Hamilton product, batched over leading axes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a1, b1, c1, d1 = np.moveaxis(p, -1, 0)
    a2, b2, c2, d2 = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ],
        axis=-1,
    )


def su2_frame_commutator_check():
    """Max residual of [e_i, e_j] = 2 e_k (cyclic) in the pinned quaternion
    realization; exactly zero validates the convention."""
    e = [SU2_FRAME_QUATERNIONS[k] for k in ("e1", "e2", "e3")]
    worst = 0.0
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = quat_mul(e[i], e[j]) - quat_mul(e[j], e[i])
        worst = max(worst, np.abs(comm - 2.0 * e[k]).max())
    return worst


_FRAME_LIST = [SU2_FRAME_QUATERNIONS[k] for k in ("e1", "e2", "e3")]


class Su2AmbientMap:
    """Mixin restricting an R^4 jet map (eval/jet1/jet2 on points of R^4)
    to SU(2), whose points are the unit quaternions.

    Directional jets along the left-invariant frame:
      (e_i u)(h)     = Du(h)[h F_i],
      (e_j e_i u)(h) = D2u(h)[h F_j, h F_i] + Du(h)[h F_j F_i].
    """

    def dir1(self, h):
        h = np.asarray(h, dtype=float)
        d1 = self.jet1(h)
        out = np.empty(h.shape[:-1] + (4, 3))
        for i, Fi in enumerate(_FRAME_LIST):
            t = quat_mul(h, np.broadcast_to(Fi, h.shape))
            out[..., i] = np.einsum("...mk,...k->...m", d1, t)
        return out

    def dir2(self, h):
        h = np.asarray(h, dtype=float)
        d1 = self.jet1(h)
        d2 = self.jet2(h)
        out = np.empty(h.shape[:-1] + (4, 3, 3))
        tangents = [quat_mul(h, np.broadcast_to(F, h.shape)) for F in _FRAME_LIST]
        for j, Fj in enumerate(_FRAME_LIST):
            for i, Fi in enumerate(_FRAME_LIST):
                second = quat_mul(tangents[j], np.broadcast_to(Fi, h.shape))
                out[..., j, i] = np.einsum(
                    "...mkl,...k,...l->...m", d2, tangents[j], tangents[i]
                ) + np.einsum("...mk,...k->...m", d1, second)
        return out


class AmbientPolynomialMap(PolynomialMap, Su2AmbientMap):
    """Polynomial in the four ambient coordinates (exponent quadruples),
    restricted to SU(2)."""


class CotPotentialMap(Su2AmbientMap):
    """F(h) = A cot(r_p(h)) v0, A = 1/(4 pi): the SU(2) fundamental solution.

    r_p is the geodesic distance to p on the unit round sphere, so
    cot(r) = t / sqrt(1 - t^2) with t = <p, h>; harmonic away from p and
    its antipode.  Points within geodesic distance 1e-3 of either pole
    are rejected.
    """

    A = 1.0 / (4.0 * np.pi)

    def __init__(self, p, v0):
        self.p = np.asarray(p, dtype=float).reshape(4)
        self.p = self.p / np.linalg.norm(self.p)
        self.v0 = np.asarray(v0, dtype=float).reshape(4)

    def _t(self, h):
        t = np.einsum("...k,k->...", h, self.p)
        if not np.all(np.abs(t) <= np.cos(1e-3)):
            raise ValueError("point inside the excluded balls around p, -p")
        return t

    def eval(self, h):
        t = self._t(h)
        s = self.A * t / np.sqrt(1.0 - t * t)
        return np.einsum("...,m->...m", s, self.v0)

    def jet1(self, h):
        t = self._t(h)
        ds = self.A * (1.0 - t * t) ** -1.5
        return np.einsum("...,m,k->...mk", ds, self.v0, self.p)

    def jet2(self, h):
        t = self._t(h)
        dds = 3.0 * self.A * t * (1.0 - t * t) ** -2.5
        return np.einsum("...,m,k,l->...mkl", dds, self.v0, self.p, self.p)


class ShiftedDiracMap:
    """u = (D_SU2 + 2) F: first directional jets from F's jets."""

    def __init__(self, F: Su2AmbientMap):
        self.F = F

    def dir1(self, h):
        dd = self.F.dir2(h)
        out = np.zeros(np.asarray(h, dtype=float).shape[:-1] + (4, 3))
        for j in range(3):
            for i in range(3):
                out[..., j] += np.einsum("ab,...b->...a", _J[i], dd[..., j, i])
        out += 2.0 * self.F.dir1(h)
        return out


def su2_fueter_operator(u, h):
    """D_SU2 u = sum_i J_i (e_i u) at the unit quaternion h (batched)."""
    return _dirac(u.dir1(h))


def su2_identity_residual(F: Su2AmbientMap, h):
    """D^2 F + Laplacian F + 2 D F at h; zero by the frame bracket relations."""
    dd = F.dir2(h)
    d2 = np.zeros(np.asarray(h, dtype=float).shape[:-1] + (4,))
    for j in range(3):
        for i in range(3):
            d2 += np.einsum("ab,...b->...a", _J[j] @ _J[i], dd[..., j, i])
    lap = dd[..., 0, 0] + dd[..., 1, 1] + dd[..., 2, 2]
    return d2 + lap + 2.0 * su2_fueter_operator(F, h)


def random_su2_points(rng, n):
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


# =============================================================================
# grids, energies, experiments
# =============================================================================


def _torus_points(n):
    """The regular n^3 lattice on the unit 3-torus, shape (n^3, 3)."""
    axes = [np.arange(n) / n] * 3
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass
class ImmersionGrid:
    """Regular periodic lattice on the unit 3-torus with sampled jets.

    A grid holds its points and the map's first jets there, nothing
    else: every energy reads only the jets.  Trapezoidal weights on a
    periodic grid are uniform (and spectrally accurate for smooth
    periodic integrands).
    """

    u: AnalyticMap
    n: int

    def __post_init__(self):
        self.points = _torus_points(self.n)
        self.jets = self.u.jet1(self.points)
        self.weight = 1.0 / self.points.shape[0]


def _det3(a, b, c, d, e, f):
    """Determinant of the symmetric [[a, b, c], [b, d, e], [c, e, f]],
    by cofactor expansion along the first row, in this order."""
    return a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)


def _ve_pointwise(jets):
    """ve_1..ve_3 (and Vol density) from per-point 4x3 vertical jets.

    Plain elementwise numpy in a fixed order, with no LAPACK call, so the
    floats do not depend on the BLAS kernel, and only (N,) temporaries.
    The six distinct entries of the Gram matrix G = jets^T jets are sums
    of products over m = 0..3 in order; c1 is their trace, c2 the sum of
    the principal 2x2 minors (01, 02, 12) and c3 = det G by `_det3`.

    The volume density sqrt(det(I + G)) takes det(I + G) as its own
    cofactor expansion of I + G, never as 1 + c1 + c2 + c3: that sum
    would make `Vol >= VolH` follow from the ve coefficients, which
    merges the two routes the guard compares.  For the same reason
    `_energies` takes half the squared differential from the jets, not
    from G, as the second route of the pointwise energy identity.
    """
    def gram(i, j):
        g = jets[:, 0, i] * jets[:, 0, j]
        for m in (1, 2, 3):
            g += jets[:, m, i] * jets[:, m, j]
        return g

    g00, g01, g02, g11, g12, g22 = (gram(i, j) for i, j in
                                    ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    c1 = g00 + g11 + g22
    c2 = (g00 * g11 - g01 * g01) + (g00 * g22 - g02 * g02) + (g11 * g22 - g12 * g12)
    c3 = _det3(g00, g01, g02, g11, g12, g22)
    ve1 = 0.5 * c1
    ve2 = 0.5 * (c2 - ve1 ** 2)
    ve3 = 0.5 * (c3 - 2.0 * ve1 * ve2)
    vol_density = np.sqrt(_det3(1.0 + g00, g01, g02, 1.0 + g11, g12, 1.0 + g22))
    return ve1, ve2, ve3, vol_density


def immersion_energies(grid: ImmersionGrid):
    """Quadrature energies of a torus graph section.

    Enforces the pointwise total-energy identity (3/2 + ve_1 equals half
    the squared full differential) before integrating, and the volume
    comparison Vol >= VolH.
    """
    return _energies(grid.jets[None], grid.weight)[0]


def _energies(jets, weight):
    """`immersion_energies` of P sections on one grid, from their stacked
    jets (P, N, 4, 3): one dict per section, the guards checked section
    by section in order.  Every float is that of the section alone."""
    P, N = jets.shape[:2]
    flat = jets.reshape(P * N, 4, 3)
    ve1, ve2, ve3, vol_density = (v.reshape(P, N) for v in _ve_pointwise(flat))
    half_dsq = 0.5 * (3.0 + np.einsum("nmi,nmi->n", flat, flat).reshape(P, N))
    residuals = np.abs(1.5 + ve1 - half_dsq).max(axis=1)
    vol, ve, ve2, ve3 = (weight * v.sum(axis=1) for v in (vol_density, ve1, ve2, ve3))
    out = []
    for p in range(P):
        identity_residual = float(residuals[p])
        # written so that a NaN fails both guards
        if not identity_residual <= 1e-12:
            raise AssertionError(f"energy identity fails pointwise: {identity_residual}")
        energy = {
            "VolH": weight * N,
            "Vol": float(vol[p]),
            "VE": float(ve[p]),
            "VE2": float(ve2[p]),
            "VE3": float(ve3[p]),
        }
        energy["totalEnergy"] = 1.5 * energy["VolH"] + energy["VE"]
        energy["pointwiseIdentityResidual"] = identity_residual
        if not energy["Vol"] >= energy["VolH"] - 1e-12:
            raise AssertionError(f"Vol >= VolH fails: Vol = {energy['Vol']}")
        out.append(energy)
    return out


def covering_degree(c: int, n: int) -> int:
    """Preimage count of a grid point under x -> c x on the n^3 torus grid.

    Requires n divisible by c so the covering is resolved exactly.
    """
    if n % c != 0:
        raise ValueError("grid must resolve the covering: c | n")
    per_axis = sum(1 for j in range(n) if (c * j) % n == 0)
    return per_axis ** 3


# grid points per block of stacked competitors: 8 competitors on an 8^3
# grid.  Larger blocks are no faster: on a 2-vCPU Xeon, 3 x 200 competitors
# at grid 8 took a median 0.237 s at 4096 points, 0.245 s at 8192 and
# 0.294 s at 16384 (15 runs each).  At this size `verify pde`'s peak RSS
# stays that of the per-competitor loop.
_STACKED_POINTS = 4096


def _fourier_competitor_energies(grid: ImmersionGrid, fields, amplitude):
    """`immersion_energies` of each competitor grid.u + (amplitude / sup) f,
    for Fourier fields f of one wave count, sup the max of |f| on the grid.

    The fields are the rows of one stacked `FourierMap`, whose phases are
    taken once on the grid.  A block of rows, at most _STACKED_POINTS grid
    points in all, gets its values and first jets from the map's kernel,
    scaled by amplitude / sup and added to the base jets (taken once, as
    0 + jets, how `SumMap` sums), and its energies from one stacked call.
    The floats are those of building each competitor as the map
    base + (amplitude / sup) * f and its own grid.
    """
    if not fields:
        return []
    stack = FourierMap(*(f.waves for f in fields))
    phases = stack._phases(stack._table.vectors, grid.points)
    base_jets = 0 + grid.jets
    out = []
    block = max(1, _STACKED_POINTS // len(grid.points))
    for start in range(0, len(fields), block):
        rows = slice(start, start + block)
        values, jets = (stack._wave_sum(*phases, order, rows) for order in (0, 1))
        jets *= (amplitude / np.abs(values).max(axis=(1, 2)))[:, None, None, None]
        out += _energies(base_jets + jets.transpose(0, 3, 1, 2), grid.weight)
    return out


def minimization_experiment(
    base: AnalyticMap,
    n_samples: int,
    amplitude: float,
    seed,
    grid_n: int = 8,
    extra_perturbations=(),
):
    """Compare VE and VE + VolH of a base section against perturbations.

    Perturbations are seeded truncated Fourier vertical fields (kmax 2)
    rescaled to the requested sup-norm amplitude, plus any caller-supplied
    ones.  A competitor whose gap falls below -1e-12 is a violation; a
    competitor with non-finite jets fails `immersion_energies`' guards
    and raises.  The report keeps a `skipped` count, always 0.
    NOTE: this samples a finite family of homotopic competitors, not the
    full restricted homology class; the report records that restriction.
    """
    rng = np.random.default_rng(seed)
    base_grid = ImmersionGrid(base, grid_n)
    base_energy = immersion_energies(base_grid)
    fields = [random_fourier_field(rng) for _ in range(n_samples)]
    energies = [immersion_energies(ImmersionGrid(base + p, grid_n))
                for p in extra_perturbations]
    energies += _fourier_competitor_energies(base_grid, fields, amplitude)

    ve_violations = 0
    total_violations = 0
    min_gap_ve = np.inf
    min_gap_total = np.inf
    for energy in energies:
        gap_ve = energy["VE"] - base_energy["VE"]
        gap_total = (energy["VE"] + energy["VolH"]) - (
            base_energy["VE"] + base_energy["VolH"]
        )
        min_gap_ve = min(min_gap_ve, gap_ve)
        min_gap_total = min(min_gap_total, gap_total)
        ve_violations += gap_ve < -1e-12
        total_violations += gap_total < -1e-12
    return {
        "samples": len(energies),
        "skipped": 0,
        "veViolations": int(ve_violations),
        "totalViolations": int(total_violations),
        "minGapVE": float(min_gap_ve),
        "minGapTotal": float(min_gap_total),
        "baseVE": base_energy["VE"],
        "seed": seed,
        "amplitude": amplitude,
        "familyNote": "finite seeded homotopy family, not the full restricted class",
    }


# -- reparametrization ---------------------------------------------------------


class BaseDiffeo:
    """A torus diffeomorphism f with its exact Jacobian df."""

    def __init__(self, f, df):
        self._f, self._df = f, df

    def eval(self, x):
        return self._f(np.asarray(x, dtype=float))

    def jac(self, x):
        return self._df(np.asarray(x, dtype=float))


def shear_diffeo():
    """x -> x + 0.1 sin(2 pi x_2) e_1 (periodic)."""

    def f(x):
        out = x.copy()
        out[..., 0] += 0.1 * np.sin(2.0 * np.pi * x[..., 1])
        return out

    def df(x):
        J = np.broadcast_to(np.eye(3), x.shape + (3,)).copy()
        J[..., 0, 1] += 2.0 * np.pi * 0.1 * np.cos(2.0 * np.pi * x[..., 1])
        return J

    return BaseDiffeo(f, df)


def ve_energy_of_composition(u: AnalyticMap, f: BaseDiffeo, n: int):
    """VE of the reparametrized immersion iota o f by direct quadrature."""
    sigma = _torus_points(n)
    x = f.eval(sigma)
    A = f.jac(sigma)                       # horizontal part of the pushforward
    W = np.einsum("nmi,nij->nmj", u.jet1(x), A)
    A_inv = np.linalg.inv(A)
    T = np.einsum("nmi,nij->nmj", W, A_inv)
    ve1 = 0.5 * np.einsum("nmi,nmi->n", T, T)
    density = np.sqrt(np.linalg.det(np.einsum("nki,nkj->nij", A, A)))
    return float(np.mean(ve1 * density))


def reparametrization_invariance(u: AnalyticMap, f: BaseDiffeo, n: int):
    """|VE(iota o f) - VE(iota)| at grid resolution n (quadrature error only)."""
    base = immersion_energies(ImmersionGrid(u, n))["VE"]
    return abs(ve_energy_of_composition(u, f, n) - base)


# -- the CS functional -----------------------------------------------------------


def _require_same_class(u0, u1):
    """The straight-line path (1-t) u0 + t u1 consists of torus sections
    only when both endpoints carry the same integer holonomy matrix;
    otherwise the interpolation does not descend and the functional is
    meaningless."""
    A0, A1 = u0.periodicity, u1.periodicity
    if A0 is None or A1 is None or not np.array_equal(np.asarray(A0), np.asarray(A1)):
        raise ValueError("endpoints must be torus sections in the same homotopy class")


def cs_functional(u0: AnalyticMap, u1: AnalyticMap, n: int = 12):
    """Integral of the pulled-back 4-form Theta over [0,1] x T^3 for the
    straight-line path of sections from u0 to u1.

    The integrand is a cubic in t, so the 4-node Gauss-Legendre rule in t
    is exact; x-quadrature is periodic-trapezoidal.  Theta is that of the
    flat product, where d Theta = 0; the endpoints must lie in the same
    homotopy class of sections.  Theta is contracted by
    `exterior._ordered_contract` over its 144 nonzero entries, in one call
    over the points of all four nodes (its rows are independent).
    """
    _require_same_class(u0, u1)
    dense = standard_splitting().theta_dense
    x = _torus_points(n)
    w0, j0 = u0.eval(x), u0.jet1(x)
    w1, j1 = u1.eval(x), u1.jet1(x)
    nodes, weights = np.polynomial.legendre.leggauss(4)
    t_nodes = 0.5 * (nodes + 1.0)
    t_weights = 0.5 * weights
    vt = np.zeros((len(t_nodes), x.shape[0], 7))
    vt[:, :, 3:] = w1 - w0
    vt = vt.reshape(-1, 7)
    jets = np.concatenate([(1.0 - t) * j0 + t * j1 for t in t_nodes])
    frame = graph_frames(jets.swapaxes(1, 2))
    vals = _ordered_contract(dense, vt, frame[:, 0], frame[:, 1], frame[:, 2])
    total = 0.0
    for wt, node_vals in zip(t_weights, vals.reshape(len(t_nodes), -1)):
        total += wt * node_vals.mean()
    return float(total)


def cs_first_variation(u0: AnalyticMap, u1: AnalyticMap, Z: AnalyticMap, n: int = 12):
    """First variation of the action along an endpoint deformation Z.

    Deforms the path by t * s * Z (fixing t = 0), differentiates the
    functional in s by central differences with step 1e-4, and compares with the boundary-integral
    formula: the integral over T^3 of Theta(Z, v1, v2, v3) at the
    endpoint.  Returns (numeric derivative, boundary integral).

    Z must be a fully periodic vertical field, so the deformed endpoints
    stay in the homotopy class of u1.
    """
    _require_same_class(u0, u1)
    if Z.periodicity is None or np.any(np.asarray(Z.periodicity)):
        raise ValueError("the variation field must be fully periodic")

    def cs(s):
        return cs_functional(u0, u1 + s * Z, n=n)

    ds = 1e-4
    numeric = (cs(ds) - cs(-ds)) / (2.0 * ds)

    dense = standard_splitting().theta_dense
    x = _torus_points(n)
    zvec = np.zeros((x.shape[0], 7))
    zvec[:, 3:] = Z.eval(x)
    frame = graph_frames(u1.jet1(x).swapaxes(1, 2))
    boundary = float(
        _ordered_contract(dense, zvec, frame[:, 0], frame[:, 1], frame[:, 2]).mean()
    )
    return numeric, boundary


def adversarial_variation(u1: AnalyticMap) -> FourierMap:
    """A vertical field aligned with the endpoint's Theta-contraction,
    projected onto the Fourier modes with |k_i| <= 1; drives the first variation away
    from zero whenever the endpoint is not Fueter."""
    x = _torus_points(8)
    dense = standard_splitting().theta_dense
    frame = graph_frames(u1.jet1(x).swapaxes(1, 2))
    # Theta(., v1, v2, v3): the direction in which the boundary term grows
    theta_vec = _ordered_contract(dense, frame[:, 0], frame[:, 1], frame[:, 2])[:, 3:]
    waves = [(np.zeros(3, dtype=int), theta_vec.mean(axis=0), np.zeros(4))]
    # one representative k > 0 of each +-k pair with |k_i| <= 1
    modes = [k for k in itertools.product((-1, 0, 1), repeat=3) if k > (0, 0, 0)]
    for k, cos, sin in zip(modes, *FourierMap._phases(np.array(modes, dtype=float), x)):
        a = 2.0 * (theta_vec * cos[:, None]).mean(axis=0)
        b = 2.0 * (theta_vec * sin[:, None]).mean(axis=0)
        waves.append((k, a, b))
    return FourierMap(waves)

