"""Real exterior algebra over R^n (3 <= n <= 8) with the standard metric.

Forms are stored sparsely: a degree-k form is a mapping from strictly
increasing k-index tuples over {1..n} to real coefficients.  The Hodge star
is defined only for the standard orthonormal metric and the standard
orientation vol = dx^{1...n}; non-orthonormal metrics are handled upstream
by changing frames with `pullback`, never here.

Validation happens at the public constructor `Form(...)`: every key must be
a strictly increasing tuple in range.  The operations below (`wedge`,
`hodge`, `interior`, `pullback`, `+`, `*`) build their results with the
internal `Form._trusted`, which skips that check because their keys are
sorted and in range by construction.

Evaluation runs on the sample axis: `apply` takes stacked frames
(n, degree, dim), makes one stacked `np.linalg.det` call over all n
samples' minors and sums the products one by one in coefficient order, as
vectors over n, so every float equals that of the per-monomial loop and
row i does not depend on the other rows.

So does the algebra: a stacked form's coefficients are (n,) columns, built
only by `Form._trusted`; `wedge`, `hodge`, `interior` (of stacked vectors
too), `+` and `*` run their one loop on them, so row i is, float for
float, the form of sample i alone.  `norm`, `inner` and `apply` work
row by row; `render`, `equals` and `Form(...)` refuse a stacked form, and
`+` refuses to add one to a nonempty form of floats.  numpy's operators
defer to `Form`'s, so an array of n scalars times a form is the stacked
form, from either side.  A matrix meets stacked rows only through
`_matvec`, one matrix-vector product per row: one matrix product over the
stack may sum in another order.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Form",
    "VectorValuedForm",
    "DimensionMismatchError",
    "wedge",
    "hodge",
    "interior",
    "inner",
    "pullback",
    "zero_form",
    "basis_form",
    "form_from_terms",
    "render",
]

DEFAULT_TOL = 1e-12

_MIN_DIM, _MAX_DIM = 3, 8


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions or degrees."""


@functools.cache  # raises are not cached, so a bad key is re-checked
def _check_index_tuple(idx, degree, dim):
    if len(idx) != degree:
        raise ValueError(f"index tuple {idx} has length {len(idx)}, expected {degree}")
    if any(not (1 <= i <= dim) for i in idx):
        raise ValueError(f"index tuple {idx} out of range 1..{dim}")
    if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
        raise ValueError(f"index tuple {idx} is not strictly increasing")


def _sort_with_sign(indices):
    """Sort an index sequence, returning (sorted tuple, parity sign) or
    (None, 0) if an index repeats."""
    return _sorted_parity(tuple(indices))


@functools.cache
def _sorted_parity(indices):
    idx = list(indices)
    sign = 1
    # insertion sort; counts transpositions exactly
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and idx[j - 1] == idx[j]:
            return None, 0
    # int() so that a cache hit never hands one caller another's index type
    return tuple(int(i) for i in idx), sign


@functools.cache
def _subsets(dim, degree):
    """Sorted degree-subsets of 1..dim and their 0-based (m, degree) rows."""
    keys = tuple(itertools.combinations(range(1, dim + 1), degree))
    return keys, _row_array(keys, degree)


def _row_array(keys, degree):
    return _read_only(np.array(keys, dtype=np.intp).reshape(len(keys), degree) - 1)


def _read_only(a):
    a.setflags(write=False)
    return a


@functools.cache
def _wedge_table(dim, p, q):
    """{ia: {ib: _sort_with_sign(ia + ib)}} over sorted p- and q-keys."""
    qkeys = _subsets(dim, q)[0]
    # the uncached sort: these pairs need not also sit in the parity cache
    return {ia: {ib: _sorted_parity.__wrapped__(ia + ib) for ib in qkeys}
            for ia in _subsets(dim, p)[0]}


@functools.cache
def _hodge_key(dim, idx):
    comp = tuple(sorted(set(range(1, dim + 1)) - set(idx)))
    return comp, _sort_with_sign(idx + comp)[1]


_EVAL_BLOCK = 1 << 13  # minor entries per det call, so the stacked minors stay small


def _stacked(a, shape):
    """a as a float array of shape (n,) + shape, n >= 0; another shape
    raises DimensionMismatchError."""
    a = np.ascontiguousarray(a, dtype=float)
    if a.shape[1:] != tuple(shape) or a.ndim != len(shape) + 1:
        raise DimensionMismatchError(f"stack of shape {a.shape}, expected (n, *{tuple(shape)})")
    return a


def _ordered_sum(terms):
    """Sums over the last axis accumulated in order from +0.0, as a loop
    `total += t` does; the leading axes are independent."""
    padded = np.zeros(terms.shape[:-1] + (terms.shape[-1] + 1,))
    padded[..., 1:] = terms
    return np.add.accumulate(padded, axis=-1)[..., -1]


def _with_unit_vectors(frames):
    """Each stacked frame (n, k, dim) followed by each unit vector in turn:
    (n, dim, k + 1, dim), as in a(v_1, .., v_k, e_j) for j = 1..dim."""
    n, k, dim = frames.shape
    out = np.empty((n, dim, k + 1, dim))
    out[:, :, :k] = frames[:, None]
    out[:, :, k] = np.eye(dim)
    return out


def _rowdot(a, b):
    """The dot products of the rows of a and b (n, m) -> (n,), each by the
    one-vector product a[i] @ b[i] (numpy's dot kernel, row by row)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _matvec(M, V):
    """M @ V[i] for each row of V (..., m) -> (..., k), by gemv row by row."""
    return (M @ V[..., None])[..., 0]


def _is_stacked(coeffs):
    """Whether these are a stacked form's coefficients, which are all (n,)
    columns, so that the first one tells; an empty form is not stacked."""
    return isinstance(next(iter(coeffs.values()), None), np.ndarray)


def _unstacked(coeffs):
    """Refuse a stacked form's coefficients."""
    if _is_stacked(coeffs):
        raise ValueError("a stacked form has no single value")


def _evaluate(frames, rows, coeffs, segments):
    """Sums of coefficient times minor over stacked frames (n, k, dim).

    rows: (m, k) minor rows; coeffs: (m,) or one row per frame (n, m);
    segments: (s, L) indices into [0.0] + the m products, each segment's
    products left-padded with the 0.0, so that each of the (n, s) results
    is accumulated in coefficient order from +0.0.  The det calls take
    blocks of frames, rows independent.  A stacked form's coefficient rows
    must match the frames one for one.
    """
    if coeffs.ndim == 2 and len(coeffs) != len(frames):
        raise DimensionMismatchError(
            f"a stacked form of {len(coeffs)} rows on {len(frames)} frames")
    out = np.empty((len(frames), len(segments)))
    cols, coeffs = frames.swapaxes(1, 2), np.broadcast_to(coeffs, (len(frames), len(rows)))
    step = max(1, _EVAL_BLOCK // max(1, rows.size * rows.shape[-1]))
    for start in range(0, len(frames), step):
        block = cols[start:start + step]
        terms = np.zeros((len(block), len(rows) + 1))
        # a minor with subnormal entries can leave a zero LU pivot, whose log
        # in det flags a division by zero; the det is still right, +-0.0
        with np.errstate(divide="ignore"):
            minors = np.linalg.det(block[:, rows])
        np.multiply(coeffs[start:start + step], minors, out=terms[:, 1:])
        out[start:start + step] = _ordered_sum(terms[:, segments])
    return out


def _ordered_contract(dense, *vecs):
    """Contract a dense tensor with batches of vectors, shape (n, dim) each.

    Sums dense[I] * v0[:, I0] * v1[:, I1] * ... over the nonzero entries
    I of dense, in lexicographic order, each product taken left to right
    and added to +0.0: the order c_einsum accumulates in, so for finite
    vectors every float equals np.einsum's.  A NaN or inf coordinate still
    gives a non-finite result when it meets a nonzero entry.  Each row of
    the result depends only on the same row of the vectors.

    With one vector per slot the result has shape (n,).  With one fewer,
    the first slot stays free, as in Theta(., v1, v2, v3): the term of
    entry I goes to column I0 of a C-contiguous (n, dim) result.
    """
    free = len(vecs) < dense.ndim
    cols = [np.ascontiguousarray(v.T) for v in vecs]
    acc = np.zeros((dense.shape[0] if free else 1, len(vecs[0])))
    for I in zip(*np.nonzero(dense)):
        term = dense[I]
        for col, i in zip(cols, I[1:] if free else I):
            term = term * col[i]
        acc[I[0] if free else 0] += term
    return np.ascontiguousarray(acc.T) if free else acc[0]


@dataclass(frozen=True)
class Form:
    """Alternating k-form on R^n, sparse over sorted index tuples.

    Absent entries are zero.  Instances are treated as immutable values;
    all operations return new Forms.
    """

    dim: int
    degree: int
    coeffs: dict

    # numpy's operators defer to the form's own: an array of scalars times
    # a form is the stacked form, as the form times the array is
    __array_ufunc__ = None

    def __post_init__(self):
        if not (_MIN_DIM <= self.dim <= _MAX_DIM):
            raise ValueError(f"ambient dimension {self.dim} outside 3..8")
        if self.degree < 0:
            raise ValueError(f"negative degree {self.degree}")
        _unstacked(self.coeffs)
        if self.degree > self.dim:
            # Lambda^k(R^n) = 0 for k > n; only the zero form is representable
            if any(c != 0.0 for c in self.coeffs.values()):
                raise ValueError(f"degree {self.degree} exceeds dimension {self.dim}")
            object.__setattr__(self, "coeffs", {})
            return
        cleaned = {}
        for idx, c in self.coeffs.items():
            idx = tuple(int(i) for i in idx)
            _check_index_tuple(idx, self.degree, self.dim)
            if c != 0.0:
                cleaned[idx] = float(c)
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def _trusted(cls, dim, degree, coeffs):
        """Build from keys that are sorted and in range by construction.

        Skips `_check_index_tuple`, but drops zeros and casts with float()
        exactly as `__post_init__` does; keeps an (n,) column as it is.
        """
        form = object.__new__(cls)
        object.__setattr__(form, "dim", dim)
        object.__setattr__(form, "degree", degree)
        object.__setattr__(form, "coeffs", {
            k: c if isinstance(c, np.ndarray) else float(c)
            for k, c in coeffs.items() if isinstance(c, np.ndarray) or c != 0.0})
        return form

    def _sample(self, i):
        """Row i of a stacked form, as a form of floats without zeros."""
        return Form._trusted(self.dim, self.degree, {k: c[i] for k, c in self.coeffs.items()})

    @functools.cached_property
    def _rows(self):
        """Read-only (m, degree) array of the 0-based rows of each key."""
        return _row_array(tuple(self.coeffs), self.degree)

    @functools.cached_property
    def _plan(self):
        """(rows, coefficients, segments) for `_evaluate`: one segment of
        all the monomials in coefficient order (a stacked form's by rows)."""
        return self._rows, _read_only(np.array(list(self.coeffs.values())).T), \
            _read_only(np.arange(len(self.coeffs) + 1)[None])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        if self.coeffs and other.coeffs and _is_stacked(self.coeffs) != _is_stacked(other.coeffs):
            raise ValueError("cannot add a stacked form and a form of floats")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, 0.0) + c
        return Form._trusted(self.dim, self.degree, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        return Form._trusted(self.dim, self.degree,
                             {k: scalar * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def _compat(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionMismatchError(
                f"(dim={self.dim}, deg={self.degree}) vs (dim={other.dim}, deg={other.degree})"
            )

    # -- queries ------------------------------------------------------------

    def norm(self):
        """Norm in the standard monomial-orthonormal inner product.

        sqrt(sum c^2) while that sum is a normal float; `math.hypot`, which
        scales, when the squares underflow or overflow; per row if stacked.
        """
        sq = sum(c * c for c in self.coeffs.values())
        if isinstance(sq, np.ndarray):
            out, odd = np.sqrt(sq), (sq < sys.float_info.min) | (sq == math.inf)
            if odd.any():  # a row of zeros is 0.0 as it is
                odd &= np.any([c != 0.0 for c in self.coeffs.values()], axis=0)
            for i in np.flatnonzero(odd):
                out[i] = self._sample(i).norm()
            return out
        if self.coeffs and (sq < sys.float_info.min or sq == math.inf):
            return math.hypot(*self.coeffs.values())
        return float(np.sqrt(sq))

    def is_zero(self, tol=DEFAULT_TOL):
        return all(abs(c) <= tol for c in self.coeffs.values())

    def equals(self, other, tol=DEFAULT_TOL):
        self._compat(other)
        _unstacked(self.coeffs)
        _unstacked(other.coeffs)
        keys = set(self.coeffs) | set(other.coeffs)
        return all(abs(self.coeffs.get(k, 0.0) - other.coeffs.get(k, 0.0)) <= tol for k in keys)

    def apply(self, frames):
        """Evaluate on stacked frames (n, degree, dim) -> (n,); row i is
        the value on the vectors frames[i], of row i if the form is stacked."""
        return _evaluate(_stacked(frames, (self.degree, self.dim)), *self._plan)[:, 0]

    def to_dense(self):
        """Fully antisymmetric dense ndarray of shape (dim,)*degree (0-based)."""
        shape = (self.dim,) * self.degree
        out = np.zeros(shape)
        if self.degree == 0:
            return np.array(self.coeffs.get((), 0.0))
        for idx, c in self.coeffs.items():
            for perm in itertools.permutations(i - 1 for i in idx):
                out[perm] = _sort_with_sign(perm)[1] * c
        return out

    def vertical_degree_parts(self, vertical_indices):
        """Split by the number of indices per monomial lying in `vertical_indices`."""
        vset = set(vertical_indices)
        parts = {}
        for idx, c in self.coeffs.items():
            q = sum(1 for i in idx if i in vset)
            parts.setdefault(q, {})[idx] = c
        # the keys are this form's, so already valid
        return {q: Form._trusted(self.dim, self.degree, coeffs) for q, coeffs in parts.items()}

    def __str__(self):
        return render(self)


# -- constructors -----------------------------------------------------------


def zero_form(dim, degree):
    return Form(dim, degree, {})


def basis_form(dim, indices, coeff=1.0):
    """Monomial coeff * dx^{i1...ik}; indices need not be sorted."""
    idx, sign = _sort_with_sign(indices)
    if idx is None:
        return zero_form(dim, len(indices))
    return Form(dim, len(indices), {idx: sign * coeff})


def form_from_terms(dim, degree, terms):
    """Build a form from (coefficient, indices) pairs, indices in any order."""
    out = zero_form(dim, degree)
    for coeff, indices in terms:
        out = out + basis_form(dim, indices, coeff)
    return out


# -- core operations --------------------------------------------------------


def wedge(a: Form, b: Form) -> Form:
    """Exterior product.  Bilinear, graded-anticommutative."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim {a.dim} vs {b.dim}")
    degree = a.degree + b.degree
    if degree > a.dim:
        return Form._trusted(a.dim, degree, {})
    table = _wedge_table(a.dim, a.degree, b.degree)
    out = {}
    for ia, ca in a.coeffs.items():
        row = table[ia]
        for ib, cb in b.coeffs.items():
            idx, sign = row[ib]
            if idx is None:
                continue
            out[idx] = out.get(idx, 0.0) + sign * ca * cb
    return Form._trusted(a.dim, degree, out)


def hodge(a: Form) -> Form:
    """Hodge star for the standard metric and orientation dx^{1..n}.

    Satisfies ** = (-1)^{k(n-k)} id; in particular ** = id for n = 7.
    """
    n = a.dim
    out = {}
    for idx, c in a.coeffs.items():
        comp, sign = _hodge_key(n, idx)
        out[comp] = out.get(comp, 0.0) + sign * c
    return Form._trusted(n, n - a.degree, out)


def interior(v, a: Form) -> Form:
    """Interior product i(v)a for a vector v in R^dim, or stacked (n, dim).

    An antiderivation of degree -1; on a degree-0 form returns the zero form.
    A coordinate that is zero (in every row) adds no term.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (a.dim,) or v.ndim not in (1, 2):
        raise DimensionMismatchError(f"vector shape {v.shape} vs dim {a.dim}")
    if a.degree == 0:
        return zero_form(a.dim, 0)
    cols, live = v.T, v.reshape(-1, a.dim).any(axis=0)  # entries, or (n,) columns
    out = {}
    for idx, c in a.coeffs.items():
        for pos, i in enumerate(idx):
            if not live[i - 1]:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            sign = -1.0 if pos % 2 else 1.0
            out[rest] = out.get(rest, 0.0) + sign * cols[i - 1] * c
    return Form._trusted(a.dim, a.degree - 1, out)


def inner(a: Form, b: Form) -> float:
    """Inner product with the monomial basis orthonormal; per row if stacked."""
    a._compat(b)
    keys = set(a.coeffs) & set(b.coeffs)
    total = sum(a.coeffs[k] * b.coeffs[k] for k in keys)
    return total if isinstance(total, np.ndarray) else float(total)


def pullback(A, a: Form) -> Form:
    """Pullback by the linear map A: R^n -> R^n, i.e. (A*a)(v...) = a(Av...).

    Functorial: pullback(AB, a) = pullback(B, pullback(A, a)).
    """
    A = np.asarray(A, dtype=float)
    n = a.dim
    if A.shape != (n, n):
        raise DimensionMismatchError(f"matrix shape {A.shape} vs dim {n}")
    if a.degree == 0:
        return a
    out = {}
    keys, cols = _subsets(n, a.degree)
    for row, c in zip(a._rows, a.coeffs.values()):
        # minors[m] = det A[row, cols[m]], one det call per monomial
        minors = np.linalg.det(A[row][:, cols].transpose(1, 0, 2)).tolist()
        for J, minor in zip(keys, minors):
            if minor != 0.0:
                out[J] = out.get(J, 0.0) + c * minor
    return Form._trusted(n, a.degree, out)


# -- vector-valued forms ----------------------------------------------------


@dataclass(frozen=True)
class VectorValuedForm:
    """A k-form with values in R^m, stored as m component Forms.

    Components share degree and ambient dimension.  The value slot is never
    rescaled by form-side operations such as vertical-degree splitting.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not 1 <= len(comps) <= 7:
            raise ValueError("value dimension must be between 1 and 7")
        d, k = comps[0].dim, comps[0].degree
        for c in comps:
            if c.dim != d or c.degree != k:
                raise DimensionMismatchError("components disagree in dim/degree")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self):
        return self.components[0].dim

    @property
    def degree(self):
        return self.components[0].degree

    def apply(self, frames):
        """Evaluate on stacked frames (n, degree, dim) -> (n, m)."""
        return _evaluate(_stacked(frames, (self.degree, self.dim)), *self._plan)

    @functools.cached_property
    def _plan(self):
        """(rows, coefficients, segments) for `_evaluate`: all components'
        minor rows in component order, one left-padded segment each."""
        comps = self.components
        sizes = [len(c.coeffs) for c in comps]
        width, segments, start = max(sizes) + 1, [], 1
        for size in sizes:
            segments.append([0] * (width - size) + list(range(start, start + size)))
            start += size
        return (_read_only(np.concatenate([c._rows for c in comps])),
                _read_only(np.array([x for c in comps for x in c.coeffs.values()]).T),
                _read_only(np.array(segments)))


# -- rendering --------------------------------------------------------------


def render(a: Form, label="dx") -> str:
    """Canonical text rendering '+-c*dx{i...}', sorted by index tuple."""
    _unstacked(a.coeffs)
    if a.degree == 0:
        return repr(a.coeffs.get((), 0.0))
    parts = []
    for idx in sorted(a.coeffs):
        c = a.coeffs[idx]
        if c == 0.0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = label + "{" + "".join(str(i) for i in idx) + "}"
        if mag == 1.0:
            parts.append(f"{sign}{body}")
        else:
            parts.append(f"{sign}{mag!r}*{body}")
    return "".join(parts) if parts else "0"
