"""Homogeneous 7-dimensional models: Lie algebras with an adapted coframe.

Each model is a Lie algebra on R^7 whose invariant coframe e^1..e^3,
eta^4..eta^7 is orthonormal and carries the standard G2 form, with
H = span(e_1..e_3) associative.  The Chevalley-Eilenberg differential
encodes all invariant exterior derivatives through the structure
constants.

Convention: de^k(e_i, e_j) = -c_{ij}^k, i.e. de^k = -sum_{i<j} c_{ij}^k
e^i ^ e^j.  With [e_2, e_3] = 2 e_1 this gives de^1 = -2 e^{23}; reading
the double sum without the i < j restriction would double every
coefficient.

The quaternionic Heisenberg family follows the structure equation
de^i = sum_j B_{ij} omega_j verbatim; other sign conventions for the
same underlying algebra exist in the literature and are NOT equivalent
as G2 data (they change which forms are closed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import g2core
from .exterior import Form, basis_form, wedge, zero_form
from .splitting import standard_splitting

__all__ = [
    "LieAlgebraModel",
    "ClosednessFlags",
    "ce_differential",
    "jacobi_check",
    "model_product_flat",
    "model_su2_semidirect",
    "model_heisenberg",
    "model_by_name",
    "closedness_flags",
    "derivative_type_split",
    "smith_normal_form",
    "H1Descriptor",
    "h1_nilmanifold",
    "vertical_nonintegrability_pairs",
]

DIM = 7

OMEGA_MATRICES = (
    # omega_1 = eta^45 + eta^67, omega_2 = eta^46 - eta^57, omega_3 = -(eta^47 + eta^56)
    np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float),
    np.array([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]], dtype=float),
    np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float),
)


# eq=False: ndarray fields make the generated __eq__/__hash__ raise; compare by identity
@dataclass(frozen=True, eq=False)
class LieAlgebraModel:
    """A 7-dimensional Lie algebra with the standard adapted G2 coframe."""

    name: str
    c: np.ndarray  # c[i,j,k]: [e_i, e_j] = sum_k c[i,j,k] e_k, 0-based

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).reshape(DIM, DIM, DIM)
        object.__setattr__(self, "c", c)
        if np.abs(c + c.transpose(1, 0, 2)).max() != 0.0:
            raise ValueError("structure constants are not antisymmetric")
        viol = jacobi_check(c)
        if viol != 0.0:
            raise ValueError(f"Jacobi identity fails, max violation {viol}")

    def coframe_differentials(self):
        """de^k for k = 1..7 as 2-forms."""
        out = []
        for k in range(DIM):
            coeffs = {}
            for i in range(DIM):
                for j in range(i + 1, DIM):
                    if self.c[i, j, k] != 0.0:
                        coeffs[(i + 1, j + 1)] = -self.c[i, j, k]
            out.append(Form(DIM, 2, coeffs))
        return out

    def forms(self):
        """(lam, omega, Theta, mu) of the model, in the invariant coframe."""
        return standard_splitting().form_parts()


def jacobi_check(c) -> float:
    """Max violation of the Jacobi identity over all index quadruples."""
    c = np.asarray(c, dtype=float)
    jac = (
        np.einsum("jkl,ilm->ijkm", c, c)
        + np.einsum("kil,jlm->ijkm", c, c)
        + np.einsum("ijl,klm->ijkm", c, c)
    )
    return float(np.abs(jac).max())


def ce_differential(a: Form, m: LieAlgebraModel) -> Form:
    """Chevalley-Eilenberg differential of an invariant form.

    Linear, graded Leibniz, d^2 = 0 (the latter is the Jacobi identity,
    enforced at model construction).
    """
    d1 = m.coframe_differentials()
    out = zero_form(DIM, a.degree + 1)
    for idx, coef in a.coeffs.items():
        for t, i in enumerate(idx):
            term = d1[i - 1]
            if idx[:t]:
                term = wedge(basis_form(DIM, idx[:t]), term)
            if idx[t + 1:]:
                term = wedge(term, basis_form(DIM, idx[t + 1:]))
            sign = -1.0 if t % 2 else 1.0
            out = out + (sign * coef) * term
    return out


# -- catalog -------------------------------------------------------------------


def model_product_flat() -> LieAlgebraModel:
    """The abelian algebra: invariant model of the flat T^3 x T^4 product."""
    return LieAlgebraModel(name="product-flat", c=np.zeros((DIM, DIM, DIM)))


def _su2_rho():
    rho1 = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    rho2 = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)
    rho3 = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
    return rho1, rho2, rho3


def model_su2_semidirect() -> LieAlgebraModel:
    """su(2) acting on R^4 = C^2 by the standard representation.

    Brackets: [e_1, e_2] = 2 e_3 (cyclically) on H, [e_i, e_a] =
    rho(e_i) e_a, [e_a, e_b] = 0.
    """
    c = np.zeros((DIM, DIM, DIM))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 2.0
        c[j, i, k] = -2.0
    for i, rho in enumerate(_su2_rho()):
        for a in range(4):
            for b in range(4):
                if rho[b, a] != 0.0:
                    c[i, 3 + a, 3 + b] = rho[b, a]
                    c[3 + a, i, 3 + b] = -rho[b, a]
    return LieAlgebraModel(name="su2-semidirect", c=c)


def model_heisenberg(B) -> LieAlgebraModel:
    """Generalized quaternionic Heisenberg algebra for a 3x3 matrix B.

    [y, y'] = -sum_i (sum_j B_ij omega_j(y, y')) e_i on V, all other
    brackets zero; 2-step nilpotent, so Jacobi is automatic.  The
    structure equation reads de^i = sum_j B_ij omega_j.
    """
    B = np.asarray(B, dtype=float).reshape(3, 3)
    c = np.zeros((DIM, DIM, DIM))
    for a in range(4):
        for b in range(4):
            for i in range(3):
                val = -sum(B[i, j] * OMEGA_MATRICES[j][a, b] for j in range(3))
                c[3 + a, 3 + b, i] = val
    m = LieAlgebraModel(name="heisenberg", c=c)
    object.__setattr__(m, "B", B)
    return m


def model_by_name(name: str, B=None) -> LieAlgebraModel:
    """Catalog lookup: 'product-flat', 'su2-semidirect', 'heisenberg'
    (the latter with its 3x3 matrix B)."""
    if name == "product-flat":
        return model_product_flat()
    if name == "su2-semidirect":
        return model_su2_semidirect()
    if name == "heisenberg":
        if B is None:
            raise ValueError("heisenberg model needs the matrix B")
        return model_heisenberg(B)
    raise ValueError(f"unknown model {name!r}")


# -- closedness ----------------------------------------------------------------


@dataclass(frozen=True)
class ClosednessFlags:
    """Residual norms of d on the six structure forms.

    For catalog models with integer data the arithmetic is exact, so
    closedness is residual == 0 with no tolerance.
    """

    d_lambda: float
    d_omega: float
    d_theta: float
    d_mu: float
    d_phi: float
    d_star_phi: float

    def closed(self):
        return {
            "dLambda": self.d_lambda == 0.0,
            "dOmega": self.d_omega == 0.0,
            "dTheta": self.d_theta == 0.0,
            "dMu": self.d_mu == 0.0,
            "dPhi": self.d_phi == 0.0,
            "dStarPhi": self.d_star_phi == 0.0,
        }

    def as_dict(self):
        return {
            "dLambdaResidual": self.d_lambda,
            "dOmegaResidual": self.d_omega,
            "dThetaResidual": self.d_theta,
            "dMuResidual": self.d_mu,
            "dPhiResidual": self.d_phi,
            "dStarPhiResidual": self.d_star_phi,
        }


def closedness_flags(m: LieAlgebraModel) -> ClosednessFlags:
    lam, omega, theta, mu = m.forms()
    return ClosednessFlags(
        d_lambda=ce_differential(lam, m).norm(),
        d_omega=ce_differential(omega, m).norm(),
        d_theta=ce_differential(theta, m).norm(),
        d_mu=ce_differential(mu, m).norm(),
        d_phi=ce_differential(g2core.standard_g2().phi, m).norm(),
        d_star_phi=ce_differential(g2core.standard_g2().star_phi, m).norm(),
    )


def derivative_type_split(a: Form, m: LieAlgebraModel):
    """Split d a by type: d = F_H + d_H + d_V + F_V on (p,q)-forms.

    F_H raises the horizontal degree by two (lowering the vertical one);
    F_V is its mirror; both are algebraic.  Mixed-type input is split per
    type and merged.  Returns a dict with keys 'FH', 'dH', 'dV', 'FV'
    whose values sum to ce_differential(a, m).
    """
    vertical = range(4, DIM + 1)
    buckets = {
        "FH": zero_form(DIM, a.degree + 1),
        "dH": zero_form(DIM, a.degree + 1),
        "dV": zero_form(DIM, a.degree + 1),
        "FV": zero_form(DIM, a.degree + 1),
    }
    for q, part in a.vertical_degree_parts(vertical).items():
        d_part = ce_differential(part, m)
        for q_out, piece in d_part.vertical_degree_parts(vertical).items():
            key = {q - 1: "FH", q: "dH", q + 1: "dV", q + 2: "FV"}.get(q_out)
            if key is None:
                raise AssertionError(
                    f"differential moved vertical degree {q} to {q_out}"
                )
            buckets[key] = buckets[key] + piece
    return buckets


def vertical_nonintegrability_pairs(m: LieAlgebraModel):
    """V-frame pairs (a, b) with p_H([eta_a, eta_b]) != 0 (1-based indices).

    Nonempty exactly when V fails to be involutive, e.g. for the
    Heisenberg family with B != 0.
    """
    pairs = []
    for a in range(3, DIM):
        for b in range(a + 1, DIM):
            if np.abs(m.c[a, b, :3]).max() != 0.0:
                pairs.append((a + 1, b + 1))
    return pairs


# -- integer homology ------------------------------------------------------------


def smith_normal_form(B):
    """Exact Smith normal form over the integers.

    Returns (U, D, V) with U @ B @ V = D diagonal, |det U| = |det V| = 1,
    and nonnegative diagonal entries each dividing the next.  Pure-integer
    arithmetic throughout.
    """
    A = [[int(x) for x in row] for row in np.asarray(B)]
    if any(len(row) != len(A[0]) for row in A):
        raise ValueError("ragged matrix")
    n, mm = len(A), len(A[0])
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(mm)] for i in range(mm)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):  # row_dst += q * row_src
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(n, mm):
        # locate a minimal-magnitude nonzero pivot in the trailing block
        pivot = None
        for i in range(t, n):
            for j in range(t, mm):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            if A[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    add_row(i, t, -(A[i][t] // A[t][t]))
                    dirty = dirty or A[i][t] != 0
            for j in range(t + 1, mm):
                if A[t][j] != 0:
                    add_col(j, t, -(A[t][j] // A[t][t]))
                    dirty = dirty or A[t][j] != 0
            if dirty:
                pivot = min(
                    ((i, j) for i in range(t, n) for j in range(t, mm) if A[i][j] != 0),
                    key=lambda ij: abs(A[ij[0]][ij[1]]),
                )
                continue
            # row and column are clean; enforce divisibility of the block
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, mm):
                    if A[i][j] % A[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
            pivot = (t, t)
        t += 1

    D = [[A[i][j] for j in range(mm)] for i in range(n)]
    return (
        np.array(U, dtype=object),
        np.array(D, dtype=object),
        np.array(V, dtype=object),
    )


@dataclass(frozen=True)
class H1Descriptor:
    """First integral homology of the Heisenberg nilmanifold for a lattice
    matrix B: free rank and torsion invariant factors of Z^4 + Z^3/BZ^3."""

    free_rank: int
    torsion_factors: tuple
    invariant_factors: tuple

    @property
    def torsion_order(self):
        out = 1
        for d in self.torsion_factors:
            out *= d
        return out

    def __str__(self):
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{d}" for d in self.torsion_factors]
        return " + ".join(parts) if parts else "0"


def h1_nilmanifold(B) -> H1Descriptor:
    """H_1 of the compact quotient: Z^4 + Z^3/BZ^3 via Smith normal form.

    Requires all entries of B to be even integers, the condition for
    Z^3 x Z^4 to close under the group multiplication.
    """
    B = np.asarray(B, dtype=float)
    if np.any(B % 2 != 0):  # true for odd, fractional and non-finite entries
        raise ValueError("not a lattice-compatible B: entries must be even integers")
    _, D, _ = smith_normal_form(B)  # exact: each float entry becomes a Python int
    diag = [int(D[i, i]) for i in range(3)]
    free = 4 + sum(1 for d in diag if d == 0)
    torsion = tuple(d for d in diag if d > 1)
    return H1Descriptor(
        free_rank=free, torsion_factors=torsion, invariant_factors=tuple(diag)
    )
