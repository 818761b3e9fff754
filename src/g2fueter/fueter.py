"""The Fueter operator on projectable 3-planes and its characterizations.

A projectable plane is Fueter when the vertical vector
F(pi) = sum_i p_H(v_i) x p_V(v_i) vanishes; this module computes that
vector by several independent routes (cross products, the J-matrix
triple, contractions of the dual 4-form, wedge conditions on beta) and
exposes the equivalence as a six-way residual report.  It also provides
the completion constructions, the chi_i-from-beta formulas, the
linearization rank of the Fueter Grassmannian, and polar-space
dimensions for the associative and Fueter exterior systems.  Every
operation works on the one standard splitting, `standard_splitting()`,
and none takes a splitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import g2core
from .exterior import Form, _matvec, _rowdot, _stacked, _with_unit_vectors, hodge, interior, wedge
from .splitting import (
    DIM,
    GraphPlane,
    Plane,
    beta_of,
    graph_frames,
    standard_splitting,
    ve_series,
)

__all__ = [
    "JTriple",
    "standard_jtriple",
    "jtriple_from_splitting",
    "fueter_vector",
    "fueter_via_J",
    "fueter_map_matrix",
    "fueter_complete",
    "ConditionReport",
    "condition_residuals",
    "chi_component_values",
    "chi_via_beta",
    "chi1_via_beta",
    "chi1_via_projection",
    "linearization_rank",
    "polar_space_dim",
    "polar_dim_constancy",
]

CONSTRUCTION_TOL = 1e-12
IDENTITY_TOL = 1e-10
COVANISHING_TOL = 1e-9
NONVANISHING_FLOOR = 1e-6


# eq=False: ndarray fields make the generated __eq__/__hash__ raise; compare by identity
@dataclass(frozen=True, eq=False)
class JTriple:
    """Three anticommuting complex structures on V, as 4x4 matrices.

    Construction enforces J_i^2 = -id, J_1 J_2 = -J_3 and the mutual
    anticommutation relations.
    """

    J1: np.ndarray
    J2: np.ndarray
    J3: np.ndarray

    def __post_init__(self):
        Js = tuple(np.asarray(J, dtype=float).reshape(4, 4) for J in (self.J1, self.J2, self.J3))
        object.__setattr__(self, "J1", Js[0])
        object.__setattr__(self, "J2", Js[1])
        object.__setattr__(self, "J3", Js[2])
        # each guard is written so that a NaN fails it
        eye = np.eye(4)
        for J in Js:
            if not np.abs(J @ J + eye).max() <= CONSTRUCTION_TOL:
                raise ValueError("J^2 != -id")
        if not np.abs(Js[0] @ Js[1] + Js[2]).max() <= CONSTRUCTION_TOL:
            raise ValueError("J1 J2 != -J3")
        for i in range(3):
            for j in range(i + 1, 3):
                if not np.abs(Js[i] @ Js[j] + Js[j] @ Js[i]).max() <= CONSTRUCTION_TOL:
                    raise ValueError("J_i, J_j do not anticommute")

    def as_tuple(self):
        return (self.J1, self.J2, self.J3)


def standard_jtriple() -> JTriple:
    """The J matrices of the standard splitting (V coordinates eta_4..eta_7)."""
    J1 = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    J2 = np.array([
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    J3 = np.array([
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ])
    return JTriple(J1, J2, J3)


def jtriple_from_splitting() -> JTriple:
    """J_i as the action of h_i x (.) on V, in the splitting's V-frame."""
    dense = standard_splitting().g2.phi_dense
    Js = []
    for i in range(3):
        J = np.empty((4, 4))
        for a in range(4):
            for b in range(4):
                J[b, a] = dense[i, 3 + a, 3 + b]
        Js.append(J)
    return JTriple(*Js)


# -- the operator, by two routes ---------------------------------------------


def fueter_vector(Ts):
    """F(pi) = sum_i p_H(v_i) x p_V(v_i) of stacked graph maps (n, 3, 4)
    -> (n, 4), via cross products.

    Returns V-frame coordinates.  Independent of the choice of
    horizontal-orthonormal frame since it contracts against the dual of
    the horizontal inner product.
    """
    Ts = _stacked(Ts, (3, 4))
    dense = standard_splitting().g2.phi_dense
    out = np.zeros((len(Ts), 4))
    u = np.zeros((len(Ts), DIM))
    for i in range(3):
        u[:, 3:] = Ts[:, i]
        # (h_i x u)_k = phi(e_i, u, e_k) in frame coordinates; only vertical ones survive
        out += np.einsum("jk,nj->nk", dense[i], u)[:, 3:]
    return out


def fueter_via_J(Ts, J: JTriple):
    """F(pi) = sum_i J_i(p_V(v_i)) of stacked graph maps (n, 3, 4) -> (n, 4),
    the matrix route; J is the triple of the splitting, each J_i applied
    to each row by the one-plane matrix-vector product."""
    Ts = _stacked(Ts, (3, 4))
    return sum(_matvec(Ji, Ts[:, i]) for i, Ji in enumerate(J.as_tuple()))


def fueter_map_matrix():
    """Matrix of the linear map T -> F(pi) over row-major flattened T, 4 x 12."""
    J = jtriple_from_splitting()
    M = np.zeros((4, 12))
    for i, Ji in enumerate(J.as_tuple()):
        M[:, 4 * i: 4 * i + 4] = Ji
    return M


# -- completions -------------------------------------------------------------


def fueter_complete(V1, V2):
    """Complete stacked projectable pairs V1, V2 (n, 7) to the unique
    Fueter planes: the third frame vectors V3 (n, 7) and the condition
    numbers (n,) of their systems, from one stacked solve and cond call.

    The horizontal projections of each pair must be orthonormal.  Row i of
    V3 has p_H(v3) = p_H(v1) x p_H(v2); its vertical part is the unique
    solution of the square linear system J(h3) x = -(h1 x u1 + h2 x u2).
    Each row is guarded, and a non-finite entry raises ValueError.
    """
    V1, V2 = _stacked(V1, (DIM,)), _stacked(V2, (DIM,))
    if not (np.all(np.isfinite(V1)) and np.all(np.isfinite(V2))):
        raise ValueError("v1, v2 must be finite")
    H1, H2 = V1[:, :3], V2[:, :3]
    gram = [_rowdot(H1, H1) - 1.0, _rowdot(H2, H2) - 1.0, _rowdot(H1, H2)]
    if not np.all(np.abs(gram) <= 1e-10):
        raise ValueError("horizontal parts of v1, v2 must be orthonormal")

    def cross_f(a, b):  # row by row, in the one-plane einsum's order
        return np.einsum("ijk,ni,nj->nk", standard_splitting().g2.phi_dense, a, b)

    n = len(V1)
    E1, E2 = (np.where(np.arange(DIM) < 3, V, 0.0) for V in (V1, V2))  # horizontal parts
    H3 = cross_f(E1, E2)
    rhs = -(cross_f(E1, V1 - E1) + cross_f(E2, V2 - E2))[:, 3:]
    # column a of M: J(h3) eta_a, the vertical part of h3 x eta_a
    M = np.stack([cross_f(H3, np.tile(eta, (n, 1))) for eta in np.eye(DIM)[3:]], axis=2)[:, 3:]
    V3 = H3.copy()
    V3[:, 3:] += np.linalg.solve(M, rhs[..., None])[..., 0]
    return V3, np.linalg.cond(M)


# -- the six-way report --------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Residuals of the six equivalent Fueter conditions, computed by
    independent code paths.  On a Fueter plane all six vanish; on a
    generic plane none does (the gap entry is quadratic in the rest)."""

    anisotropic_gap: float
    fueter_norm: float
    chi1_norm: float
    theta_contraction_norm: float
    beta_wedge_star_phi_norm: float
    beta_wedge_theta_norm: float
    T: tuple

    def as_dict(self):
        return {
            "anisotropicGap": self.anisotropic_gap,
            "fueterNorm": self.fueter_norm,
            "chi1Norm": self.chi1_norm,
            "thetaContractionNorm": self.theta_contraction_norm,
            "betaWedgeStarPhiNorm": self.beta_wedge_star_phi_norm,
            "betaWedgeThetaNorm": self.beta_wedge_theta_norm,
            "T": [list(row) for row in self.T],
        }

    def residuals(self):
        return (
            self.anisotropic_gap,
            self.fueter_norm,
            self.chi1_norm,
            self.theta_contraction_norm,
            self.beta_wedge_star_phi_norm,
            self.beta_wedge_theta_norm,
        )

    def all_below(self):
        return all(abs(r) <= COVANISHING_TOL for r in self.residuals())

    def none_below(self):
        return all(abs(r) >= NONVANISHING_FLOOR for r in self.residuals())


def condition_residuals(Ts):
    """The six Fueter conditions on stacked graph maps (n, 3, 4), one report
    per plane, all over the sample axis: the wedge conditions on beta as
    stacked Form algebra."""
    frames = graph_frames(Ts)
    n = len(frames)
    lam, omega, theta, mu = standard_splitting().form_parts()

    # (1) anisotropic gap ve1 * volH(v) - omega(v); volH(v) = 1 in graph frame
    gap = ve_series(Ts, 1)[:, 1] - omega.apply(frames)

    # (2) |F| by cross products
    f = fueter_vector(Ts)
    f_norm = np.sqrt(_rowdot(f, f))

    # (3) |chi_1(v)| via chi_1 = -sum_a eta_a (x) i(eta_a) Theta
    chi1 = np.empty((n, 4))
    for a in range(4):
        chi1[:, a] = -interior(np.eye(DIM)[3 + a], theta).apply(frames)
    chi1_norm = np.sqrt(_rowdot(chi1, chi1))

    # (4) sup over the coframe of |Theta(v1,v2,v3, .)|
    quads = _with_unit_vectors(frames).reshape(-1, 4, DIM)
    theta_contraction = np.abs(theta.apply(quads)).reshape(n, DIM).max(axis=1)

    # (5) and (6): wedge conditions on beta, over the planes with one zero
    # pattern of T at a time, so each row's norm sums in its own key order
    Ts = frames[:, :, 3:]
    star_phi_norm, theta_norm = np.empty(n), np.empty(n)
    pattern = (Ts.reshape(n, 12) != 0.0) @ (1 << np.arange(12))  # one integer per plane
    for code in set(pattern.tolist()):
        rows = pattern == code
        beta = beta_of(Ts[rows])
        star_phi_norm[rows] = wedge(beta, standard_splitting().g2.star_phi).norm()
        theta_norm[rows] = wedge(beta, theta).norm()

    return [ConditionReport(
        anisotropic_gap=float(gap[row]),
        fueter_norm=float(f_norm[row]),
        chi1_norm=float(chi1_norm[row]),
        theta_contraction_norm=float(theta_contraction[row]),
        beta_wedge_star_phi_norm=float(star_phi_norm[row]),
        beta_wedge_theta_norm=float(theta_norm[row]),
        T=tuple(tuple(float(x) for x in row_) for row_ in T),
    ) for row, T in enumerate(Ts)]


# -- chi components ------------------------------------------------------------


def chi_component_values(Ts):
    """[chi_0(v), .., chi_3(v)] of stacked graph maps (n, 3, 4), from the
    vertical-degree decomposition of the chi tensor: four (n, 7) arrays
    of ambient-frame vectors, chi_q of each plane in row order."""
    frames = graph_frames(Ts)
    return [p.apply(frames) for p in standard_splitting().chi_f_parts]


def chi_via_beta(Ts):
    """(chi_1(v)^flat, chi_2(v)^flat, chi_3(v)^flat) of stacked graph maps
    (n, 3, 4), as stacked 1-forms from beta.

    chi_1^flat = *(beta ^ *phi); chi_2^flat = -2 (lambda^4)^{-1} of the
    Lambda^4_7 part of beta^2/2; chi_3^flat = -*(beta^3/6).
    """
    G = standard_splitting().g2
    beta = beta_of(Ts)
    chi1 = chi1_via_beta(Ts)
    half_beta2 = 0.5 * wedge(beta, beta)
    chi2 = -2.0 * g2core.lambda_k_inverse(g2core.project_k7(half_beta2, 4, G), 4, G)
    beta3 = wedge(wedge(beta, beta), beta)
    chi3 = -1.0 * hodge((1.0 / 6.0) * beta3)
    return chi1, chi2, chi3


def chi1_via_beta(Ts) -> Form:
    """chi_1(v)^flat = *(beta ^ *phi) alone, the first of `chi_via_beta`, of
    stacked graph maps (n, 3, 4), as a stacked 1-form."""
    return hodge(wedge(beta_of(Ts), standard_splitting().g2.star_phi))


def chi1_via_projection(Ts) -> Form:
    """Alternative route: chi_1(v)^flat = sqrt(3) (lambda^2)^{-1} (pi^2_7 beta)
    of stacked graph maps (n, 3, 4), as a stacked 1-form."""
    G = standard_splitting().g2
    return np.sqrt(3.0) * g2core.lambda_k_inverse(g2core.project_2_7(beta_of(Ts), G), 2, G)


# -- linearization and polar spaces ----------------------------------------------


def linearization_rank(g: GraphPlane) -> int:
    """Rank of T -> F over the 12-dimensional graph coordinates at a Fueter
    point (|F| < IDENTITY_TOL).  The solution Grassmannian has dimension
    12 - rank (= 8)."""
    if not np.linalg.norm(fueter_vector(g.T[None])[0]) < IDENTITY_TOL:
        raise ValueError("input plane is not Fueter")
    M = fueter_map_matrix()
    return int(np.linalg.matrix_rank(M, tol=1e-10))


def polar_space_dim(W: Plane, system: str) -> int:
    """Dimension of the polar space of an integral s-plane (s in {0,1,2}).

    The generating sets are the 7 component 3-forms of chi (associative
    system) or the 4 components of chi_1 (Fueter system).  For s < 2 the
    ideal has no forms of degree s+1, so every direction extends; for
    s = 2 the polar space is the kernel of X -> chi(w1, w2, X) (or chi_1).
    """
    if system not in ("associative", "fueter"):
        raise ValueError(f"unknown system {system!r}")
    s = W.s
    if s >= 3:
        raise ValueError("polar spaces computed for s <= 2 only")
    if s < 2:
        return DIM

    S = standard_splitting()
    if system == "fueter":
        S.horizontal_part(W.span)  # the Fueter system needs a projectable plane
        generators = S.chi_f_parts[1]
    else:
        generators = S.g2.chi_form

    # row m: generator m on (w1, w2, e_j) for j = 1..7, in one evaluation
    M = generators.apply(_with_unit_vectors(_stacked(W.span[None], (2, DIM)))[0]).T
    rank = int(np.linalg.matrix_rank(M, tol=1e-10))
    return DIM - rank


def polar_dim_constancy(system: str, s: int, n: int, seed):
    """Sampled regularity check: polar dimensions over n random integral
    s-planes (projectable ones for the Fueter system) of the standard
    splitting.  Returns a dict dimension -> count; regularity at this
    scale means a single key."""
    rng = np.random.default_rng(seed)
    counts = {}
    produced = 0
    while produced < n:
        span = rng.standard_normal((s, DIM)) if s else np.zeros((0, DIM))
        if s:
            if np.linalg.svd(span, compute_uv=False)[-1] <= 1e-6:
                continue
            if system == "fueter" and s == 2:
                if np.linalg.svd(span[:, :3], compute_uv=False)[-1] <= 1e-6:
                    continue
        d = polar_space_dim(Plane(span), system) if s else DIM
        counts[d] = counts.get(d, 0) + 1
        produced += 1
    return counts
