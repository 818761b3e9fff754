"""Real Fourier-Mukai transform of graph sections and instanton residuals.

A section x -> (x, u(x)) of B x T^4 maps to the connection
d + sqrt(-1) sum_a u^a(x) dy^a on the trivial line bundle over the dual
fibration B x (T^4)*.  Complex scalars never appear: the curvature is
stored as the real 2-form K = sum_{i,a} du^a/dx^i dx^i ^ dy^a with the
fixed convention F = sqrt(-1) K, and every residual below is a norm, so
the factor sqrt(-1) drops out.

At points x (n, 3), one per row of a map with n rows, each function
works row by row on stacked forms, float for float as at one point.

Coordinates: x^1..x^3 are indices 1..3, the dual-torus coordinates
y^4..y^7 (period 1) are indices 4..7.  The original fiber has period
2 pi; the diffeomorphism Psi identifying the two rescales dy^a to
(1/2 pi) dz^a, and that constant lives in exactly one place
(psi_pullback).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import Form, _rowdot, wedge
from .pde import AnalyticMap, fueter_operator_flat
from .splitting import beta_of, standard_splitting

__all__ = [
    "LineConnection",
    "fm_transform",
    "curvature",
    "psi_pullback",
    "beta_relation_residual",
    "instanton_residual",
    "ddt_residual",
    "radius_sweep",
    "sweep_slope",
    "fueter_residual_norm",
    "MIRROR_RATIO",
    "mirror_ratio",
]

DIM = 7

# |K ^ *phi| / |D u|: measured once over seeded random sections and pinned;
# the Hodge-star isometry makes it exactly 1 in this normalization.
MIRROR_RATIO = 1.0


@dataclass(frozen=True)
class LineConnection:
    """Connection coefficients of the transform of a lifted section.

    `b` holds u^4..u^7; the curvature 2-form K is pure H* (x) V* type by
    construction (no dxdx or dydy monomials can arise from d of
    x-dependent dy-coefficients).
    """

    b: AnalyticMap


def fm_transform(u: AnalyticMap) -> LineConnection:
    """The transform of a lift u: B -> R^4; lifts differing by constants
    in 2 pi Z^4 give the same curvature (gauge equivalence)."""
    return LineConnection(b=u)


def curvature(c: LineConnection, x) -> Form:
    """K(x) = sum du^a/dx^i dx^i ^ dy^a as a 2-form on R^7, without the
    entries that are zero (in every row)."""
    x = np.asarray(x, dtype=float)
    jets = c.b.jet1(x).reshape(-1, 4, 3)
    K = Form._trusted(DIM, 2, {(i + 1, a + 4): jets[:, a, i] for i in range(3) for a in range(4)
                               if jets[:, a, i].any()})
    return K if x.ndim > 1 else K._sample(0)


def psi_pullback(a: Form) -> Form:
    """Pullback by the fiber identification Psi: dy^a -> (1/2 pi) dz^a.

    The single place where the 2 pi period normalization enters.
    """
    out = {}
    for idx, cval in a.coeffs.items():
        q = sum(1 for i in idx if i >= 4)
        out[idx] = cval / (2.0 * np.pi) ** q
    return Form._trusted(a.dim, a.degree, out)


def beta_relation_residual(u: AnalyticMap, x) -> float:
    """|beta_iota - 2 pi Psi* K| at x.

    The left side comes from the graph-plane machinery applied to the
    section's tangent plane (fiber coordinates z of period 2 pi), the
    right side from the transform's curvature; the relation
    beta = -2 pi sqrt(-1) Psi* F makes them equal.
    """
    x = np.asarray(x, dtype=float)
    beta = beta_of(u.jet1(x).reshape(-1, 4, 3).swapaxes(1, 2))
    rhs = 2.0 * np.pi * psi_pullback(curvature(fm_transform(u), x))
    return ((beta if x.ndim > 1 else beta._sample(0)) - rhs).norm()


def instanton_residual(c: LineConnection, x) -> float:
    """|K ^ *phi| at x; zero exactly at G2-instanton points."""
    K = curvature(c, x)
    return wedge(K, standard_splitting().g2.star_phi).norm()


def fueter_residual_norm(u: AnalyticMap, x) -> float:
    """|D u| at x, the mirror-side residual."""
    D = fueter_operator_flat(u, np.asarray(x, dtype=float)).reshape(-1, 4)
    norms = np.sqrt(_rowdot(D, D))
    return norms if np.ndim(x) > 1 else float(norms[0])


def mirror_ratio(u: AnalyticMap, x) -> float:
    """Measured ratio |K ^ *phi| / |D u| at a point where both are nonzero."""
    denom = fueter_residual_norm(u, x)
    if np.any(denom == 0.0):
        raise ZeroDivisionError("Fueter residual vanishes at x")
    return instanton_residual(fm_transform(u), x) / denom


def ddt_residual(c: LineConnection, x, r: float) -> float:
    """Norm of the rescaled deformed-flatness 7-form at radius r.

    With F = sqrt(-1) K the equation (1/6) F^3 + r^4 F ^ *phi = 0 becomes
    sqrt(-1) (r^4 K ^ *phi - (1/6) K^3) = 0; the returned value is the
    norm of the real 7-form in parentheses.
    """
    if not r > 0.0:
        raise ValueError("radius must be positive")
    K = curvature(c, x)
    K3 = wedge(wedge(K, K), K)
    resid = (r ** 4) * wedge(K, standard_splitting().g2.star_phi) - (1.0 / 6.0) * K3
    return resid.norm()


def radius_sweep(c: LineConnection, x, radii):
    """(r, raw, normalized) rows over a radius list; normalized = raw / r^4.

    As r grows the normalized residual converges to the instanton
    residual at rate r^{-4}.
    """
    rows = []
    for r in radii:
        raw = ddt_residual(c, x, r)
        rows.append((float(r), float(raw), float(raw / r ** 4)))
    return rows


def sweep_slope(c: LineConnection, x, radii):
    """Least-squares log-log slope of |normalized - instanton| over radii."""
    inst = instanton_residual(c, x)
    gaps, rs = [], []
    for r, _, normalized in radius_sweep(c, x, radii):
        gap = abs(normalized - inst)
        if gap > 0.0:
            rs.append(np.log(r))
            gaps.append(np.log(gap))
    if len(gaps) < 2:
        raise ValueError("not enough nonzero gap points for a slope fit")
    slope = np.polyfit(rs, gaps, 1)[0]
    return float(slope)
