"""Per-plane references for the Fueter suite's stacked kernels, bit for bit.

The two beta routes of `route-equivalence`, the completion and the beta
wedges of the six-way report run over the sample axis.  The functions
below are the per-plane code they replaced, kept here as it was: one
plane at a time, each beta without its zero entries, one LAPACK call and
one matrix-vector product per plane.  `check(Ts, V1, V2)` asserts that
every row of each stacked kernel has the references' float.hex values,
and each per-plane entry point (the n = 1 case) their key order too.

Both test_sample_axis.py (hypothesis draws) and a child of
test_blas_kernels.py (fixed draws, under several OpenBLAS kernels) call it.
"""

import math
import sys

import numpy as np

from g2fueter import exterior as ex
from g2fueter import fueter as fu
from g2fueter import splitting as sp

S = sp.standard_splitting()
G = S.g2
THETA = S.form_parts()[2]


# -- the per-plane references ----------------------------------------------------


def beta_ref(T):
    return ex.Form._trusted(7, 2, {(i + 1, a + 4): T[i, a] for i in range(3) for a in range(4)})


def norm_ref(form):
    sq = sum(c * c for c in form.coeffs.values())
    if form.coeffs and (sq < sys.float_info.min or sq == math.inf):
        return math.hypot(*form.coeffs.values())
    return float(np.sqrt(sq))


def chi1_via_beta_ref(T):
    return ex.hodge(ex.wedge(beta_ref(T), G.star_phi))


def chi1_via_projection_ref(T):
    L, keys = G.lambda_matrices[2]
    beta = beta_ref(T)
    vec = np.array([beta.coeffs.get(key, 0.0) for key in keys])
    proj = L @ (L.T @ vec)
    projected = ex.Form._trusted(7, 2, {key: proj[r] for r, key in enumerate(keys)})
    vec = np.array([projected.coeffs.get(key, 0.0) for key in keys])
    alpha = L.T @ vec
    return np.sqrt(3.0) * ex.Form(7, 1, {(i + 1,): alpha[i] for i in range(7)})


def beta_wedge_norms_ref(T):
    beta = beta_ref(T)
    return norm_ref(ex.wedge(beta, G.star_phi)), norm_ref(ex.wedge(beta, THETA))


def completion_ref(v1, v2):
    """fueter_complete with its system's condition number, then the graph
    map of the plane (v1, v2, v3), as graph_from_plane computed it."""
    dense = G.phi_dense

    def cross_f(a, b):
        return np.einsum("ijk,i,j->k", dense, a, b)

    h1, h2 = v1[:3], v2[:3]
    u1 = np.concatenate([np.zeros(3), v1[3:]])
    u2 = np.concatenate([np.zeros(3), v2[3:]])
    e1 = np.concatenate([h1, np.zeros(4)])
    e2 = np.concatenate([h2, np.zeros(4)])
    h3 = cross_f(e1, e2)
    rhs = -(cross_f(e1, u1) + cross_f(e2, u2))[3:]
    M = np.empty((4, 4))
    for a in range(4):
        eta = np.zeros(7)
        eta[3 + a] = 1.0
        M[:, a] = cross_f(h3, eta)[3:]
    v3 = h3.copy()
    v3[3:] += np.linalg.solve(M, rhs)
    span = np.vstack([v1, v2, v3])
    return v3, np.linalg.cond(M), np.linalg.solve(span[:, :3], span[:, 3:])


# -- the comparison ---------------------------------------------------------------


def _items(form):
    return [(key, float(c).hex()) for key, c in form.coeffs.items()]


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


def check(Ts, V1, V2):
    """Every stacked kernel against its reference on each row, and each
    per-plane entry point against it on the first row.

    Ts: graph maps (n, 3, 4); V1, V2: pairs (m, 7) with orthonormal
    horizontal parts.
    """
    for stacked, ref in ((fu.chi1_via_beta_many, chi1_via_beta_ref),
                         (fu.chi1_via_projection_many, chi1_via_projection_ref)):
        form = stacked(Ts, S)  # a row's keys may come in the stack's order
        assert [sorted(_items(form._sample(i))) for i in range(len(Ts))] == \
            [sorted(_items(ref(T))) for T in Ts]
    reports = fu.condition_residuals_many(Ts, S)
    got = [(r.beta_wedge_star_phi_norm, r.beta_wedge_theta_norm) for r in reports]
    assert [_hex(pair) for pair in got] == [_hex(beta_wedge_norms_ref(T)) for T in Ts]

    V3, conds = fu.fueter_complete_many(V1, V2, S)
    graphs, _ = sp.graph_from_planes(np.stack([V1, V2, V3], axis=1), S)
    want = [completion_ref(v1, v2) for v1, v2 in zip(V1, V2)]
    assert [_hex(v) for v in V3] == [_hex(v3) for v3, _, _ in want]
    assert _hex(conds) == [float(cond).hex() for _, cond, _ in want]
    assert [_hex(T) for T in graphs] == [_hex(T) for _, _, T in want]

    g = sp.GraphPlane(Ts[0], S)
    assert _items(fu.chi1_via_beta(g)) == _items(chi1_via_beta_ref(Ts[0]))
    assert _items(fu.chi1_via_projection(g)) == _items(chi1_via_projection_ref(Ts[0]))
    one = fu.condition_residuals(g)
    assert _hex([one.beta_wedge_star_phi_norm, one.beta_wedge_theta_norm]) == \
        _hex(beta_wedge_norms_ref(Ts[0]))
    v3 = fu.fueter_complete(V1[0], V2[0], S)
    graph, _ = sp.graph_from_plane(sp.Plane(np.vstack([V1[0], V2[0], v3])), S)
    assert _hex(v3) == _hex(want[0][0]) and _hex(graph.T) == _hex(want[0][2])


def pairs(angles, vertical):
    """Pairs whose horizontal parts are e1, e2 rotated by each angle, with
    the vertical parts (m, 2, 4)."""
    c, s = np.cos(angles), np.sin(angles)
    V = np.zeros((len(angles), 2, 7))
    V[:, 0, 0], V[:, 0, 1], V[:, 1, 0], V[:, 1, 1] = c, s, -s, c
    V[:, :, 3:] = vertical
    return V[:, 0], V[:, 1]


def fixed_draws(seed=0, n=40):
    """Graph maps with exact zeros, rank <= 2 rows (one row of T zero),
    rows whose squares underflow, and completion pairs with zeros."""
    rng = np.random.default_rng(seed)
    Ts = rng.standard_normal((n, 3, 4)) * (rng.random((n, 3, 4)) < 0.8)
    Ts[::3, rng.integers(3)] = 0.0
    Ts[::7] *= 1e-160
    vertical = rng.standard_normal((n, 2, 4)) * (rng.random((n, 2, 4)) < 0.8)
    angles = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2 * np.pi, n))
    return (Ts, *pairs(angles, vertical))
