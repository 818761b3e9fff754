"""The G2 linear algebra on R^7.

Builds the model 3-form, recovers the metric from a definite 3-form, and
provides the cross product, the associator/coassociator tensors, the
lambda^k isometries onto the 7-dimensional pieces of Lambda^k, and the
Lambda^2_7 / Lambda^2_14 projections.

All of it works in coordinates orthonormal for the metric of phi, which
is therefore the identity; another metric enters only as the matrix that
`scan semical` orthonormalizes its frames in.

A G2Structure owns the tensors derived from it (dense phi, chi and tau as
vector-valued forms, the lambda^k matrices): each is built lazily, once
per structure, and its arrays are read-only.  Every operation takes the
structure it works on explicitly; none falls back to the standard one.

Conventions fixed here once and used everywhere downstream:
  * orientation dx^{1...7};
  * the model 3-form has monomials 123, 145, 167, 246, -257, -347, -356;
  * its Hodge dual is produced by the star and pinned as a golden value
    (STAR_PHI0_TERMS), since every later sign refers to it.
Flipping the orientation flips the sign of the dual 4-form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exterior import (
    Form,
    VectorValuedForm,
    _matvec,
    _read_only,
    _stacked,
    _with_unit_vectors,
    basis_form,
    form_from_terms,
    hodge,
    interior,
    wedge,
)

__all__ = [
    "NotG2FormError",
    "G2Structure",
    "PHI0_TERMS",
    "STAR_PHI0_TERMS",
    "phi0",
    "star_phi0",
    "metric_from_phi",
    "standard_g2",
    "cross",
    "chi",
    "tau",
    "lambda_k",
    "lambda_k_inverse",
    "project_k7",
    "project_2_7",
    "project_2_14",
]

DIM = 7

# The seven signed monomials of the model 3-form.
PHI0_TERMS = (
    (1.0, (1, 2, 3)),
    (1.0, (1, 4, 5)),
    (1.0, (1, 6, 7)),
    (1.0, (2, 4, 6)),
    (-1.0, (2, 5, 7)),
    (-1.0, (3, 4, 7)),
    (-1.0, (3, 5, 6)),
)

# Golden value: star of the model 3-form, computed once by the Hodge star
# and verified against it in the test suite.  All downstream signs (chi,
# Theta, the J matrices) trace back to these seven monomials.
STAR_PHI0_TERMS = (
    (1.0, (4, 5, 6, 7)),
    (1.0, (2, 3, 4, 5)),
    (1.0, (2, 3, 6, 7)),
    (1.0, (1, 3, 5, 7)),
    (-1.0, (1, 2, 4, 7)),
    (-1.0, (1, 2, 5, 6)),
    (-1.0, (1, 3, 4, 6)),
)


class NotG2FormError(ValueError):
    """The 3-form does not induce a positive-definite metric."""


def phi0() -> Form:
    return form_from_terms(DIM, 3, PHI0_TERMS)


def star_phi0() -> Form:
    return form_from_terms(DIM, 4, STAR_PHI0_TERMS)


def metric_from_phi(phi: Form):
    """Recover the metric of a definite 3-form on R^7.

    B_ij dx^{1..7} = (1/6) i(e_i)phi ^ i(e_j)phi ^ phi, then g = B / det(B)^{1/9}.
    The scalar gauge det(B)^{1/9} is the one making vol_phi = vol_{g_phi}.
    Raises NotG2FormError if det(B) <= 0 or the normalized matrix is not
    positive definite.
    """
    if phi.dim != DIM or phi.degree != 3:
        raise ValueError("expected a 3-form on R^7")
    top = tuple(range(1, DIM + 1))
    contractions = [interior(_unit(i), phi) for i in range(DIM)]
    B = np.empty((DIM, DIM))
    for i in range(DIM):
        for j in range(i, DIM):
            w = wedge(wedge(contractions[i], contractions[j]), phi)
            B[i, j] = B[j, i] = w.coeffs.get(top, 0.0) / 6.0
    det = np.linalg.det(B)
    if not det > 0.0:
        raise NotG2FormError(f"det(B) = {det} is not positive")
    g = B / det ** (1.0 / 9.0)
    if not np.all(np.linalg.eigvalsh(g) > 0.0):
        raise NotG2FormError("normalized metric is not positive definite")
    return g


def _unit(i):
    v = np.zeros(DIM)
    v[i] = 1.0
    return v


# eq=False: ndarray fields make the generated __eq__/__hash__ raise; compare by identity
@dataclass(frozen=True, eq=False)
class G2Structure:
    """A constant-coefficient G2 structure on R^7, in coordinates where its
    metric is the identity and its orientation dx^{1..7}.

    Holds the 3-form and its dual 4-form, consistent (|phi|^2 = 7,
    star_phi = *phi) by construction and not re-checked per operation.
    The tensors derived from them (dense phi, chi, tau, the lambda^k
    matrices) are built lazily, once per structure; arrays are read-only.
    """

    phi: Form
    star_phi: Form

    @cached_property
    def phi_dense(self) -> np.ndarray:
        """phi as a dense 7x7x7 tensor."""
        return _read_only(self.phi.to_dense())

    @cached_property
    def chi_form(self) -> VectorValuedForm:
        """chi as a TM-valued 3-form: component m is (u,v,w) -> g(chi(u,v,w), e_m).

        Components are the 3-forms (*phi)(., ., ., e_m).
        """
        raw = []
        for m in range(DIM):
            comp = {}
            for idx, c in self.star_phi.coeffs.items():
                if (m + 1) in idx:
                    pos = idx.index(m + 1)
                    rest = idx[:pos] + idx[pos + 1:]
                    # move slot m to the last argument: (*phi)(u,v,w,e_m)
                    sign = 1.0 if (len(idx) - 1 - pos) % 2 == 0 else -1.0
                    comp[rest] = comp.get(rest, 0.0) + sign * c
            raw.append(Form(DIM, 3, comp))
        return VectorValuedForm(tuple(raw))

    @cached_property
    def tau_form(self) -> VectorValuedForm:
        """tau = phi ^ id_TM as a TM-valued 4-form (component m is phi ^ dx^m)."""
        return VectorValuedForm(
            tuple(wedge(self.phi, basis_form(DIM, (m,))) for m in range(1, DIM + 1))
        )

    @cached_property
    def lambda_matrices(self) -> dict:
        """k -> (L, keys) for k in {2, 4, 6}: the matrix of lambda^k over the
        monomial bases, shape (C(7,k), 7), and those bases' keys."""
        out = {}
        for k in (2, 4, 6):
            keys = list(itertools.combinations(range(1, DIM + 1), k))
            key_pos = {key: r for r, key in enumerate(keys)}
            L = np.zeros((len(keys), DIM))
            for j in range(1, DIM + 1):
                img = lambda_k(basis_form(DIM, (j,)), k, self)
                for idx, c in img.coeffs.items():
                    L[key_pos[idx], j - 1] = c
            out[k] = (_read_only(L), keys)
        return out


def standard_g2() -> G2Structure:
    return G2Structure(phi=phi0(), star_phi=star_phi0())


# -- pointwise tensors ------------------------------------------------------


def cross(u, v, G: G2Structure):
    """Cross product: g(u x v, w) = phi(u, v, w) for all w; row by row."""
    pairs = np.stack([u, v], axis=-2)
    triples = _with_unit_vectors(_stacked(pairs.reshape(-1, 2, DIM), (2, DIM)))
    return G.phi.apply(triples.reshape(-1, 3, DIM)).reshape(pairs.shape[:-2] + (DIM,))


def chi(frames, G: G2Structure):
    """Associator-defect vectors of stacked triples (n, 3, 7) -> (n, 7):
    g(chi(u,v,w), x) = (*phi)(u,v,w,x).

    Vanishes exactly on associative triples; together with phi it satisfies
    |phi(u,v,w)|^2 + |chi(u,v,w)|^2 = |u ^ v ^ w|^2.  (*phi)(u, v, w, e_x)
    for the seven unit vectors in one evaluation.
    """
    quads = _with_unit_vectors(_stacked(frames, (3, DIM)))
    return G.star_phi.apply(quads.reshape(-1, 4, DIM)).reshape(-1, DIM)


def tau(frames, G: G2Structure):
    """Coassociator-defect vectors from tau = phi ^ id_TM, of stacked
    quadruples (n, 4, 7) -> (n, 7).

    Satisfies |*phi(u,v,w,x)|^2 + |tau(u,v,w,x)|^2 = |u^v^w^x|^2.
    """
    return G.tau_form.apply(frames)


# -- lambda^k isometries and the 2-form projections --------------------------


def lambda_k(alpha: Form, k: int, G: G2Structure) -> Form:
    """The isometry lambda^k of 1-forms onto Lambda^k_7, k in {2, 4, 6}."""
    if alpha.dim != DIM or alpha.degree != 1:
        raise ValueError("expected a 1-form on R^7")
    if k == 2:
        return (1.0 / np.sqrt(3.0)) * interior(_coefficient_rows(alpha, _ONE_KEYS), G.phi)
    if k == 4:
        return 0.5 * wedge(alpha, G.phi)
    if k == 6:
        return hodge(alpha)
    raise ValueError(f"k must be 2, 4 or 6, got {k}")


_ONE_KEYS = [(i,) for i in range(1, DIM + 1)]


def _coefficient_rows(a: Form, keys):
    """a's coefficients over keys, absent ones 0.0: a vector, or the
    (n, len(keys)) rows of a stacked form."""
    return np.stack(np.broadcast_arrays(*(a.coeffs.get(key, 0.0) for key in keys)), axis=-1)


def lambda_k_inverse(beta: Form, k: int, G: G2Structure) -> Form:
    """Invert lambda^k on its image (adjoint of an isometry).

    For input not in Lambda^k_7 this returns the preimage of the projection.
    A stacked beta gives the stacked preimages, sample by sample.
    """
    if k not in (2, 4, 6):
        raise ValueError(f"k must be 2, 4 or 6, got {k}")
    L, keys = G.lambda_matrices[k]
    alpha = _matvec(L.T, _coefficient_rows(beta, keys))
    # alpha.T: the entries of a vector, the (n,) columns of stacked rows
    return Form._trusted(DIM, 1, dict(zip(_ONE_KEYS, alpha.T)))


def project_k7(a: Form, k: int, G: G2Structure) -> Form:
    """Projection of a k-form (k in {2,4,6}) onto the image of lambda^k,
    i.e. the 7-dimensional summand Lambda^k_7, as lambda^k o adjoint.  A
    stacked a gives the stacked projections, sample by sample."""
    if a.dim != DIM or a.degree != k:
        raise ValueError(f"expected a {k}-form on R^7")
    if k not in (2, 4, 6):
        raise ValueError(f"k must be 2, 4 or 6, got {k}")
    L, keys = G.lambda_matrices[k]
    proj = _matvec(L, _matvec(L.T, _coefficient_rows(a, keys)))
    return Form._trusted(DIM, k, dict(zip(keys, proj.T)))


def project_2_7(beta: Form, G: G2Structure) -> Form:
    """Projection of a 2-form onto the 7-dimensional piece Lambda^2_7.

    Implemented as lambda^2 composed with its adjoint; the eigenvalue
    characterization (beta + *(phi ^ beta))/3 is kept as an independent
    oracle in the tests.
    """
    return project_k7(beta, 2, G)


def project_2_14(beta: Form, G: G2Structure) -> Form:
    """Complementary projection onto Lambda^2_14 = ker(beta -> beta ^ *phi)."""
    return beta - project_2_7(beta, G)
