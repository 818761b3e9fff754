"""The G2 package of tensors: metric, cross product, associator defect.

The 3-form determines everything else; this script recovers the metric,
exercises the cross product, and verifies the associator and
coassociator equalities on random inputs.
"""

import numpy as np

from g2fueter import exterior as ex
from g2fueter import g2core as g2

G = g2.standard_g2()

# The metric is recovered from the 3-form alone, normalized so the
# induced volume form equals the metric one.
print("metric of the model form:\n", g2.metric_from_phi(G.phi))

eps = 0.09
phi_eps = ex.pullback(np.diag([1.0, 1, 1] + [np.sqrt(eps)] * 4), G.phi)
print("metric of the eps-scaled form (diagonal):",
      np.diag(g2.metric_from_phi(phi_eps)))

# Cross products read off the 3-form monomials: 145 gives e1 x e4 = e5.
E = np.eye(7)
print("e1 x e2 =", g2.cross(E[0], E[1], G))
print("e1 x e4 =", g2.cross(E[0], E[3], G))
print("e2 x e5 =", g2.cross(E[1], E[4], G))

# chi measures the failure of a 3-plane to be associative; it takes a
# stack of triples, as every evaluation does.
chis = g2.chi(np.array([E[0:3], E[3:6]]), G)
print("chi(e1,e2,e3) =", chis[0], " (associative)")
print("chi(e4,e5,e6) =", chis[1], " (coassociative triple)")

rng = np.random.default_rng(1)
U = rng.standard_normal((2000, 3, 7))
lhs = G.phi.apply(U) ** 2 + np.sum(g2.chi(U, G) ** 2, axis=1)
worst = np.abs(lhs - np.linalg.det(U @ U.swapaxes(1, 2))).max()
print("associator equality, worst residual over 2000 triples:", worst)

V = rng.standard_normal((2000, 4, 7))
t = g2.tau(V, G)
lhs = G.star_phi.apply(V) ** 2 + np.sum(t * t, axis=1)
worst = np.abs(lhs - np.linalg.det(V @ V.swapaxes(1, 2))).max()
print("coassociator equality, worst residual over 2000 quadruples:", worst)

# The lambda^k maps are isometries onto the 7-dimensional summands.
alpha = ex.basis_form(7, (1,))
for k in (2, 4, 6):
    img = g2.lambda_k(alpha, k, G)
    print(f"lambda^{k}(dx1): degree {img.degree}, norm {img.norm():.12f}")

# A 2-form splits into a 7- and a 14-dimensional piece; membership in
# the latter is detected by wedging with *phi.
beta = ex.form_from_terms(7, 2, [(1.0, (1, 4)), (-2.0, (2, 6)), (0.5, (4, 5))])
b14 = g2.project_2_14(beta, G)
print("|pi_14(beta) ^ *phi| =", ex.wedge(b14, G.star_phi).norm())
