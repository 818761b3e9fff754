"""Fueter planes: six equivalent conditions, completion, polar spaces.

A projectable plane is Fueter when sum_i p_H(v_i) x p_V(v_i) = 0; the
same condition reappears as a calibration equality, a contraction of the
dual 4-form, and two wedge equations on beta.
"""

import numpy as np

from g2fueter import fueter as fu
from g2fueter import splitting as sp

E = np.eye(7)

# The operator itself, five ways: the last two are exterior algebra on beta.
T = np.zeros((3, 4))
T[0, 0] = 1.0  # the plane {e1 + eta4, e2, e3}
g = sp.GraphPlane(T)
print("F via cross products:", fu.fueter_vector(g))
print("F via the J matrices:", fu.fueter_via_J(g, fu.jtriple_from_splitting()))
print("chi_1 contraction:   ", fu.chi_component_values(g)[1][3:])
for name, chi1 in (("*(beta ^ *phi):      ", fu.chi1_via_beta(g)),
                   ("sqrt3 lambda^-1 pi_7:", fu.chi1_via_projection(g))):
    print(name, np.array([chi1.coeffs.get((i,), 0.0) for i in range(4, 8)]))

# Completion: any projectable orthonormal pair extends uniquely.
v3 = fu.fueter_complete(E[0] + E[3], E[1])
print("completion of (e1+eta4, e2):", v3, " (= e3 - eta6)")

rng = np.random.default_rng(3)
v1 = np.concatenate([[1.0, 0, 0], rng.standard_normal(4)])
v2 = np.concatenate([[0.0, 1, 0], rng.standard_normal(4)])
v3 = fu.fueter_complete(v1, v2)
gp, _ = sp.graph_from_plane(sp.Plane(np.vstack([v1, v2, v3])))

# All six residuals vanish together on the completed plane.
report = fu.condition_residuals(gp)
print("six-way report on a completed plane:")
for key, value in report.as_dict().items():
    if key != "T":
        print(f"  {key:24s} {value:.2e}")

generic = fu.condition_residuals(sp.GraphPlane(rng.standard_normal((3, 4))))
print("and on a generic plane:", [f"{r:.2f}" for r in generic.residuals()])

# Vanishing depth: a full-rank Fueter plane is exactly 2-vanishing; if it
# meets the horizontal distribution the last obstruction chi_3 dies too.
print("depth of the completed plane:", sp.equality_ladder(gp).vanishing_depth)
flat_T = np.zeros((3, 4))
flat_T[0, 0] = 1.0
flat_T[2, 2] = -1.0
print("depth of {e1+eta4, e2, e3-eta6}:",
      sp.equality_ladder(sp.GraphPlane(flat_T)).vanishing_depth)

# The solution set is an 8-dimensional linear slice of the 12 graph
# coordinates.
print("linearization rank:", fu.linearization_rank(gp),
      "-> solution dimension", 12 - fu.linearization_rank(gp))

# Polar spaces of the two exterior systems.
for system in ("associative", "fueter"):
    dims = [
        fu.polar_space_dim(sp.Plane(rng.standard_normal((1, 7))), system),
        fu.polar_space_dim(sp.Plane(rng.standard_normal((2, 7))), system),
    ]
    print(f"{system} polar dimensions (s=1, s=2): {dims}")
