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
# Every route takes a stack of graph maps; here a stack of one.
Ts = np.zeros((1, 3, 4))
Ts[0, 0, 0] = 1.0  # the plane {e1 + eta4, e2, e3}
print("F via cross products:", fu.fueter_vector(Ts)[0])
print("F via the J matrices:", fu.fueter_via_J(Ts, fu.jtriple_from_splitting())[0])
print("chi_1 contraction:   ", fu.chi_component_values(Ts)[1][0, 3:])
for name, chi1 in (("*(beta ^ *phi):      ", fu.chi1_via_beta(Ts)),
                   ("sqrt3 lambda^-1 pi_7:", fu.chi1_via_projection(Ts))):
    print(name, np.array([chi1.coeffs.get((i,), np.zeros(1))[0] for i in range(4, 8)]))

# Completion: any projectable orthonormal pair extends uniquely.
V3, _ = fu.fueter_complete([E[0] + E[3]], [E[1]])
print("completion of (e1+eta4, e2):", V3[0], " (= e3 - eta6)")

rng = np.random.default_rng(3)
v1 = np.concatenate([[1.0, 0, 0], rng.standard_normal(4)])
v2 = np.concatenate([[0.0, 1, 0], rng.standard_normal(4)])
V3, _ = fu.fueter_complete([v1], [v2])
completed, _ = sp.graph_from_planes(np.stack([v1, v2, V3[0]])[None])

# All six residuals vanish together on the completed plane.
generic = rng.standard_normal((1, 3, 4))
report, generic = fu.condition_residuals(np.concatenate([completed, generic]))
print("six-way report on a completed plane:")
for key, value in report.as_dict().items():
    if key != "T":
        print(f"  {key:24s} {value:.2e}")
print("and on a generic plane:", [f"{r:.2f}" for r in generic.residuals()])

# Vanishing depth: a full-rank Fueter plane is exactly 2-vanishing; if it
# meets the horizontal distribution the last obstruction chi_3 dies too.
flat_T = np.zeros((3, 4))
flat_T[0, 0] = 1.0
flat_T[2, 2] = -1.0
depths = [rep.vanishing_depth for rep in sp.equality_ladder(np.stack([completed[0], flat_T]))]
print("depth of the completed plane:", depths[0])
print("depth of {e1+eta4, e2, e3-eta6}:", depths[1])

# The solution set is an 8-dimensional linear slice of the 12 graph
# coordinates.
rank = fu.linearization_rank(sp.GraphPlane(completed[0]))
print("linearization rank:", rank, "-> solution dimension", 12 - rank)

# Polar spaces of the two exterior systems.
for system in ("associative", "fueter"):
    dims = [
        fu.polar_space_dim(sp.Plane(rng.standard_normal((1, 7))), system),
        fu.polar_space_dim(sp.Plane(rng.standard_normal((2, 7))), system),
    ]
    print(f"{system} polar dimensions (s=1, s=2): {dims}")
