"""Graph planes over TM = H + V and the vertical-energy hierarchy.

A projectable 3-plane is a 3x4 array T; the coefficients ve_k expand
sqrt det(I + eps T T^t) and control the anisotropic calibration
inequality omega(v) <= ve_1.
"""

import numpy as np

from g2fueter import g2core as g2
from g2fueter import splitting as sp

S = sp.standard_splitting()
lam, omega, theta, mu = S.form_parts()
print("structure forms of the standard splitting:")
for name, form in (("lambda", lam), ("omega", omega), ("Theta", theta), ("mu", mu)):
    print(f"  {name} = {form}")

# ve coefficients, two independent routes; each takes a stack of graph maps.
T = np.zeros((1, 3, 4))
T[0, 0, 0] = 1.0
print("single unit row:  series   ", sp.ve_series(T, 3)[0])
print("                  recursion", sp.ve_recursive(T, 3)[0])

fueter_T = np.zeros((3, 4))
fueter_T[0, 0] = 1.0
fueter_T[2, 2] = -1.0
print("the plane {e1+eta4, e2, e3-eta6}:", sp.ve_series(fueter_T[None], 3)[0])
print("  omega on its frame:", omega.apply(sp.graph_frames(fueter_T[None]))[0],
      " = ve_1 (equality case)")

# The comparison inequality, Monte Carlo at scale.
rep = sp.anisotropic_scan(sp.PlaneSampler(7), 20000, include_planes=[fueter_T])
print(f"anisotropic scan: {rep.samples} samples, max ratio {rep.max_ratio:.12f}, "
      f"violations {rep.violations}")
print("  equality cases re-examined by the six-way report:", len(rep.equality_cases))

# The plain semi-calibration scan for the 3-form and its eps-family.
for eps in (1.0, 0.1):
    phi_eps = sp.adiabatic_family(g2.standard_g2().phi, eps)
    g_eps = np.diag([1.0] * 3 + [eps] * 4)
    rep = sp.semi_calibration_scan(phi_eps, g_eps, sp.PlaneSampler(8), 20000)
    print(f"semi-calibration at eps={eps}: max ratio {rep.max_ratio:.6f}, "
          f"violations {rep.violations}")

# The graded equality ladder ties everything together plane by plane.
rng = np.random.default_rng(9)
worst = max(rep.max_residual for rep in sp.equality_ladder(rng.standard_normal((200, 3, 4))))
print("equality ladder, worst residual over 200 random planes:", worst)

# Vertical energy blows up toward non-projectable planes.
tilts = np.array([1.0, 1.4, 1.55, 1.5706])
spans = np.zeros((len(tilts), 3, 7))
spans[:, 0, 0], spans[:, 0, 3] = np.cos(tilts), np.sin(tilts)
spans[:, 1, 1] = spans[:, 2, 2] = 1.0
for tilt, ve1 in zip(tilts, sp.ve_series(sp.graph_from_planes(spans)[0], 1)[:, 1]):
    print(f"  tilt {tilt:.4f} -> ve_1 = {ve1:.3e}")
