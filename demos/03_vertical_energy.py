"""Graph planes over TM = H + V and the vertical-energy hierarchy.

A projectable 3-plane is a 3x4 array T; the coefficients ve_k expand
sqrt det(I + eps T T^t) and control the anisotropic calibration
inequality omega(v) <= ve_1.
"""

import numpy as np

from g2fueter import splitting as sp

S = sp.standard_splitting()
lam, omega, theta, mu = S.form_parts()
print("structure forms of the standard splitting:")
for name, form in (("lambda", lam), ("omega", omega), ("Theta", theta), ("mu", mu)):
    print(f"  {name} = {form}")

# ve coefficients, two independent routes.
T = np.zeros((3, 4))
T[0, 0] = 1.0
g = sp.GraphPlane(T)
print("single unit row:  series   ", sp.ve_series(g, 3))
print("                  recursion", sp.ve_recursive(g, 3))

fueter_T = np.zeros((3, 4))
fueter_T[0, 0] = 1.0
fueter_T[2, 2] = -1.0
gf = sp.GraphPlane(fueter_T)
print("the plane {e1+eta4, e2, e3-eta6}:", sp.ve_series(gf, 3))
print("  omega on its frame:", omega.apply(list(gf.frame())), " = ve_1 (equality case)")

# The comparison inequality, Monte Carlo at scale.
rep = sp.anisotropic_scan(sp.PlaneSampler(7), 20000, include_planes=[fueter_T])
print(f"anisotropic scan: {rep.samples} samples, max ratio {rep.max_ratio:.12f}, "
      f"violations {rep.violations}")
print("  equality cases re-examined by the six-way report:", len(rep.equality_cases))

# The plain semi-calibration scan for the 3-form and its eps-family.
for eps in (1.0, 0.1):
    phi_eps = sp.adiabatic_family(S.g2.phi, eps)
    g_eps = np.diag([1.0] * 3 + [eps] * 4)
    rep = sp.semi_calibration_scan(phi_eps, g_eps, sp.PlaneSampler(8), 20000)
    print(f"semi-calibration at eps={eps}: max ratio {rep.max_ratio:.6f}, "
          f"violations {rep.violations}")

# The graded equality ladder ties everything together plane by plane.
rng = np.random.default_rng(9)
worst = max(
    sp.equality_ladder(sp.GraphPlane(rng.standard_normal((3, 4)))).max_residual
    for _ in range(200)
)
print("equality ladder, worst residual over 200 random planes:", worst)

# Vertical energy blows up toward non-projectable planes.
for theta_angle in (1.0, 1.4, 1.55, 1.5706):
    span = np.zeros((3, 7))
    span[0, 0], span[0, 3] = np.cos(theta_angle), np.sin(theta_angle)
    span[1, 1] = span[2, 2] = 1.0
    gp, _ = sp.graph_from_plane(sp.Plane(span))
    print(f"  tilt {theta_angle:.4f} -> ve_1 = {sp.ve_series(gp, 1)[1]:.3e}")
