"""Analytic solutions of the vertical equation and their energies.

On the flat product the operator is D = J_1 d_1 + J_2 d_2 + J_3 d_3 with
D^2 = -Laplacian, so harmonic maps generate solutions; on SU(2) the
identity picks up a zeroth-order term and the construction shifts
accordingly.  Solution sections minimize the vertical energy among
homotopic competitors and are critical for the Theta-action.
"""

import numpy as np

from g2fueter import pde

rng = np.random.default_rng(0)

# Solutions from harmonic maps: u = D F.
F = pde.random_harmonic_map(rng)
u = pde.harmonic_to_fueter(F)
pts = rng.standard_normal((2000, 3))
print("harmonic construction, sup residual:",
      np.abs(pde.fueter_operator_flat(u, pts)).max())

# The Newtonian potential gives a solution with a point singularity.
un = pde.harmonic_to_fueter(pde.NewtonianPotentialMap([1.0, 0, 0, 0]))
print("newtonian solution, sup residual:",
      np.abs(pde.fueter_operator_flat(un, pts[np.linalg.norm(pts, axis=1) > 0.3])).max())

# Integer affine solutions descend to torus sections.
sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
print("affine section holonomy matrix:\n", np.asarray(sec.periodicity))
E = pde.immersion_energies(pde.ImmersionGrid(sec, 8))
print("energies:", {k: round(v, 6) for k, v in E.items()})
print("covering degree of the doubled base map on an 8-grid:", pde.covering_degree(2, 8))

# On SU(2): D^2 = -Laplacian - 2 D, so (D + 2) of a harmonic map solves.
print("quaternion frame bracket residual:", pde.su2_frame_commutator_check())
Fc = pde.CotPotentialMap(p=[1.0, 0, 0, 0], v0=[0, 1.0, 0, 0])
hs = pde.random_su2_points(rng, 400)
hs = hs[np.abs(hs @ np.array([1.0, 0, 0, 0])) < 0.9]
uc = pde.ShiftedDiracMap(Fc)
print("cot-potential solution, sup residual:",
      np.abs(pde.su2_fueter_operator(uc, hs)).max())

# Minimization: 200 seeded perturbations never beat the solution section.
rep = pde.minimization_experiment(sec, 200, 0.1, seed=42, grid_n=8)
print("minimization experiment:", {k: rep[k] for k in
      ("samples", "veViolations", "totalViolations", "minGapVE")})

# The action functional is critical exactly at solution endpoints.
u0 = sec + pde.random_fourier_field(rng, kmax=1)
Z = pde.random_fourier_field(rng, kmax=1)
num, bnd = pde.cs_first_variation(u0, sec, Z, n=8)
print(f"first variation at a solution endpoint: numeric {num:.2e}, boundary {bnd:.2e}")

bad = pde.affine_map(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]))
u0b = bad + pde.random_fourier_field(rng, kmax=1)
num, bnd = pde.cs_first_variation(u0b, bad, pde.adversarial_variation(bad), n=8)
print(f"and at a non-solution endpoint:        numeric {num:.2e}, boundary {bnd:.2e}")
