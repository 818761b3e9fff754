"""Forms on R^7: wedge, Hodge star, contraction, pullback.

The library stores alternating forms sparsely over sorted index tuples.
This walkthrough builds the model 3-form and checks the basic identities
interactively.
"""

import numpy as np

from g2fueter import exterior as ex
from g2fueter import g2core as g2

phi = g2.phi0()
print("the model 3-form:")
print("  phi =", ex.render(phi))

# Its Hodge dual for the standard metric and orientation dx^{1..7}.
star_phi = ex.hodge(phi)
print("  *phi =", ex.render(star_phi))
print("  matches the pinned fixture:", star_phi.equals(g2.star_phi0(), 0.0))

# The star squares to the identity in odd dimension 7.
print("  ** = id:", ex.hodge(star_phi).equals(phi, 0.0))

# phi ^ *phi recovers |phi|^2 = 7 times the volume form.
top = ex.wedge(phi, star_phi)
print("  phi ^ *phi =", ex.render(top))
print("  <phi, phi> =", ex.inner(phi, phi))

# Contraction peels off the monomials containing a given index:
e1 = np.eye(7)[0]
print("  i(e1) phi =", ex.render(ex.interior(e1, phi)))

# Pullback by the anisotropic scaling splits phi into lambda + eps omega.
eps = 0.25
A = np.diag([1.0, 1, 1] + [np.sqrt(eps)] * 4)
print(f"  pullback by diag(1,1,1,sqrt({eps})..):", ex.render(ex.pullback(A, phi)))

# Forms evaluate on vectors through determinants of selected rows.
rng = np.random.default_rng(0)
u, v, w = rng.standard_normal((3, 7))
print("  phi(u, v, w) =", phi.apply(np.array([[u, v, w]]))[0])
