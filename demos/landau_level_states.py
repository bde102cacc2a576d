"""Ground-state Landau orbitals on the torus and their translation module."""

import numpy as np

from nctorus import (
    Flux,
    VacuumAngles,
    boundary_residual,
    build_basis,
    center_eigen_residual,
    eigenphase_table,
    gram_rank,
    raise_level,
)

flux = Flux(2, 3)                       # kappa = 2/3 -> 6 degenerate states
tau = 0.3 + 1.1j
angles = VacuumAngles(0.7, -1.3)

basis = build_basis(flux, tau, angles)
print("states:", basis.labels())

# Each state obeys the twisted boundary conditions of the unit cell.
worst = max(boundary_residual(basis, j, k) for j, k in basis.labels())
print("worst boundary-law residual:", worst)

# The four elementary translations act by eigenphases (diagonal pair)
# and by cyclic index shifts (off-diagonal pair).
table = eigenphase_table(basis)
for label in basis.labels():
    entry = table[label]
    print("state %s: d1 phase %s  d2 -> %s  dual2 -> %s"
          % (label, entry["d1_phase"], entry["d2_target"], entry["dual2_target"]))

# M applications of a translation come back to the same state, up to
# the vacuum angle: that pins the angles as central eigenvalues.  The
# residual is that of both powers' matrices on all six states at once.
residual, note = center_eigen_residual(basis)
print("center residual:", residual)

# The Gram matrix of the states has full numerical rank M*N: the six
# orbitals really are linearly independent.
print("gram rank:", gram_rank(basis), "expected", flux.level)

# Applying the raising operator lands in the next Landau level but
# keeps the boundary behaviour; levels are orthogonal, which a midpoint
# cell quadrature (spectral here: the integrand is periodic) confirms.
lifted = raise_level(basis, 0, 0)
n = 48
s = (np.arange(n) + 0.5) / n
w = np.repeat(s, n) + tau * np.tile(s, n)
wbar = np.conjugate(w)
parent = basis.state(0, 0).evaluate(w, wbar)
up = lifted.evaluate(w, wbar)
overlap = np.vdot(parent, up) / np.sqrt(np.vdot(parent, parent).real
                                        * np.vdot(up, up).real)
print("normalized overlap of lifted state with its parent:", abs(complex(overlap)))
