from nctorus import Flux, build_basis
from nctorus import QuadratureSpec, state_norm, z_tilde, z_tilde_character_route
from nctorus import modular_invariance_report

# Summing the squared norms of all M*N ground states over the unit cell
# gives an eta-normalized partition sum that only sees the conformal
# class of the torus.
flux = Flux(1, 2)
tau = 0.4 + 1.2j
basis = build_basis(flux, tau)

# state_norm integrates all M*N states at once, in basis.labels() order.
for (j, k), norm in zip(basis.labels(), state_norm(basis)):
    print("norm^2 of state (%d, %d): %.12f" % (j, k, norm))

# Two independent routes: integrate the states themselves, or integrate
# the explicit theta-square density.  They must agree to quadrature
# accuracy.
za = z_tilde(basis)
zb = z_tilde_character_route(basis)
print("state route    :", za)
print("character route:", zb)
print("difference     :", abs(za - zb))

# tau -> tau+1 and tau -> -1/tau relabel the same torus, so the sum is
# unchanged; residuals sit at quadrature accuracy.
rep = modular_invariance_report(basis)
print("T residual:", rep.t_residual)
print("S residual:", rep.s_residual)

# The cell rule sizes itself from (K, Im tau), so the residuals already
# sit at the rounding floor.  The per-axis node floor is a property of the
# basis: raising it only adds nodes, to the norms, Z~ and the three bases
# of the invariance report alike, and leaves the residuals there.
for nodes in (8, 16, 32, 64):
    basis = build_basis(Flux(2, 3), 0.4 + 1.2j, quad=QuadratureSpec(nodes_per_axis=nodes))
    rep = modular_invariance_report(basis)
    print("nodes %2d, cell nodes %s: t residual %.3e" % (nodes, basis.cell_nodes, rep.t_residual))
