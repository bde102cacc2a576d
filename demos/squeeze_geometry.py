"""Complex structures and squeezing parameters of the torus."""

import numpy as np

from nctorus import (
    complex_structure_from_tau,
    in_fundamental_domain,
    reduce_to_fundamental_domain,
    squeeze_from_tau,
    squeeze_roundtrip_residual,
    tau_from_squeeze,
)

tau = 0.5 + 2.0j

# The modular parameter fixes a complex structure J with J^2 = -1.
j = complex_structure_from_tau(tau)
print("J =\n", j.matrix)
print("J^2 + 1 residual:", float(np.max(np.abs(j.matrix @ j.matrix + np.eye(2)))))

# Any tau is reachable from tau = i by a squeeze: (r, phi) parametrize
# the hyperbolic move, and the reconstruction is exact.
params = squeeze_from_tau(tau)
print("squeeze r = %.6f, phi = %.6f" % (params.r, params.phi))
print("reconstructed tau:", tau_from_squeeze(params))
print("roundtrip residual:", squeeze_roundtrip_residual(tau))

# Far-away tau reduce into the standard fundamental domain; the word of
# T and S moves that undoes the reduction comes along for free.
wild = 17.3 + 0.004j
reduced, word = reduce_to_fundamental_domain(wild)
print("reduced tau:", reduced, " in fundamental domain:",
      in_fundamental_domain(reduced))
print("reduction word length:", len(word))
