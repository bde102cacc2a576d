"""
Clock and shift matrices: the finite quantum torus
==================================================
"""

import numpy as np

from nctorus import (
    Flux,
    WeylAlgebra,
    WeylWord,
    bimodule_consistency,
    build_basis,
    commutant_dimension,
    dual_matrices,
    q_commutation_residual,
    uq_sl2_generators,
    weyl_element,
    weyl_span_dimension,
)
from nctorus.errors import DegenerateDeformationError

# PART I -- the generators, held with the Weyl words by the algebra
m, n = 3, 2
algebra = WeylAlgebra(m, n)
clock, shift = algebra.clock, algebra.shift
print("clock:\n", np.round(clock.entries, 6))
print("shift:\n", shift.entries.real)
print("q-commutation residual:", q_commutation_residual(algebra))

# PART II -- Weyl words multiply up to a computable half-cell phase
wa, wb = WeylWord(1, 1), WeylWord(-1, 2)
prod = (weyl_element(wa, m, n) @ weyl_element(wb, m, n)).entries
print("weyl word product well-defined:", prod.shape)

# PART III -- irreducibility: nothing commutes with both generators,
# while the words span the full matrix algebra
print("commutant dimension:", commutant_dimension([clock, shift]))
print("weyl span dimension:", weyl_span_dimension(algebra), "= %d^2" % m)

# PART IV -- the reciprocal-parameter copy on N x N matrices
dc, ds = dual_matrices(algebra)
print("dual pair sizes:", dc.entries.shape, ds.entries.shape)

# PART V -- quantum sl2 inside the torus algebra
gens = uq_sl2_generators(WeylAlgebra(5, 2))
print("u_q(sl2) residuals:", gens.residuals)
try:
    uq_sl2_generators(WeylAlgebra(2, 1))
except DegenerateDeformationError as exc:
    print("degenerate case correctly refused:", exc)

# PART VI -- the translations act on the Landau orbitals from both sides
# as their laws predict; the predicted actions commute by construction
report = bimodule_consistency(build_basis(Flux(2, 3), 0.3 + 1.1j))
print("bimodule pass:", report["pass"],
      " left/right commutator:", report["left_right_commutator"])
