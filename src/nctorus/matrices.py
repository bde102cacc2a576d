r"""Finite-dimensional matrix realizations of the quantum torus at
rational flux: clock/shift pairs, Weyl elements, the dual pair acting
at the reciprocal parameter, commutant and span diagnostics, the
bimodule consistency report against the wavefield states, and the
q-deformed sl2 generators.

At flux ``kappa = N/M`` the elementary magnetic translations act on the
M-fold index of the ground space as the clock and shift matrices

    C = e^{i*alpha1/M} diag(1, w, ..., w^{M-1}),   w = e^{2*pi*i*N/M},
    S = e^{i*alpha2/M} (ones on the subdiagonal and top-right corner),

with ``C S = e^{2*pi*i*N/M} S C`` and ``C^M = e^{i*alpha1} I``,
``S^M = e^{i*alpha2} I``.  Weyl elements carry the symmetric
normalization ``W(m) = q^{-m1*m2/2} C^{m1} S^{m2}`` with the *fixed*
half-angle root ``q^{1/2} = e^{i*pi*N/M}``, which makes the cocycle

    W(m) W(n) = e^{i*pi*kappa*(m x n)} W(m + n)

exact for all winding numbers.  Every Weyl element is monomial, a phase
vector times a cyclic shift, ``W(m)[(j + m2) % M, j] = phases[j]``; the
cocycle and span diagnostics work on that form, and dense matrices are
built only where a caller takes one.  The dual pair is the N-dimensional
clock/shift at parameter ``e^{2*pi*i*M/N}``.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import VacuumAngles
from .errors import DegenerateDeformationError
from .lll import LLLBasis, coefficient_matrix, elementary_translation

__all__ = [
    "CSMatrix",
    "WeylWord",
    "clock_matrix",
    "shift_matrix",
    "clock_power",
    "shift_power",
    "weyl_element",
    "q_commutation_residual",
    "weyl_cocycle_residual",
    "holonomy_residual",
    "dual_matrices",
    "sine_structure_residual",
    "commutant_dimension",
    "weyl_span_dimension",
    "bimodule_consistency",
    "UqSl2Generators",
    "uq_sl2_generators",
]

_NO_ANGLES = VacuumAngles()


@dataclass(frozen=True, eq=False)
class CSMatrix:
    """Unitary matrix representing a quantum-torus element."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be a square matrix")
        dev = np.max(np.abs(e @ e.conj().T - np.eye(e.shape[0])))
        if not dev <= 1e-12:  # NaN entries fail too
            raise ValueError("matrix is not unitary (deviation %.3e)" % dev)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def adjoint(self) -> "CSMatrix":
        return CSMatrix(self.entries.conj().T)

    def __matmul__(self, other: "CSMatrix") -> "CSMatrix":
        return CSMatrix(self.entries @ other.entries)


@dataclass(frozen=True)
class WeylWord:
    """Winding-number pair labeling a Weyl element."""

    m1: int
    m2: int

    def __post_init__(self):
        object.__setattr__(self, "m1", operator.index(self.m1))
        object.__setattr__(self, "m2", operator.index(self.m2))

    def cross(self, other: "WeylWord") -> int:
        return self.m1 * other.m2 - self.m2 * other.m1

    def __add__(self, other: "WeylWord") -> "WeylWord":
        return WeylWord(self.m1 + other.m1, self.m2 + other.m2)


def _clock_phases(m, n, alpha1, p) -> np.ndarray:
    """Diagonal of the p-th clock power."""
    j = np.arange(m)
    return np.exp(2j * math.pi * n * p * j / m) * cmath.exp(1j * alpha1 * p / m)


def _scatter(phases, shift) -> np.ndarray:
    """Dense monomial matrix with ``e[(j + shift) % M, j] = phases[j]``."""
    m = phases.size
    j = np.arange(m)
    e = np.zeros((m, m), dtype=complex)
    e[(j + shift) % m, j] = phases
    return e


def clock_power(m, n, alpha1, p) -> CSMatrix:
    """Closed-form p-th power of the clock matrix (any integer p)."""
    return CSMatrix(np.diag(_clock_phases(m, n, alpha1, p)))


def shift_power(m, alpha2, p) -> CSMatrix:
    """Closed-form p-th power of the shift matrix (any integer p)."""
    return CSMatrix(_scatter(np.full(m, cmath.exp(1j * alpha2 * p / m)), p))


def clock_matrix(m, n, alpha1=0.0) -> CSMatrix:
    """M-dimensional clock at parameter e^{2 pi i N/M}."""
    return clock_power(m, n, alpha1, 1)


def shift_matrix(m, alpha2=0.0) -> CSMatrix:
    """M-dimensional cyclic shift (subdiagonal plus top-right corner)."""
    return shift_power(m, alpha2, 1)


def _weyl_monomial(word: WeylWord, m, n, angles: VacuumAngles = _NO_ANGLES):
    """Phase vector and cyclic shift of the Weyl element W(word), which is
    monomial: ``W[(j + shift) % M, j] = phases[j]``.

    Raises ``ValueError`` when a phase is off the unit circle by more than
    1e-12 (or is NaN): the unitarity guarantee of :class:`CSMatrix`, in O(M).
    """
    shift = word.m2 % m
    rows = (np.arange(m) + shift) % m
    pref = cmath.exp(-1j * math.pi * n * word.m1 * word.m2 / m)
    s_phase = cmath.exp(1j * angles.alpha2 * word.m2 / m)
    phases = pref * (_clock_phases(m, n, angles.alpha1, word.m1)[rows] * s_phase)
    dev = float(np.max(np.abs(np.abs(phases) - 1.0)))
    if not dev <= 1e-12:
        raise ValueError("Weyl word is not unitary (deviation %.3e)" % dev)
    return phases, shift


def weyl_element(word: WeylWord, m, n, angles: VacuumAngles = _NO_ANGLES) -> CSMatrix:
    """Weyl element W(m1, m2) = q^{-m1 m2/2} C^{m1} S^{m2} with the
    fixed root q^{1/2} = e^{i pi N/M}."""
    return CSMatrix(_scatter(*_weyl_monomial(word, m, n, angles)))


def q_commutation_residual(m, n, angles: VacuumAngles = _NO_ANGLES, *,
                           inject_fault=False) -> float:
    """Max-entry residual of C S = e^{2 pi i N/M} S C.  With
    ``inject_fault`` the sign of the phase is flipped (compared against
    -q), so the residual is 2 for every M: a check that must fail."""
    c = clock_matrix(m, n, angles.alpha1).entries
    s = shift_matrix(m, angles.alpha2).entries
    q = cmath.exp(2j * math.pi * (n % m) / m)
    if inject_fault:
        q = -q
    return float(np.max(np.abs(c @ s - q * (s @ c))))


def weyl_cocycle_residual(m, n) -> float:
    """Worst max-entry residual of W(a) W(b) = e^{i pi kappa (a x b)} W(a + b)
    over all words a, b with entries in [-2, 2] (angles 0).

    Both sides are monomial with shift sa + sb: W(a) W(b) has phases
    ``pa[(j + sb) % M] * pb[j]``, so the 25 x 25 pairs compare phase
    vectors, and every other entry is zero on both sides."""
    # table[a1 + 4, a2 + 4]: phases of W(a1, a2), every word and every sum a + b
    span = range(-4, 5)
    table = np.array([[_weyl_monomial(WeylWord(a1, a2), m, n)[0] for a2 in span]
                      for a1 in span])
    u1, u2 = np.array([(a1, a2) for a1 in range(-2, 3) for a2 in range(-2, 3)]).T
    pa = table[u1 + 4, u2 + 4]
    cols = (np.arange(m) + u2[:, None]) % m
    lhs = pa[:, cols] * pa  # [a, b, j] = pa[a, (j + sb) % M] * pb[j]
    cross = u1[:, None] * u2 - u2[:, None] * u1
    # real argument: numpy's complex division by m rounds unlike the scalar
    # cmath phase of the cocycle law, and would move the residual by ulps
    rhs = (np.exp(1j * (math.pi * n * cross / m))[:, :, None]
           * table[u1[:, None] + u1 + 4, u2[:, None] + u2 + 4])
    return float(np.max(np.abs(lhs - rhs)))  # np.max, unlike max, keeps a NaN


def holonomy_residual(m, n, angles: VacuumAngles = _NO_ANGLES) -> float:
    """Max-entry residual of the plaquette holonomy
    C S C^+ S^+ = e^{2 pi i N/M} I."""
    c = clock_matrix(m, n, angles.alpha1)
    s = shift_matrix(m, angles.alpha2)
    hol = (c @ s @ c.adjoint() @ s.adjoint()).entries
    return float(np.max(np.abs(hol - cmath.exp(2j * math.pi * n / m) * np.eye(m))))


def dual_matrices(m, n, angles: VacuumAngles = _NO_ANGLES):
    """The N-dimensional clock/shift pair at the reciprocal parameter
    e^{2 pi i M/N}."""
    return clock_matrix(n, m, angles.alpha1), shift_matrix(n, angles.alpha2)


def sine_structure_residual(m, n, word_a, word_b) -> float:
    """Max-entry residual of
    [W(a), W(b)] = 2i sin(pi kappa (a x b)) W(a + b)  (angles 0)."""
    wa = weyl_element(word_a, m, n).entries
    wb = weyl_element(word_b, m, n).entries
    wab = weyl_element(word_a + word_b, m, n).entries
    coeff = 2j * math.sin(math.pi * n * word_a.cross(word_b) / m)
    return float(np.max(np.abs(wa @ wb - wb @ wa - coeff * wab)))


def commutant_dimension(generators) -> int:
    """Dimension of {X : X G = G X for every generator G}, via the
    nullity of the stacked linear system on the d^2 matrix entries."""
    if not generators:
        raise ValueError("need at least one generator")
    mats = [g.entries if isinstance(g, CSMatrix) else np.asarray(g, dtype=complex)
            for g in generators]
    d = mats[0].shape[0]
    if any(g.shape != (d, d) for g in mats):
        raise ValueError("generators must share one dimension")
    eye = np.eye(d)
    blocks = [np.kron(g.T, eye) - np.kron(eye, g) for g in mats]
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return d * d
    rank = int(np.sum(s > 1e-10 * s[0]))
    return d * d - rank


def weyl_span_dimension(m, n) -> int:
    """Dimension of the linear span of the Weyl words W(m1, m2) with
    0 <= m1, m2 < M (equals M^2 exactly when gcd(M, N) = 1).

    Words of different shift fill disjoint entries, so the M^2 x M^2 rank
    splits into M blocks; block m2 stacks the phase vectors of W(., m2).
    The singular values are those of the full matrix, counted above
    1e-10 times the largest."""
    blocks = np.array([[_weyl_monomial(WeylWord(m1, m2), m, n)[0] for m1 in range(m)]
                       for m2 in range(m)])
    s = np.linalg.svd(blocks, compute_uv=False)
    return int(np.sum(s > 1e-10 * np.max(s)))


class UqSl2Generators(NamedTuple):
    """q-deformed sl2 triple and the residuals of its defining
    relations (only the q-exponentiated form of the Cartan relation is
    checkable from the matrices; a matrix-logarithm branch would be
    needed for J3 itself)."""

    j_plus: np.ndarray
    j_minus: np.ndarray
    q_j3: CSMatrix
    residuals: dict


def uq_sl2_generators(m, n) -> UqSl2Generators:
    """Realize J+ = (W(1,1) - W(-1,1))/(q - 1/q),
    J- = (W(-1,-1) - W(1,-1))/(q - 1/q), q^{J3} = C at q = e^{2 pi i N/M},
    and measure the relation residuals

        q^{J3} J+- q^{-J3} = q^{+-1} J+-,
        [J+, J-] = (q^{2 J3} - q^{-2 J3})/(q - 1/q).
    """
    if (2 * n) % m == 0:
        raise DegenerateDeformationError(
            "q^2 = 1 at flux %d/%d: the deformation parameter is degenerate" % (n, m)
        )
    q = cmath.exp(2j * math.pi * n / m)
    denom = q - 1.0 / q
    w = lambda m1, m2: weyl_element(WeylWord(m1, m2), m, n).entries
    j_plus = (w(1, 1) - w(-1, 1)) / denom
    j_minus = (w(-1, -1) - w(1, -1)) / denom
    q_j3 = clock_matrix(m, n)
    c = q_j3.entries
    c_inv = clock_power(m, n, 0.0, -1).entries
    c2 = clock_power(m, n, 0.0, 2).entries
    c2_inv = clock_power(m, n, 0.0, -2).entries
    res = {
        "conjugation_plus": float(
            np.max(np.abs(c @ j_plus @ c_inv - q * j_plus))
        ),
        "conjugation_minus": float(
            np.max(np.abs(c @ j_minus @ c_inv - j_minus / q))
        ),
        "commutator": float(
            np.max(
                np.abs(
                    j_plus @ j_minus - j_minus @ j_plus - (c2 - c2_inv) / denom
                )
            )
        ),
    }
    return UqSl2Generators(j_plus, j_minus, q_j3, res)


def bimodule_consistency(basis: LLLBasis) -> dict:
    """Check that the sampled ground states, viewed as an M x N array,
    carry the left clock/shift action of the M-dimensional pair and the
    right action of the N-dimensional dual pair, and that the two matrix
    actions commute exactly.

    Returns a report dict; individual mismatches beyond the tolerance
    1e-6 are listed (measured vs. predicted entries) rather than raised.
    """
    tol = 1e-6
    flux = basis.flux
    m, n = flux.denominator, flux.numerator
    angles = basis.angles
    # calibrated flattening (s, t) = (-j mod M, -k mod N); an involution,
    # so one index array relabels rows and columns alike
    j, k = np.arange(m)[:, None], np.arange(n)
    perm = ((-j % m) * n + (-k % n)).ravel()
    eye_m, eye_n = np.eye(m), np.eye(n)
    left_factors = {
        "d1": clock_matrix(m, n, angles.alpha1).entries,
        "d2": shift_matrix(m, angles.alpha2).entries,
    }
    dual_clock, dual_shift = dual_matrices(m, n, angles)
    right_factors = {"dual1": dual_clock.entries, "dual2": dual_shift.entries}
    predicted = {name: np.kron(x, eye_n) for name, x in left_factors.items()}
    predicted.update(
        {name: np.kron(eye_m, y) for name, y in right_factors.items()}
    )
    ops = {
        "d1": elementary_translation(basis, 1),
        "d2": elementary_translation(basis, 2),
        "dual1": elementary_translation(basis, 1, dual=True),
        "dual2": elementary_translation(basis, 2, dual=True),
    }
    deviations = {}
    mismatches = []
    for name, op in ops.items():
        measured = coefficient_matrix(basis, op)[np.ix_(perm, perm)]
        dev = np.abs(measured - predicted[name])
        deviations[name] = float(dev.max())
        if not deviations[name] <= tol:  # a NaN deviation is a mismatch
            idx = np.unravel_index(int(np.argmax(dev)), dev.shape)
            mismatches.append(
                {
                    "operator": name,
                    "index": (int(idx[0]), int(idx[1])),
                    "measured": complex(measured[idx]),
                    "predicted": complex(predicted[name][idx]),
                }
            )
    # kron(X, I) @ kron(I, Y) has exactly one contributing term per
    # entry, so evaluate both products through that structure (einsum
    # forms the scalar products directly, without BLAS FMA contraction);
    # scalar complex products commute bitwise, so the exact-commutation
    # claim is checkable as == 0.0.
    left_right = 0.0
    for x in left_factors.values():
        for y in right_factors.values():
            lr = np.einsum("ac,bd->abcd", x, y).reshape(m * n, m * n)
            rl = np.einsum("bd,ac->abcd", y, x).reshape(m * n, m * n)
            left_right = max(left_right, float(np.max(np.abs(lr - rl))))
    return {
        "deviations": deviations,
        "mismatches": mismatches,
        "left_right_commutator": left_right,
        "calibration": {"s": "(-j) mod M", "t": "(-k) mod N"},
        "tolerance": tol,
        "pass": not mismatches and left_right == 0.0,
    }
