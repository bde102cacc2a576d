r"""Finite-dimensional matrix realizations of the quantum torus at
rational flux: clock/shift pairs, Weyl elements, the dual pair acting
at the reciprocal parameter, commutant and span diagnostics, and the
q-deformed sl2 generators.  This is the ideal algebra only: nothing here
reads a measured state.

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
vector times a cyclic shift, ``W(m)[(j + m2) % M, j] = phases[j]``, and
one routine builds the phases of any array of words in one numpy pass
(the clock's and the shift's powers are the words ``(p, 0)`` and
``(0, p)``).  Each root of unity is formed from its integer argument
reduced before the division by :func:`nctorus.core.phase_angle`, the one
home of that rule, and a word's phases carry the same bits alone or among
others.  The clock's table ``exp(2*pi*i*j/M)`` is one of the rule's two
exceptions: its ``j`` is already reduced, and its complex division differs
from the routine's angle in the last bit of some entries, which every
output of this module reads.  The other is the predicted phases of the
translation laws in :mod:`nctorus.lll`, one exponential of ``alpha1`` and
the reduced integer each.  The algebra checks, the U_q(sl2) relations
included, compare phase vectors.  The clock/shift pairs and ``q^{J3}``
are scattered from their phase vectors by :meth:`CSMatrix.monomial`,
which checks them in O(M).  A dense product runs only in the check of a
general :class:`CSMatrix` and in :func:`commutant_dimension`'s change of
basis for a first generator that is not diagonal; the clock is its own
eigenbasis.  The dual pair is the N-dimensional clock/shift at parameter
``e^{2*pi*i*M/N}``.

One op's ideal algebra is a :class:`WeylAlgebra` (the counterpart of
:class:`nctorus.lll.LLLBasis`), which the checks take: it builds, on
first use and once, one zero-angle table of every word in ``[-4, max(M,
5))^2`` (the span's, the cocycle's, the sine and the U_q(sl2) words) and
the clock/shift pair at the op's angles, one phase-routine call each, and
its ``dual`` is the algebra at ``(N, M)``.  Nothing is kept between
algebras, so each op builds its tables afresh.  The span's full rank is certified by the Gershgorin discs
of its blocks (:func:`nctorus.core.gershgorin_full_rank`) before any
singular value is computed.

On the ground states, with the labels ``(j, k)`` read as ``(-j mod M,
-k mod N)``, the translations are ``kron(C, I_N)``, ``kron(S, I_N)`` and
``I_M`` times the dual pair.  The check of the measured module against
those laws is :func:`nctorus.lll.bimodule_consistency`, which this module
re-exports under its old name.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import VacuumAngles, gershgorin_full_rank, phase_angle
from .errors import DegenerateDeformationError
# re-exported: benchmarks/tracing.py times it as matrices.bimodule_consistency
from .lll import bimodule_consistency

__all__ = [
    "CSMatrix",
    "WeylWord",
    "WeylAlgebra",
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
    "sine_algebra_residual",
    "commutant_dimension",
    "weyl_span_dimension",
    "commutant_and_span_residual",
    "bimodule_consistency",
    "UqSl2Generators",
    "uq_sl2_generators",
    "uq_sl2_residual",
]

_NO_ANGLES = VacuumAngles()


@dataclass(frozen=True, eq=False)
class CSMatrix:
    """Unitary matrix representing a quantum-torus element.

    ``CSMatrix(entries)`` checks general input with the dense product
    ``e e^H - I``; :meth:`monomial` builds a phase vector times a cyclic
    shift, which is unitary exactly when every phase lies on the unit
    circle, and checks that in O(M) instead."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be a square matrix")
        self._seal(e, np.max(np.abs(e @ e.conj().T - np.eye(e.shape[0]))))

    @classmethod
    def monomial(cls, phases, shift) -> "CSMatrix":
        """The monomial matrix ``e[(j + shift) % M, j] = phases[j]``.  Its
        ``e e^H`` is ``diag(|p|^2)``, so the deviation is the largest
        ``| |p|^2 - 1 |`` over the M phases, and no dense product is formed."""
        p = np.asarray(phases, dtype=complex)
        matrix = object.__new__(cls)
        matrix._seal(_scatter(p, shift), np.max(np.abs(p.real ** 2 + p.imag ** 2 - 1.0)))
        return matrix

    def _seal(self, e, dev):
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


def _scatter(phases, shift) -> np.ndarray:
    """Dense monomial matrix with ``e[(j + shift) % M, j] = phases[j]``."""
    m = phases.size
    j = np.arange(m)
    e = np.zeros((m, m), dtype=complex)
    e[(j + shift) % m, j] = phases
    return e


def clock_power(m, n, alpha1, p) -> CSMatrix:
    """Closed-form p-th power of the clock matrix (any integer p): the
    Weyl word (p, 0) at angles (alpha1, 0)."""
    return weyl_element(WeylWord(p, 0), m, n, VacuumAngles(alpha1, 0.0))


def shift_power(m, alpha2, p) -> CSMatrix:
    """Closed-form p-th power of the shift matrix (any integer p): the
    Weyl word (0, p) at angles (0, alpha2)."""
    return weyl_element(WeylWord(0, p), m, 1, VacuumAngles(0.0, alpha2))


def clock_matrix(m, n, alpha1=0.0) -> CSMatrix:
    """M-dimensional clock at parameter e^{2 pi i N/M}."""
    return clock_power(m, n, alpha1, 1)


def shift_matrix(m, alpha2=0.0) -> CSMatrix:
    """M-dimensional cyclic shift (subdiagonal plus top-right corner)."""
    return shift_power(m, alpha2, 1)


def _weyl_phases(m1, m2, m, n, angles: VacuumAngles = _NO_ANGLES):
    """Phase vectors and cyclic shifts of the Weyl elements W(m1[w], m2[w])
    for integer arrays of words, which are monomial:
    ``W[(j + shifts[w]) % M, j] = phases[w, j]``; returns ``(phases,
    shifts)`` of shapes ``(W, M)`` and ``(W,)``.

    The clock's row phase comes from ``r = (N m1 j) mod M`` and the
    prefactor ``q^{-m1 m2/2}`` from ``s = (N m1 m2) mod 2M``.  Each word
    takes the float operations of its scalar form, in the same order, so
    its phases carry the same bits alone or among others: the arguments
    ``2 pi i r / M`` (a complex division), ``-pi s / M`` and
    ``alpha m / M`` (real divisions), the exponential of each pure phase,
    and the product ``q^{-m1 m2/2} * (C^{m1}[rows] * S-phase)``.  The
    prefactor's angle is :func:`~nctorus.core.phase_angle` of ``s``, negated.
    The clock's rows are gathered from one table of the roots ``exp(2 pi i
    r / M)``, kept in its complex-division form, whose bits every output
    of this module reads; the rows ``(j + s) % M`` of every shift ``s``
    come from one M x M table.  No angle factor is formed where its angle
    ``alpha m / M`` is 0: that factor is ``1 + 0j``, whose product keeps
    every phase's bits, so a zero-angle table takes none.

    Raises ``ValueError`` when a phase is off the unit circle by more than
    1e-12 (or is NaN): the unitarity guarantee of :class:`CSMatrix`, in
    O(W M).
    """
    m1 = np.asarray(m1)
    m2 = np.asarray(m2)
    j = np.arange(m)
    shifts = m2 % m
    rows = (j + j[:, None]) % m  # rows[s, j] = (j + s) % M
    h = 2 * m  # every factor is reduced before a product, so none overflows int64
    roots = np.exp(2j * math.pi * j / m)
    clock = roots[n % m * (m1[:, None] % m) % m * rows[shifts] % m]
    for alpha, p in ((angles.alpha1, m1), (angles.alpha2, m2)):
        if alpha:  # a NaN angle is nonzero
            angle = alpha * p / m
            w = np.nonzero(angle)[0]
            clock[w] = clock[w] * np.exp(1j * angle[w])[:, None]
    pref = np.exp(1j * -phase_angle(n % h * (m1 % h) % h * (m2 % h), m))
    phases = pref[:, None] * clock
    dev = float(np.max(np.abs(np.abs(phases) - 1.0)))
    if not dev <= 1e-12:
        raise ValueError("Weyl word is not unitary (deviation %.3e)" % dev)
    return phases, shifts


def weyl_element(word: WeylWord, m, n, angles: VacuumAngles = _NO_ANGLES) -> CSMatrix:
    """Weyl element W(m1, m2) = q^{-m1 m2/2} C^{m1} S^{m2} with the
    fixed root q^{1/2} = e^{i pi N/M}."""
    phases, shifts = _weyl_phases([word.m1], [word.m2], m, n, angles)
    return CSMatrix(_scatter(phases[0], shifts[0]))


@dataclass(frozen=True, eq=False)
class WeylAlgebra:
    """The ideal algebra of one op at flux N/M and ``angles``.  Its two
    phase tables are cached properties, each one :func:`_weyl_phases`
    call made on first use: :attr:`words`, every word of ``[-4, max(M,
    5))^2`` at zero angles, and :attr:`pair`, the clock and the shift at
    the angles.  Every phase keeps the bits of its word alone."""

    m: int
    n: int
    angles: VacuumAngles = _NO_ANGLES

    @functools.cached_property
    def words(self) -> np.ndarray:
        """Zero-angle phases, ``words[m1 + 4, m2 + 4]`` the phase vector of
        W(m1, m2) (whose shift is ``m2 % M``) for m1, m2 in ``[-4, max(M,
        5))``."""
        # [-4, 4]^2 for the cocycle's products, [0, M)^2 for the span
        size = max(self.m, 5) + 4
        m1, m2 = np.array(np.divmod(np.arange(size * size), size)) - 4
        return _weyl_phases(m1, m2, self.m, self.n)[0].reshape(size, size, self.m)

    def phases(self, m1, m2) -> np.ndarray:
        """Zero-angle phase vectors of the words ``(m1[w], m2[w])``: rows
        of :attr:`words`, or one :func:`_weyl_phases` call where a word
        lies outside it."""
        m1, m2 = np.asarray(m1), np.asarray(m2)
        words = np.concatenate([m1, m2])
        if -4 <= words.min() and words.max() < max(self.m, 5):
            return self.words[m1 + 4, m2 + 4]
        return _weyl_phases(m1, m2, self.m, self.n)[0]

    @functools.cached_property
    def pair(self):
        """Phase vectors ``(c, s)`` of the clock W(1, 0) and the shift
        W(0, 1) at the angles."""
        (c, s), _ = _weyl_phases([1, 0], [0, 1], self.m, self.n, self.angles)
        return c, s

    @functools.cached_property
    def clock(self) -> CSMatrix:
        """:func:`clock_matrix` at ``angles.alpha1``, bit for bit."""
        return CSMatrix.monomial(self.pair[0], 0)

    @functools.cached_property
    def shift(self) -> CSMatrix:
        """:func:`shift_matrix` at ``angles.alpha2``, bit for bit."""
        return CSMatrix.monomial(self.pair[1], 1)

    @functools.cached_property
    def dual(self) -> "WeylAlgebra":
        """The algebra at ``(N, M)``: the dual pair at the reciprocal
        parameter, at the same angles."""
        return WeylAlgebra(self.n, self.m, self.angles)


def q_commutation_residual(algebra: WeylAlgebra, *, inject_fault=False) -> float:
    """Max-entry residual of C S = e^{2 pi i N/M} S C.  Both sides have
    shift 1, with phases ``c[(j + 1) % M] * s[j]`` and ``s[j] * c[j]``.  With
    ``inject_fault`` the sign of the phase is flipped (compared against
    -q), so the residual is 2 for every M: a check that must fail."""
    m, n = algebra.m, algebra.n
    c, s = algebra.pair
    q = cmath.exp(1j * phase_angle(2 * n, m))
    if inject_fault:
        q = -q
    return float(np.max(np.abs(np.roll(c, -1) * s - q * (s * c))))


def weyl_cocycle_residual(algebra: WeylAlgebra) -> float:
    """Worst max-entry residual of W(a) W(b) = e^{i pi kappa (a x b)} W(a + b)
    over all words a, b with entries in [-2, 2] (angles 0).

    Both sides are monomial with shift sa + sb: W(a) W(b) has phases
    ``pa[(j + sb) % M] * pb[j]``, so the 25 x 25 pairs compare phase
    vectors, and every other entry is zero on both sides."""
    m, n = algebra.m, algebra.n
    # table[a1 + 4, a2 + 4]: phases of W(a1, a2), every word and every sum a + b
    table = algebra.words
    u1, u2 = np.array(np.divmod(np.arange(25), 5)) - 2  # a, b in [-2, 2]^2
    pa = table[u1 + 4, u2 + 4]
    cols = (np.arange(m) + u2[:, None]) % m
    lhs = pa[:, cols] * pa  # [a, b, j] = pa[a, (j + sb) % M] * pb[j]
    cross = u1[:, None] * u2 - u2[:, None] * u1
    rhs = (np.exp(1j * phase_angle(n * cross, m))[:, :, None]
           * table[u1[:, None] + u1 + 4, u2[:, None] + u2 + 4])
    return float(np.max(np.abs(lhs - rhs)))  # np.max, unlike max, keeps a NaN


def holonomy_residual(algebra: WeylAlgebra) -> float:
    """Max-entry residual of the plaquette holonomy
    C S C^+ S^+ = e^{2 pi i N/M} I: the diagonal (C S) (S C)^+, on the
    phase vectors of :func:`q_commutation_residual`."""
    m, n = algebra.m, algebra.n
    c, s = algebra.pair
    hol = np.roll(c, -1) * s * np.conj(s * c)
    return float(np.max(np.abs(hol - cmath.exp(1j * phase_angle(2 * n, m)))))


def dual_matrices(algebra: WeylAlgebra):
    """The N-dimensional clock/shift pair at the reciprocal parameter
    e^{2 pi i M/N}: the clock and the shift of ``algebra.dual``."""
    return algebra.dual.clock, algebra.dual.shift


def sine_structure_residual(algebra: WeylAlgebra, word_a, word_b) -> float:
    """Max-entry residual of
    [W(a), W(b)] = 2i sin(pi kappa (a x b)) W(a + b)  (angles 0).

    The three words are rows of the algebra's table.  All three terms
    are monomial with shift sa + sb, so, as in
    :func:`weyl_cocycle_residual`, the products compare phase vectors:
    W(a) W(b) has phases ``pa[(j + sb) % M] * pb[j]``.  That is the dense
    matrices' product summed entry by entry, bit for bit; a BLAS product,
    which rounds some entries with fused multiply-adds, lies a few ulps
    away."""
    m, n = algebra.m, algebra.n
    word_ab = word_a + word_b
    pa, pb, pab = algebra.phases([word_a.m1, word_b.m1, word_ab.m1],
                                 [word_a.m2, word_b.m2, word_ab.m2])
    sa, sb = word_a.m2 % m, word_b.m2 % m
    j = np.arange(m)
    coeff = 2j * math.sin(phase_angle(n * word_a.cross(word_b), m))
    return float(np.max(np.abs(pa[(j + sb) % m] * pb - pb[(j + sa) % m] * pa - coeff * pab)))


def sine_algebra_residual(algebra: WeylAlgebra) -> float:
    """The larger :func:`sine_structure_residual` of the word pairs
    ``((1, 0), (0, 1))`` and ``((1, 1), (2, -1))``, taken by ``np.max``,
    which, unlike ``max``, keeps a NaN."""
    return float(np.max([
        sine_structure_residual(algebra, WeylWord(1, 0), WeylWord(0, 1)),
        sine_structure_residual(algebra, WeylWord(1, 1), WeylWord(2, -1))]))


def commutant_dimension(generators) -> int:
    """Dimension of {X : X G = G X for every generator G}, for
    :class:`CSMatrix` generators of one dimension d.

    The commutant is taken in the first generator's eigenbasis,
    ``G_0 = V diag(lam) V^-1`` (a unitary is diagonalizable); a diagonal
    ``G_0``, such as the clock, is its own, so ``V = I``, ``lam`` is its
    diagonal and neither an eigensolver nor a solve runs.  ``X``
    commutes with ``G_0`` exactly when ``Y = V^-1 X V`` vanishes at every
    entry ``(a, b)`` with ``lam_a != lam_b``, so the p free entries are the
    pairs with ``|lam_a - lam_b| <= 1e-10``.  Each other generator
    ``G' = V^-1 G V`` restricts ``Y G' - G' Y = 0`` to those entries, a
    d^2 x p block whose column ``(a, b)`` holds ``G'[b, :]`` in row ``a``
    minus ``G'[:, a]`` in column ``b``, with ``G'[b, b] - G'[a, a]`` where
    the two meet; the dimension is p minus the number of singular values
    of the stacked blocks above 1e-10.  For the clock, ``G' = G`` and
    p = M, so the system is M^2 x M.

    Both thresholds are absolute: the generators are unitary, so every
    eigenvalue gap lies in [0, 2] and, for a unitary V (the clock, or any
    unitary with distinct eigenvalues), every singular value of the
    stacked blocks of k generators lies in [0, 2 sqrt(k)].  A generator that is scalar
    up to round-off therefore has all d^2 entries free.  The rows of the
    stacked system that are zero at every entry are dropped before its
    singular values are taken, which leaves them unchanged: each block
    forms only the rows that its 2*p*d entries meet, in ascending order, so
    no d^2 x p block is allocated.
    """
    if not generators:
        raise ValueError("need at least one generator")
    if not all(isinstance(g, CSMatrix) for g in generators):
        raise TypeError("generators must be CSMatrix instances")
    d = generators[0].dim
    if any(g.dim != d for g in generators):
        raise ValueError("generators must share one dimension")
    g0 = generators[0].entries
    diagonal = np.count_nonzero(g0) == np.count_nonzero(g0.diagonal())
    if diagonal:  # its own eigenbasis: V = I
        lam = g0.diagonal()
    else:
        lam, v = np.linalg.eig(g0)
    a, b = np.nonzero(np.abs(lam[:, None] - lam) <= 1e-10)
    p = a.size
    if len(generators) == 1:
        return p
    cols = np.arange(p)[:, None]
    blocks = []
    for g in generators[1:]:
        gv = g.entries if diagonal else np.linalg.solve(v, g.entries @ v)
        # column (a, b) holds G'[b, j] in row (a, j) and -G'[i, a] in row (i, b)
        first, second = gv[b, :], gv[:, a].T
        # an all-zero row adds nothing to system^H system: the nonzero
        # singular values are those of the other rows (about 2M of M^2 for
        # a monomial G'), so only the rows (i, j) that a nonzero entry meets
        # are formed, numbered 1, 2, ... in ascending order; row 0 takes the
        # others' zeros
        used = np.zeros((d, d), dtype=bool)
        k, j = np.nonzero(first)
        used[a[k], j] = True
        k, i = np.nonzero(second)
        used[i, b[k]] = True
        position = np.cumsum(used).reshape(d, d)
        count = position[-1, -1]
        position *= used
        block = np.zeros((count + 1, p), dtype=complex)
        block[position[a], cols] = first
        block[position[:, b].T, cols] -= second  # G'[b, b] - G'[a, a] where they meet
        blocks.append(block[1:])
    system = np.vstack(blocks)
    # a row whose entries cancelled where they meet is zero too
    system = system[system.any(axis=1)]
    s = np.linalg.svd(system, compute_uv=False)
    return p - int(np.sum(s > 1e-10))


def weyl_span_dimension(algebra: WeylAlgebra) -> int:
    """Dimension of the linear span of the Weyl words W(m1, m2) with
    0 <= m1, m2 < M (equals M^2 exactly when gcd(M, N) = 1).

    Words of different shift fill disjoint entries, so the M^2 x M^2 rank
    splits into M blocks; block m2 stacks the phase vectors of W(., m2).
    The rank counts the singular values above 1e-10 times the largest.
    That count is M^2 without a singular value wherever the Gershgorin
    discs of the blocks' Gram matrices ``B B^H`` certify every eigenvalue
    above 1e-20 times the largest (the threshold, squared), as they do
    for every coprime (M, N), where ``B B^H = M I`` up to round-off."""
    m = algebra.m
    blocks = algebra.words[4:m + 4, 4:m + 4].swapaxes(0, 1)  # [m2, m1]
    if gershgorin_full_rank(blocks @ blocks.conj().swapaxes(1, 2), 1e-20)[0]:
        return m * m
    s = np.linalg.svd(blocks, compute_uv=False)
    return int(np.sum(s > 1e-10 * np.max(s)))


def commutant_and_span_residual(algebra: WeylAlgebra):
    """``(residual, note)``: how far the clock/shift commutant dimension is
    from 1 plus how far the Weyl span dimension is from M^2."""
    m = algebra.m
    dim = commutant_dimension([algebra.clock, algebra.shift])
    span = weyl_span_dimension(algebra)
    return float(abs(dim - 1) + abs(span - m * m)), (
        "holds by construction: the ideal clock/shift matrices have commutant "
        "dimension 1 and Weyl span M^2 for every coprime (M, N)")


class UqSl2Generators(NamedTuple):
    """q-deformed sl2 triple and the residuals of its defining
    relations (only the q-exponentiated form of the Cartan relation is
    checkable from the matrices; a matrix-logarithm branch would be
    needed for J3 itself)."""

    j_plus: np.ndarray
    j_minus: np.ndarray
    q_j3: CSMatrix
    residuals: dict


def uq_sl2_generators(algebra: WeylAlgebra) -> UqSl2Generators:
    """Realize J+ = (W(1,1) - W(-1,1))/(q - 1/q),
    J- = (W(-1,-1) - W(1,-1))/(q - 1/q), q^{J3} = C at q = e^{2 pi i N/M}
    (formed by :func:`~nctorus.core.phase_angle`, as the Weyl phases are),
    and measure the relation residuals

        q^{J3} J+- q^{-J3} = q^{+-1} J+-,
        [J+, J-] = (q^{2 J3} - q^{-2 J3})/(q - 1/q).

    J+- are monomial with shifts +-1 and the clock powers diagonal, so, as
    in :func:`sine_structure_residual`, the relations compare the vectors
    of their nonzero entries: the dense matrices' products summed entry by
    entry, bit for bit.  The dense J+- are formed only to be returned.
    """
    m, n = algebra.m, algebra.n
    if (2 * n) % m == 0:
        raise DegenerateDeformationError(
            "q^2 = 1 at flux %d/%d: the deformation parameter is degenerate" % (n, m)
        )
    q = cmath.exp(1j * phase_angle(2 * n, m))
    denom = q - 1.0 / q
    # the four words of J+- and the clock powers 1, -1, 2, -2, from the table
    pp, mp, mm, pm, c, c_inv, c2, c2_inv = algebra.phases(
        [1, -1, -1, 1, 1, -1, 2, -2], [1, 1, -1, -1, 0, 0, 0, 0])
    # the one nonzero entry of column j: J+[j + 1, j] and J-[j - 1, j]
    jp, jm = (pp - mp) / denom, (mm - pm) / denom
    j = np.arange(m)
    up, down = (j + 1) % m, (j - 1) % m
    # column j of a product is its one nonzero term, left * right as in the
    # dense product: (C J+ C^-1)[j + 1, j] = c[j + 1] * jp[j] * c_inv[j]
    res = {
        "conjugation_plus": float(np.max(np.abs(c[up] * jp * c_inv - q * jp))),
        "conjugation_minus": float(np.max(np.abs(c[down] * jm * c_inv - jm / q))),
        "commutator": float(np.max(np.abs(jp[down] * jm - jm[up] * jp - (c2 - c2_inv) / denom))),
    }
    j_plus = (_scatter(pp, 1) - _scatter(mp, 1)) / denom
    j_minus = (_scatter(mm, -1) - _scatter(pm, -1)) / denom
    return UqSl2Generators(j_plus, j_minus, CSMatrix.monomial(c, 0), res)


def uq_sl2_residual(algebra: WeylAlgebra):
    """Largest relation residual of :func:`uq_sl2_generators`, or
    ``(0.0, note)`` when ``q^2 = 1`` leaves no deformation to check."""
    try:
        gens = uq_sl2_generators(algebra)
    except DegenerateDeformationError:
        return 0.0, "skipped: degenerate deformation parameter"
    return float(np.max(list(gens.residuals.values())))  # np.max, unlike max, keeps a NaN
