import cmath
import functools
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus import cli, lll, matrices, partition
from nctorus.core import Flux, VacuumAngles, gershgorin_full_rank
from nctorus.errors import DegenerateDeformationError
from nctorus.lll import bimodule_consistency, bimodule_residual, build_basis, eigenphase_table
from nctorus.matrices import (
    CSMatrix,
    WeylAlgebra,
    WeylWord,
    clock_matrix,
    clock_power,
    commutant_dimension,
    dual_matrices,
    holonomy_residual,
    q_commutation_residual,
    shift_matrix,
    shift_power,
    sine_structure_residual,
    uq_sl2_generators,
    uq_sl2_residual,
    weyl_cocycle_residual,
    weyl_element,
    weyl_span_dimension,
)
from state_faults import swapped, with_window

ANGLES = VacuumAngles(0.7, -1.3)


def test_csmatrix_validation():
    with pytest.raises(ValueError):
        CSMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        CSMatrix(2.0 * np.eye(2))
    with pytest.raises(ValueError):
        CSMatrix(np.array([[np.nan]]))
    m = CSMatrix(np.eye(3))
    assert m.dim == 3
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


@pytest.mark.parametrize("bad", [math.sqrt(1 + 2e-12) * cmath.exp(0.3j), math.nan])
def test_monomial_rejects_a_phase_off_the_unit_circle(bad):
    # the monomial's O(M) check keeps the dense check's bound: |p|^2 - 1 at
    # 2e-12 fails, and so does a NaN; 0.5e-12 passes
    assert abs(abs(bad) ** 2 - 1 - 2e-12) < 1e-15 or math.isnan(bad.real)
    phases = np.exp(2j * np.pi * np.arange(3) / 3)
    phases[1] = bad
    with pytest.raises(ValueError, match="not unitary"):
        CSMatrix.monomial(phases, 1)
    with pytest.raises(ValueError, match="not unitary"):
        CSMatrix(matrices._scatter(phases, 1))
    phases[1] = math.sqrt(1 + 0.5e-12)
    m = CSMatrix.monomial(phases, 1)
    assert np.array_equal(m.entries, matrices._scatter(phases, 1))
    with pytest.raises(ValueError):
        m.entries[1, 0] = 5.0


def test_csmatrix_adjoint_and_product():
    c = clock_matrix(3, 2, 0.4)
    prod = c @ c.adjoint()
    assert np.max(np.abs(prod.entries - np.eye(3))) < 1e-15


def test_weyl_word_arithmetic():
    a = WeylWord(np.int64(1), np.int64(2))
    b = WeylWord(2, -1)
    assert a.cross(b) == -5
    assert a + b == WeylWord(3, 1)


def test_clock_matrix_small_cases():
    one = clock_matrix(1, 1, 0.7)
    assert one.dim == 1
    assert abs(one.entries[0, 0] - cmath.exp(0.7j)) < 1e-15
    pauli = clock_matrix(2, 1)
    assert np.max(np.abs(pauli.entries - np.diag([1.0, -1.0]))) < 1e-15


def test_shift_matrix_small_cases():
    one = shift_matrix(1, -1.3)
    assert abs(one.entries[0, 0] - cmath.exp(-1.3j)) < 1e-15
    s = shift_matrix(3)
    want = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.max(np.abs(s.entries - want)) == 0.0


def test_traces_vanish():
    for m, n in ((2, 1), (3, 2), (5, 3), (7, 4)):
        assert abs(np.trace(clock_matrix(m, n, 0.3).entries)) < 1e-13
        assert abs(np.trace(shift_matrix(m, 0.3).entries)) < 1e-13


def test_analytic_powers_match_brute_force():
    c = clock_matrix(5, 3, 0.7).entries
    s = shift_matrix(5, -1.3).entries
    for p in (0, 1, 2, 7):
        assert np.max(np.abs(
            clock_power(5, 3, 0.7, p).entries - np.linalg.matrix_power(c, p)
        )) < 1e-13
        assert np.max(np.abs(
            shift_power(5, -1.3, p).entries - np.linalg.matrix_power(s, p)
        )) < 1e-13
    # negative power = adjoint of positive power of the unitary
    assert np.max(np.abs(
        clock_power(5, 3, 0.7, -2).entries
        - np.linalg.matrix_power(c, 2).conj().T
    )) < 1e-13


def test_center_relations():
    for m, n in ((2, 1), (3, 2), (5, 3)):
        cm = clock_power(m, n, ANGLES.alpha1, m).entries
        sm = shift_power(m, ANGLES.alpha2, m).entries
        assert np.max(np.abs(cm - cmath.exp(1j * ANGLES.alpha1) * np.eye(m))) < 1e-12
        assert np.max(np.abs(sm - cmath.exp(1j * ANGLES.alpha2) * np.eye(m))) < 1e-12


def test_weyl_identity_and_half_angle():
    assert np.max(np.abs(weyl_element(WeylWord(0, 0), 3, 2).entries - np.eye(3))) == 0.0
    # W(1,1) equals q^{-1/2} W(1,0) W(0,1) with the fixed root e^{i pi N/M}
    m, n = 5, 2
    lhs = weyl_element(WeylWord(1, 1), m, n).entries
    rhs = (
        cmath.exp(-1j * math.pi * n / m)
        * weyl_element(WeylWord(1, 0), m, n).entries
        @ weyl_element(WeylWord(0, 1), m, n).entries
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-14


@pytest.mark.parametrize("mn", [(2, 1), (3, 2), (5, 3), (7, 2)])
def test_weyl_cocycle_all_small_words(mn):
    m, n = mn
    kappa = n / m
    for a1 in range(-3, 4):
        for a2 in range(-3, 4):
            for b1 in range(-3, 4):
                for b2 in range(-3, 4):
                    wa, wb = WeylWord(a1, a2), WeylWord(b1, b2)
                    lhs = (weyl_element(wa, m, n) @ weyl_element(wb, m, n)).entries
                    rhs = (
                        cmath.exp(1j * math.pi * kappa * wa.cross(wb))
                        * weyl_element(wa + wb, m, n).entries
                    )
                    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("mn", [(2, 1), (3, 2), (5, 3), (7, 2)])
def test_weyl_cocycle_residual(mn):
    assert weyl_cocycle_residual(WeylAlgebra(*mn)) < 1e-12


def _dense_cocycle_residual(m, n):
    # reference: the dense 5^4 loop over products of CSMatrix Weyl elements
    words = [WeylWord(a1, a2) for a1 in range(-2, 3) for a2 in range(-2, 3)]
    worst = 0.0
    for wa in words:
        for wb in words:
            lhs = (weyl_element(wa, m, n) @ weyl_element(wb, m, n)).entries
            rhs = (
                cmath.exp(1j * math.pi * (n * wa.cross(wb) % (2 * m)) / m)
                * weyl_element(wa + wb, m, n).entries
            )
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@pytest.mark.parametrize("mn", [(2, 1), (3, 2), (7, 3), (16, 3), (23, 2)])
def test_weyl_cocycle_residual_matches_dense_reference(mn):
    # the phase-vector products round differently from BLAS products of
    # the dense matrices, by at most a few ulp of the unit-modulus phases
    monomial = weyl_cocycle_residual(WeylAlgebra(*mn))
    dense = _dense_cocycle_residual(*mn)
    assert abs(monomial - dense) <= 1e-15
    assert monomial < 1e-12 and dense < 1e-12


@pytest.mark.parametrize("mn", [(1, 1), (2, 1), (3, 2), (4, 2), (6, 4), (7, 3)])
def test_weyl_span_dimension_matches_dense_rank(mn):
    m, n = mn
    rows = [
        weyl_element(WeylWord(m1, m2), m, n).entries.ravel()
        for m1 in range(m)
        for m2 in range(m)
    ]
    s = np.linalg.svd(np.stack(rows), compute_uv=False)
    assert weyl_span_dimension(WeylAlgebra(m, n)) == int(np.sum(s > 1e-10 * s[0]))


def test_weyl_element_matches_dense_product():
    # reference: W(m) = q^{-m1 m2/2} C^{m1} S^{m2} as a dense product,
    # at nonzero angles and for words outside [0, M)
    m, n = 7, 3
    for word in (WeylWord(0, 0), WeylWord(2, 5), WeylWord(-3, -1), WeylWord(4, 9)):
        want = (
            cmath.exp(-1j * math.pi * (n * word.m1 * word.m2 % (2 * m)) / m)
            * clock_power(m, n, ANGLES.alpha1, word.m1).entries
            @ shift_power(m, ANGLES.alpha2, word.m2).entries
        )
        assert np.max(np.abs(weyl_element(word, m, n, ANGLES).entries - want)) < 1e-15


def test_weyl_element_rejects_non_unitary_phases():
    # a NaN phase is not unitary: it raises rather than build a NaN matrix
    with pytest.raises(ValueError, match="not unitary"):
        weyl_element(WeylWord(1, 1), 3, 2, VacuumAngles(math.nan, 0.0))


def test_weyl_span_dimension_rejects_non_unitary_phases(monkeypatch):
    # the span's words go through the same guard: a NaN angle raises
    weyl_phases = matrices._weyl_phases

    def nan_angle(m1, m2, m, n, angles=VacuumAngles()):
        return weyl_phases(m1, m2, m, n, VacuumAngles(math.nan, 0.0))

    monkeypatch.setattr(matrices, "_weyl_phases", nan_angle)
    with pytest.raises(ValueError, match="not unitary"):
        weyl_span_dimension(WeylAlgebra(3, 2))


def _scalar_clock_phases(m, n, alpha1, p):
    """Diagonal of C^p, one power at a time: the scalar form whose float
    operations ``matrices._weyl_phases`` keeps, its argument reduced mod M."""
    j = np.arange(m)
    return np.exp(2j * math.pi * (n * p * j % m) / m) * cmath.exp(1j * alpha1 * p / m)


def _scalar_weyl_monomial(word, m, n, angles):
    """Phase vector and shift of W(word), one word at a time."""
    shift = word.m2 % m
    rows = (np.arange(m) + shift) % m
    pref = cmath.exp(-1j * math.pi * (n * word.m1 * word.m2 % (2 * m)) / m)
    s_phase = cmath.exp(1j * angles.alpha2 * word.m2 / m)
    return pref * (_scalar_clock_phases(m, n, angles.alpha1, word.m1)[rows] * s_phase), shift


def _bits(a):
    # bits, not values: a signed zero prints as "-0" in the JSON
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 12, 13, 23, 24, 30])
def test_weyl_phases_are_bitwise_the_scalar_form(m):
    # every word in [-4, max(M, 5))^2 at once against each word alone, so a
    # numpy or libm change that would move printed residuals shows here
    r = np.arange(-4, max(m, 5))
    m1, m2 = (a.ravel() for a in np.meshgrid(r, r, indexing="ij"))
    words = list(map(WeylWord, m1.tolist(), m2.tolist()))
    powers = range(-6, m + 6)
    for n in (1, 2, 3, 5, 7, 13):
        for angles in (VacuumAngles(), ANGLES, VacuumAngles(5.9, 3.3)):
            phases, shifts = matrices._weyl_phases(m1, m2, m, n, angles)
            want, want_shifts = zip(*(_scalar_weyl_monomial(w, m, n, angles) for w in words))
            assert np.array_equal(shifts, want_shifts)
            assert np.array_equal(_bits(phases), _bits(np.array(want))), (m, n, angles)
            clocks = [np.diag(clock_power(m, n, angles.alpha1, p).entries) for p in powers]
            want = [_scalar_clock_phases(m, n, angles.alpha1, p) for p in powers]
            assert np.array_equal(_bits(np.array(clocks)), _bits(np.array(want))), (m, n, angles)


@functools.cache
def _exact_entries(m, alpha1, alpha2):
    """``table[e, a + 4, b + 4] = e^{i pi e/M} e^{i (alpha1 a + alpha2 b)/M}``
    for e in [0, 2M) and a, b in [-4, 4], the exact entries of every Weyl
    word of [-4, 4]^2 at modulus M: formed at 30 digits, each root of unity
    once, and rounded once."""
    with mpmath.workdps(30):
        roots = [mpmath.expjpi(mpmath.mpf(e) / m) for e in range(2 * m)]
        turns = [[mpmath.expj((mpmath.mpf(alpha1) * a + mpmath.mpf(alpha2) * b) / m)
                  for b in range(-4, 5)] for a in range(-4, 5)]
        return np.array([[[complex(r * t) for t in row] for row in turns] for r in roots])


@pytest.mark.parametrize("angles", [VacuumAngles(), ANGLES])
def test_weyl_phases_match_30_digit_values(angles):
    # W(a, b)[row, j] = e^{i pi N a (2 row - b)/M} e^{i (alpha1 a + alpha2 b)/M}
    # at row = (j + b) % M; an argument formed unreduced rounds up to
    # 7.8e-14 off, at (M, N) = (1, 11) and the word (4, -4)
    worst = 0.0
    for m in (1, 9, 11, 19, 23):
        table = _exact_entries(m, angles.alpha1, angles.alpha2)
        j = np.arange(m)
        for n in range(1, 14):
            if math.gcd(m, n) != 1:
                continue
            for a in range(-4, 5):
                for b in range(-4, 5):
                    rows = (j + b) % m
                    want = np.zeros((m, m), dtype=complex)
                    want[rows, j] = table[n * a * (2 * rows - b) % (2 * m), a + 4, b + 4]
                    got = weyl_element(WeylWord(a, b), m, n, angles).entries
                    worst = max(worst, np.max(np.abs(got - want)))
            want = np.diag(table[2 * n * j % (2 * m), 5, 4])
            worst = max(worst, np.max(np.abs(clock_matrix(m, n, angles.alpha1).entries - want)))
            # the dual pair: the N-dimensional clock and shift at e^{2 pi i M/N}
            dual = _exact_entries(n, angles.alpha1, angles.alpha2)
            k = np.arange(n)
            want_clock = np.diag(dual[2 * m * k % (2 * n), 5, 4])
            want_shift = np.zeros((n, n), dtype=complex)
            want_shift[(k + 1) % n, k] = dual[0, 4, 5]
            for got, want in zip(dual_matrices(WeylAlgebra(m, n, angles)),
                                 (want_clock, want_shift)):
                worst = max(worst, np.max(np.abs(got.entries - want)))
    assert worst <= 4e-15


@pytest.mark.parametrize("mn", [(2, 1), (3, 2), (5, 3), (7, 2)])
def test_holonomy_residual(mn):
    assert holonomy_residual(WeylAlgebra(*mn)) < 1e-10
    assert holonomy_residual(WeylAlgebra(*mn, ANGLES)) < 1e-10


def test_q_commutation_residuals():
    assert q_commutation_residual(WeylAlgebra(1, 1)) == 0.0
    assert q_commutation_residual(WeylAlgebra(2, 1)) < 1e-15
    assert q_commutation_residual(WeylAlgebra(5, 3)) < 1e-13
    assert q_commutation_residual(WeylAlgebra(5, 3, ANGLES)) < 1e-13
    # the injected fault compares against -q, so it is seen also where
    # q = +-1 is real (M <= 2)
    for m, n in ((1, 1), (2, 1), (5, 3)):
        assert abs(q_commutation_residual(WeylAlgebra(m, n, ANGLES), inject_fault=True)
                   - 2.0) < 1e-13


@pytest.mark.parametrize("angles", [VacuumAngles(), ANGLES])
def test_commutation_and_holonomy_read_q_from_the_flux(monkeypatch, angles):
    # with the words built at 2N, C S = q^2 S C and the plaquette is q^2:
    # both checks must read |q^2 - q| = 2 sin(pi N/M), which a check that
    # took q from the phases it compares would miss
    weyl_phases = matrices._weyl_phases

    def doubled(m1, m2, m, n, angles=VacuumAngles()):
        return weyl_phases(m1, m2, m, 2 * n, angles)

    monkeypatch.setattr(matrices, "_weyl_phases", doubled)
    want = 2 * math.sin(math.pi * 3 / 5)  # 1.90
    algebra = WeylAlgebra(5, 3, angles)
    assert q_commutation_residual(algebra) == pytest.approx(want, abs=1e-14)
    assert holonomy_residual(algebra) == pytest.approx(want, abs=1e-14)


def test_dual_matrices():
    dc, ds = dual_matrices(WeylAlgebra(3, 2, ANGLES))
    assert dc.dim == 2 and ds.dim == 2
    # reciprocal parameter e^{2 pi i M/N} = e^{3 pi i} = -1
    q_dual = cmath.exp(2j * math.pi * 3 / 2)
    assert abs(q_dual + 1.0) < 1e-15
    res = np.max(np.abs(dc.entries @ ds.entries - q_dual * ds.entries @ dc.entries))
    assert res < 1e-13
    # both commutation phases are roots of unity: q^M = qdual^N = 1
    assert abs(cmath.exp(2j * math.pi * 2 / 3) ** 3 - 1.0) < 1e-14
    assert abs(q_dual**2 - 1.0) < 1e-14


def test_algebra_pairs_are_the_closed_form_matrices_bit_for_bit():
    # the monomial constructor scatters the phase vectors that weyl_element's
    # dense-checked matrices hold, for the pair and the dual pair
    for m in range(1, 25):
        for n in range(1, 8):
            if math.gcd(m, n) != 1:
                continue
            for angles in (VacuumAngles(), ANGLES, VacuumAngles(5.9, 3.3)):
                algebra = WeylAlgebra(m, n, angles)
                for got, want in (
                        (algebra.clock, clock_matrix(m, n, angles.alpha1)),
                        (algebra.shift, shift_matrix(m, angles.alpha2)),
                        (algebra.dual.clock, clock_matrix(n, m, angles.alpha1)),
                        (algebra.dual.shift, shift_matrix(n, angles.alpha2))):
                    assert np.array_equal(_bits(got.entries), _bits(want.entries)), (m, n, angles)


def test_sine_structure_residuals():
    # parallel words commute
    assert sine_structure_residual(WeylAlgebra(5, 2), WeylWord(2, 2), WeylWord(1, 1)) < 1e-14
    assert sine_structure_residual(WeylAlgebra(3, 2), WeylWord(1, 0), WeylWord(0, 1)) < 1e-13
    assert sine_structure_residual(WeylAlgebra(5, 2), WeylWord(1, 1), WeylWord(2, -1)) < 1e-12


_COPRIME = [(m, n) for m in range(1, 25) for n in range(1, 14) if math.gcd(m, n) == 1]
# the matrices command's pair first, then verify's second pair and others
_SINE_PAIRS = [(WeylWord(1, 0), WeylWord(0, 1)), (WeylWord(1, 1), WeylWord(2, -1)),
               (WeylWord(2, 3), WeylWord(-1, 5)), (WeylWord(3, -2), WeylWord(1, 1))]


def _dense_sine_residual(m, n, a, b, product):
    """The sine-structure residual from the dense per-word matrices, each
    commutator term one ``product`` of two of them."""
    wa, wb, wab = (weyl_element(w, m, n).entries for w in (a, b, a + b))
    coeff = 2j * math.sin(math.pi * (n * a.cross(b) % (2 * m)) / m)
    return float(np.max(np.abs(product(wa, wb) - product(wb, wa) - coeff * wab)))


def _entrywise(x, y):
    # every entry summed from numpy's elementwise products, no BLAS
    return (x[:, :, None] * y[None, :, :]).sum(axis=1)


def test_sine_structure_is_the_dense_form_bit_for_bit():
    for m, n in _COPRIME:
        algebra = WeylAlgebra(m, n)
        for a, b in _SINE_PAIRS:
            got = sine_structure_residual(algebra, a, b)
            assert got == _dense_sine_residual(m, n, a, b, _entrywise), (m, n, a, b)
            # BLAS rounds some of its product entries with fused
            # multiply-adds, so on other pairs it can lie a few ulps away;
            # the matrices command's pair multiplies by exact unit phases
            blas = _dense_sine_residual(m, n, a, b, np.matmul)
            assert got < 1e-12 and abs(got - blas) <= 1e-15, (m, n, a, b)
            if (a, b) == _SINE_PAIRS[0]:
                assert got == blas, (m, n)


def _dense_uq_sl2(m, n, product):
    """``uq_sl2_generators`` from one dense Weyl element or clock power per
    word, each product in a relation one ``product`` of two matrices."""
    q = cmath.exp(2j * math.pi * (n % m) / m)
    denom = q - 1.0 / q
    w = lambda m1, m2: weyl_element(WeylWord(m1, m2), m, n).entries
    j_plus = (w(1, 1) - w(-1, 1)) / denom
    j_minus = (w(-1, -1) - w(1, -1)) / denom
    c = clock_matrix(m, n).entries
    c_inv, c2, c2_inv = (clock_power(m, n, 0.0, p).entries for p in (-1, 2, -2))
    residuals = [np.max(np.abs(product(product(c, j_plus), c_inv) - q * j_plus)),
                 np.max(np.abs(product(product(c, j_minus), c_inv) - j_minus / q)),
                 np.max(np.abs(product(j_plus, j_minus) - product(j_minus, j_plus)
                               - (c2 - c2_inv) / denom))]
    return j_plus, j_minus, c, residuals


def test_uq_sl2_generators_are_the_dense_form_bit_for_bit():
    for m, n in _COPRIME:
        if (2 * n) % m == 0:
            continue
        gens = uq_sl2_generators(WeylAlgebra(m, n))
        j_plus, j_minus, c, residuals = _dense_uq_sl2(m, n, _entrywise)
        for got, want in ((gens.j_plus, j_plus), (gens.j_minus, j_minus), (gens.q_j3.entries, c)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        got = list(gens.residuals.values())
        assert got == residuals, (m, n)
        # BLAS rounds some of its product entries with fused multiply-adds
        blas = _dense_uq_sl2(m, n, np.matmul)[3]
        assert max(abs(a - b) for a, b in zip(got, blas)) <= 1e-15, (m, n)


def test_commutant_dimension():
    assert commutant_dimension([CSMatrix(np.eye(3))]) == 9
    assert commutant_dimension([clock_matrix(3, 2), shift_matrix(3)]) == 1
    assert commutant_dimension([clock_matrix(5, 3), shift_matrix(5)]) == 1
    # non-coprime diagnostic: the pair is reducible
    assert commutant_dimension([clock_matrix(4, 2), shift_matrix(4)]) > 1
    with pytest.raises(ValueError):
        commutant_dimension([])
    with pytest.raises(ValueError):
        commutant_dimension([clock_matrix(3, 2), shift_matrix(4)])
    with pytest.raises(TypeError):
        commutant_dimension([np.eye(3)])
    with pytest.raises(TypeError):
        commutant_dimension([clock_matrix(3, 2), shift_matrix(3).entries])


@pytest.mark.parametrize("mn", [(3, 2), (5, 3), (7, 4)])
def test_commutant_of_a_scalar_up_to_round_off_is_everything(mn):
    # C C^+ and the plaquette holonomy C S C^+ S^+ are scalar up to
    # round-off: every d x d matrix commutes with them
    m, n = mn
    c, s = clock_matrix(m, n), shift_matrix(m)
    assert commutant_dimension([c @ c.adjoint()]) == m * m
    assert commutant_dimension([c @ s @ c.adjoint() @ s.adjoint()]) == m * m


def _dense_commutant_dimension(generators):
    """Nullity of the stacked 2d^2 x d^2 system kron(G^T, I) - kron(I, G),
    counted above 1e-10 times the largest singular value."""
    mats = [g.entries for g in generators]
    d = mats[0].shape[0]
    eye = np.eye(d)
    s = np.linalg.svd(np.vstack([np.kron(g.T, eye) - np.kron(eye, g) for g in mats]),
                      compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return d * d
    return d * d - int(np.sum(s > 1e-10 * s[0]))


def _random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _is_scalar(g):
    return np.max(np.abs(g.entries - g.entries[0, 0] * np.eye(g.dim))) <= 1e-12


@pytest.mark.parametrize("angles", [VacuumAngles(), ANGLES])
def test_commutant_dimension_matches_dense_reference_on_clock_shift(angles):
    for m in range(1, 13):
        for n in range(1, 9):
            pair = [clock_matrix(m, n, angles.alpha1), shift_matrix(m, angles.alpha2)]
            for gens in (pair, pair[::-1]):
                assert commutant_dimension(gens) == _dense_commutant_dimension(gens), (m, n)


def test_commutant_dimension_matches_dense_reference_on_random_unitaries():
    rng = np.random.default_rng(20260)
    for d in (1, 2, 3, 5, 8):
        for k in (1, 2, 3):
            gens = [CSMatrix(_random_unitary(rng, d)) for _ in range(k)]
            assert commutant_dimension(gens) == _dense_commutant_dimension(gens), (d, k)


def test_commutant_dimension_matches_dense_reference_on_degenerate_spectra():
    # Q kron(diag(ph), I_r) Q^+ has k distinct phases, each r-fold, in a
    # rotated basis; the companions Q kron(I_k, R) Q^+ cut its commutant down
    rng = np.random.default_rng(7)
    compared = 0
    for k in range(1, 5):
        for r in range(1, 7):
            d = k * r
            q = _random_unitary(rng, d)
            ph = np.exp(2j * np.pi * (np.arange(k) + rng.uniform(0, 0.5, k)) / k)
            first = q @ np.kron(np.diag(ph), np.eye(r)) @ q.conj().T
            companions = [q @ np.kron(np.eye(k), _random_unitary(rng, r)) @ q.conj().T
                          for _ in range(2)]
            for extra in range(3):
                gens = [CSMatrix(g) for g in (first, *companions[:extra])]
                if all(_is_scalar(g) for g in gens):
                    assert commutant_dimension(gens) == d * d
                    continue
                assert commutant_dimension(gens) == _dense_commutant_dimension(gens), (k, r, extra)
                compared += 1
    assert compared > 50


def _eig_shapes(monkeypatch):
    """The shapes that ``np.linalg.eig`` is called on from now on."""
    shapes = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(np.shape(a)) or eig(a))
    return shapes


def test_commutant_of_the_clock_takes_no_eigenbasis(monkeypatch):
    # the clock is diagonal, its own eigenbasis; the same pair conjugated by
    # a random unitary takes the eigenbasis path and gives the same dimension
    rng = np.random.default_rng(2021)
    shapes = _eig_shapes(monkeypatch)
    for m in range(1, 25):
        u = _random_unitary(rng, m)
        for n in range(1, 8):
            if math.gcd(m, n) != 1:
                continue
            algebra = WeylAlgebra(m, n, ANGLES)
            pair = [algebra.clock, algebra.shift]
            shapes.clear()
            assert commutant_dimension(pair) == 1, (m, n)
            assert shapes == []
            rotated = [CSMatrix(u @ g.entries @ u.conj().T) for g in pair]
            assert commutant_dimension(rotated) == 1, (m, n)
            assert shapes == ([(m, m)] if m > 1 else []), (m, n)  # 1 x 1 is diagonal


def test_commutant_of_a_diagonal_with_a_repeated_eigenvalue(monkeypatch):
    shapes = _eig_shapes(monkeypatch)
    first = CSMatrix(np.diag([1.0, 1.0, -1.0]))
    assert commutant_dimension([first]) == 5 == _dense_commutant_dimension([first])
    for gens in ([first, shift_matrix(3)], [first, shift_matrix(3), clock_matrix(3, 1)],
                 [first, CSMatrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))]):
        assert commutant_dimension(gens) == _dense_commutant_dimension(gens)
    assert shapes == []


def _block_system(generators):
    """The stacked system of :func:`commutant_dimension` assembled as one
    dense ``(p, d, d)`` block per generator, its all-zero rows dropped."""
    lam, v = np.linalg.eig(generators[0].entries)
    a, b = np.nonzero(np.abs(lam[:, None] - lam) <= 1e-10)
    p, d = a.size, generators[0].dim
    cols, blocks = np.arange(p), []
    for g in generators[1:]:
        gv = np.linalg.solve(v, g.entries @ v)
        block = np.zeros((p, d, d), dtype=complex)
        block[cols, a, :] = gv[b, :]
        block[cols, :, b] -= gv[:, a].T
        blocks.append(block.reshape(p, d * d).T)
    system = np.vstack(blocks)
    return system[np.any(system != 0, axis=1)]


def test_commutant_system_is_the_dense_blocks_nonzero_rows(monkeypatch):
    # only the nonzero rows are assembled, each generator's in ascending
    # order, with the meeting entry formed as G'[b, b] - G'[a, a]: the SVD
    # sees the dense blocks' filtered system bit for bit
    systems = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda x, **kw: systems.append(x) or svd(x, **kw))
    rng = np.random.default_rng(11)
    cases = [[clock_matrix(m, n, 0.7), shift_matrix(m, -1.3)]
             for m in range(1, 13) for n in (1, 2, 5) if math.gcd(m, n) == 1]
    cases += [pair[::-1] for pair in cases]
    cases += [[CSMatrix(_random_unitary(rng, d)) for _ in range(3)] for d in (2, 3, 5)]
    cases.append([CSMatrix(np.eye(4)), shift_matrix(4), clock_matrix(4, 1)])
    for gens in cases:
        systems.clear()
        commutant_dimension(gens)
        [system] = systems
        want = _block_system(gens)
        assert system.shape == want.shape and np.array_equal(system, want), gens[0].dim


def test_commutant_forms_no_dense_block():
    # a (p, d, d) block per generator is M**3 values for the clock/shift
    # pair, 28 MB traced at M = 96; the nonzero rows alone peak at 1.1 MB
    algebra = WeylAlgebra(96, 5)
    pair = [algebra.clock, algebra.shift]
    tracemalloc.start()
    try:
        assert commutant_dimension(pair) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_matrices_command_rank_systems_stay_small(monkeypatch, capsys):
    # a structural guard, not a timing: the commutant system in the clock's
    # eigenbasis is M^2 x M, where the dense stacked system had 2 M^4 entries,
    # and keeps at most 2M nonzero rows; the span's discs need no SVD
    m = 24
    shapes = _svd_shapes(monkeypatch)
    assert cli.main(["matrices", "--M", str(m), "--N", "7"]) == 0
    capsys.readouterr()
    assert len(shapes) == 1 and np.prod(shapes[0]) <= 2 * m * m


@pytest.mark.parametrize("argv", [
    ["matrices", "--M", "24", "--N", "7", "--alpha1", "0.7", "--alpha2", "-1.3"],
    ["verify", "--M", "3", "--N", "2"],
], ids=["matrices-24", "verify-3"])
def test_clock_shift_pairs_take_no_dense_check_and_no_eigenbasis(monkeypatch, capsys, argv):
    # a structural guard, not a timing: the clock/shift pairs are checked
    # by their phases, not by a dense e e^H - I, and the clock is its own
    # eigenbasis, so the commutant calls neither eig nor solve
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
    monkeypatch.setattr(CSMatrix, "__post_init__", counting("dense check", CSMatrix.__post_init__))
    CSMatrix(np.eye(2))
    assert calls == ["dense check"]
    calls.clear()
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize("argv, calls", [
    (["matrices", "--M", "24", "--N", "7", "--alpha1", "0.7", "--alpha2", "-1.3"], 3),
    (["matrices", "--M", "1", "--N", "1"], 3),
    (["verify", "--M", "3", "--N", "2", "--alpha1", "0.7", "--alpha2", "-1.3"], 2),
], ids=["matrices-24", "matrices-1", "verify-3"])
def test_weyl_words_are_built_in_a_few_calls_per_op(monkeypatch, capsys, argv, calls):
    # a structural guard, not a timing: a matrices op builds the word table
    # and the clock/shift pairs of the algebra and its dual, a verify op the
    # table and one pair; a second op in the same process counts afresh,
    # so no table outlives its op
    sizes = []
    weyl_phases = matrices._weyl_phases

    def counting(m1, *args, **kwargs):
        sizes.append(np.size(m1))
        return weyl_phases(m1, *args, **kwargs)

    monkeypatch.setattr(matrices, "_weyl_phases", counting)
    for _ in range(2):
        sizes.clear()
        cli.main(argv)
        capsys.readouterr()
        m = int(argv[2])
        assert len(sizes) == calls and sizes.count(2) == calls - 1
        assert (max(m, 5) + 4) ** 2 in sizes


_MATRICES_BOX = [(m, n) for m in range(2, 25) for n in range(1, 8) if math.gcd(m, n) == 1]


def _svd_span(algebra):
    """The span's rank from the singular values of its M blocks."""
    m = algebra.m
    blocks = algebra.words[4:m + 4, 4:m + 4].swapaxes(0, 1)
    s = np.linalg.svd(blocks, compute_uv=False)
    return int(np.sum(s > 1e-10 * np.max(s)))


def _svd_shapes(monkeypatch):
    """The shapes of the matrices module's singular value decompositions
    from now on."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "nctorus.matrices":
            calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_span_of_every_coprime_flux_is_certified_by_its_discs(monkeypatch):
    # the matrices sweep's box: the Gershgorin discs of the blocks' Gram
    # matrices certify full rank, so no singular value is computed, and
    # the count is the singular values' count
    calls = _svd_shapes(monkeypatch)
    for m, n in _MATRICES_BOX:
        algebra = WeylAlgebra(m, n)
        assert weyl_span_dimension(algebra) == m * m == _svd_span(algebra), (m, n)
    assert calls == []


@pytest.mark.parametrize("mn, span", [((4, 2), 8), ((6, 4), 18), ((9, 6), 27)])
def test_span_of_a_reducible_pair_falls_back_to_singular_values(monkeypatch, mn, span):
    calls = _svd_shapes(monkeypatch)
    algebra = WeylAlgebra(*mn)
    assert weyl_span_dimension(algebra) == span == _svd_span(algebra)
    assert calls == [(mn[0],) * 3]


def test_gershgorin_discs_certify_only_a_full_rank():
    assert gershgorin_full_rank(3.0 * np.eye(4), 1e-8) == (True, 1.0)
    # discs that reach 0 certify nothing, though the matrix has full rank
    tight = np.full((3, 3), 0.6) + 0.4 * np.eye(3)  # eigenvalues 2.2, 0.4, 0.4
    certified, margin = gershgorin_full_rank(tight, 1e-8)
    assert not certified and margin == pytest.approx(-0.2 / 2.2)
    assert gershgorin_full_rank(np.array([[1.0, 0.6], [0.6, 1.0]]), 1e-8) == (True, 0.25)
    assert not gershgorin_full_rank(np.ones((3, 3)), 1e-8)[0]
    # a stack is certified against its largest disc: each block alone passes
    stack = np.array([np.eye(2), 1e-9 * np.eye(2)])
    assert gershgorin_full_rank(stack, 1e-10)[0] and not gershgorin_full_rank(stack, 1e-8)[0]
    for bad in (np.zeros((2, 2)), np.full((2, 2), np.nan)):
        certified, margin = gershgorin_full_rank(bad, 1e-8)
        assert not certified and math.isnan(margin)


def test_weyl_span_dimension():
    for m, n in ((2, 1), (3, 2), (5, 3)):
        assert weyl_span_dimension(WeylAlgebra(m, n)) == m * m
    assert weyl_span_dimension(WeylAlgebra(4, 2)) < 16


@pytest.mark.parametrize("mn", [(3, 1), (5, 2)])
def test_uq_sl2_relations(mn):
    gens = uq_sl2_generators(WeylAlgebra(*mn))
    assert max(gens.residuals.values()) < 1e-11
    assert gens.q_j3.dim == mn[0]


def test_uq_sl2_degenerate_cases():
    for m, n in ((1, 1), (2, 1), (2, 5)):
        with pytest.raises(DegenerateDeformationError):
            uq_sl2_generators(WeylAlgebra(m, n))


def test_uq_sl2_dual_copy():
    # (M,N) = (2,5) is degenerate on the primal side but the dual copy
    # at the reciprocal parameter passes the same relations
    gens = uq_sl2_generators(WeylAlgebra(5, 2))
    assert max(gens.residuals.values()) < 1e-11


@pytest.mark.parametrize("mn", [(1, 1), (2, 1), (3, 2), (13, 3)])
def test_bimodule_consistency_passes(mn):
    m, n = mn
    basis = build_basis(Flux(n, m), 0.3 + 1.1j, ANGLES)
    report = bimodule_consistency(basis)
    assert report["pass"]
    assert report["mismatches"] == []
    assert report["left_right_commutator"] == 0.0
    assert max(report["deviations"].values()) < 1e-6


_COPRIME_UP_TO_100 = [
    (m, n) for m in range(1, 101) for n in range(1, 100 // m + 1) if math.gcd(m, n) == 1
]
_ANGLE = st.floats(0.0, 2 * math.pi, exclude_max=True)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    mn=st.sampled_from(_COPRIME_UP_TO_100),
    re_tau=st.floats(-0.5, 0.5),
    im_tau=st.floats(0.8, 2.0),
    alpha1=_ANGLE,
    alpha2=_ANGLE,
)
def test_fits_hold_for_any_flux(mn, re_tau, im_tau, alpha1, alpha2):
    # the measurement sizes its cell rule from K and Im tau, so it stays
    # determined at every level K = M*N
    m, n = mn
    basis = build_basis(Flux(n, m), complex(re_tau, im_tau), VacuumAngles(alpha1, alpha2))
    for (j, k), entry in eigenphase_table(basis).items():
        assert entry["d2_target"] == ((j - 1) % m, k)
        assert entry["dual2_target"] == (j, (k - 1) % n)
    assert bimodule_consistency(basis)["pass"]


def test_bimodule_left_action_small_case():
    # M=2, N=1, angles 0: left action is diag(1,-1) and the 2-cycle
    basis = build_basis(Flux(1, 2), 1j)
    report = bimodule_consistency(basis)
    assert report["pass"]
    assert max(report["deviations"].values()) < 1e-12


def test_bimodule_reports_mismatch_without_raising():
    basis = swapped(build_basis(Flux(2, 3), 0.3 + 1.1j, ANGLES), (0, 0), (1, 0))
    report = bimodule_consistency(basis)
    assert not report["pass"]
    assert report["mismatches"]
    entry = report["mismatches"][0]
    assert {"operator", "index", "measured", "predicted"} <= set(entry)


def test_bimodule_consistency_fails_on_nan_images():
    # the window table is NaN on every column set but the cell rule's own:
    # the states and their D1 images stay finite, the images of the steps
    # along tau hold NaN, and that must not pass
    basis = build_basis(Flux(2, 3), 0.3 + 1.1j)
    nodes = partition.quadrature_nodes(basis)[1]
    basis = with_window(basis, lambda y, freq, expo: (
        freq, expo if np.array_equal(y, nodes) else expo + np.nan))
    report = bimodule_consistency(basis)
    deviations = report["deviations"]
    assert deviations["d1"] < 1e-12 and deviations["dual1"] < 1e-12
    assert math.isnan(deviations["d2"]) and math.isnan(deviations["dual2"])
    assert {entry["operator"] for entry in report["mismatches"]} == {"d2", "dual2"}
    assert not report["pass"]


def test_bimodule_left_right_commutator_keeps_a_nan(monkeypatch):
    # one NaN phase of the predicted dual clock reaches every left-right
    # commutator it enters; a builtin max fold over them returned 0.0
    basis = build_basis(Flux(2, 3), 0.3 + 1.1j)
    predict = lll._predicted_translations

    def nan_dual_clock(basis):
        predicted = predict(basis)
        target, phase = predicted["dual1"]
        predicted["dual1"] = target, np.where(target == 0, np.nan, phase)
        return predicted

    monkeypatch.setattr(lll, "_predicted_translations", nan_dual_clock)
    report = bimodule_consistency(basis)
    residual, _ = bimodule_residual(basis)
    assert math.isnan(report["left_right_commutator"]) and not report["pass"]
    assert math.isnan(residual)


def _dense_law(target, phase):
    """The dense monomial ``P[target[s], s] = phase[s]``, 0 elsewhere."""
    out = np.zeros((len(target), len(target)), dtype=complex)
    out[target, np.arange(len(target))] = phase
    return out


@pytest.mark.parametrize("k", [1, 6, 35])
def test_law_deviation_is_the_dense_difference_bit_for_bit(k):
    rng = np.random.default_rng(k)
    l_mat = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    target = rng.permutation(k)
    phase = np.exp(2j * math.pi * rng.random(k))
    l_mat[target[0], 0] = np.nan  # on the law; the off-by-one target reads it off the law
    # the law, a target off by one, and the centre's scalar law e^{i alpha} I
    for t, p in ((target, phase), ((target + 1) % k, phase), (np.arange(k), phase[0])):
        want = np.abs(l_mat - _dense_law(t, p))
        np.testing.assert_array_equal(lll._law_deviation(l_mat, t, p).view(np.uint64),
                                      want.view(np.uint64))


def test_law_checks_form_no_dense_law():
    # a dense law or commutator monomial at K = 104 is a 173 KB complex
    # matrix; over a measured module the lemma and the bimodule check stay
    # under two of them
    basis = build_basis(Flux(8, 13), 0.3 + 1.1j, ANGLES)
    basis.translations  # measured before the trace
    for check in (lll.lemma_eigenphase_residual, bimodule_consistency):
        tracemalloc.start()
        try:
            check(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * basis.level**2 * 16, (check.__name__, peak)


@pytest.mark.parametrize("angles", [VacuumAngles(), VacuumAngles(0.7, -1.3)])
def test_predicted_translations_are_the_kron_matrices(angles):
    # the laws' monomials are kron(C, I_N), kron(S, I_N), kron(I_M, C~) and
    # kron(I_M, S~) with the labels (j, k) read as (-j mod M, -k mod N);
    # both sides reduce their clock arguments as integers, so they agree
    # to a few ulp
    for m in range(1, 14):
        for n in range(1, 14):
            if math.gcd(m, n) != 1:
                continue
            j, k = np.arange(m)[:, None], np.arange(n)
            perm = ((-j % m) * n + (-k % n)).ravel()
            dual_clock, dual_shift = dual_matrices(WeylAlgebra(m, n, angles))
            want = {
                "d1": np.kron(clock_matrix(m, n, angles.alpha1).entries, np.eye(n)),
                "d2": np.kron(shift_matrix(m, angles.alpha2).entries, np.eye(n)),
                "dual1": np.kron(np.eye(m), dual_clock.entries),
                "dual2": np.kron(np.eye(m), dual_shift.entries),
            }
            predicted = lll._predicted_translations(build_basis(Flux(n, m), 1j, angles))
            assert predicted.keys() == want.keys()
            for name, monomial in predicted.items():
                got = _dense_law(*monomial)[np.ix_(perm, perm)]
                assert np.max(np.abs(got - want[name])) <= 3e-15, (m, n, name)


def test_uq_sl2_residual_is_the_worst_relation_or_a_skip():
    algebra = WeylAlgebra(5, 3)
    assert uq_sl2_residual(algebra) == max(uq_sl2_generators(algebra).residuals.values())
    assert uq_sl2_residual(WeylAlgebra(2, 1)) == (0.0, "skipped: degenerate deformation parameter")
