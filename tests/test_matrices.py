import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.core import Flux, VacuumAngles
from nctorus.errors import DegenerateDeformationError
from nctorus.fields import Field
from nctorus.lll import build_basis, eigenphase_table
from nctorus.matrices import (
    CSMatrix,
    WeylWord,
    bimodule_consistency,
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
    weyl_cocycle_residual,
    weyl_element,
    weyl_span_dimension,
)

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
    assert weyl_cocycle_residual(*mn) < 1e-12


def _dense_cocycle_residual(m, n):
    # reference: the dense 5^4 loop over products of CSMatrix Weyl elements
    words = [WeylWord(a1, a2) for a1 in range(-2, 3) for a2 in range(-2, 3)]
    worst = 0.0
    for wa in words:
        for wb in words:
            lhs = (weyl_element(wa, m, n) @ weyl_element(wb, m, n)).entries
            rhs = (
                cmath.exp(1j * math.pi * n * wa.cross(wb) / m)
                * weyl_element(wa + wb, m, n).entries
            )
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@pytest.mark.parametrize("mn", [(2, 1), (3, 2), (7, 3), (16, 3), (23, 2)])
def test_weyl_cocycle_residual_matches_dense_reference(mn):
    # the phase-vector products round differently from BLAS products of
    # the dense matrices, by at most a few ulp of the unit-modulus phases
    monomial = weyl_cocycle_residual(*mn)
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
    assert weyl_span_dimension(m, n) == int(np.sum(s > 1e-10 * s[0]))


def test_weyl_element_matches_dense_product():
    # reference: W(m) = q^{-m1 m2/2} C^{m1} S^{m2} as a dense product,
    # at nonzero angles and for words outside [0, M)
    m, n = 7, 3
    for word in (WeylWord(0, 0), WeylWord(2, 5), WeylWord(-3, -1), WeylWord(4, 9)):
        want = (
            cmath.exp(-1j * math.pi * n * word.m1 * word.m2 / m)
            * clock_power(m, n, ANGLES.alpha1, word.m1).entries
            @ shift_power(m, ANGLES.alpha2, word.m2).entries
        )
        assert np.max(np.abs(weyl_element(word, m, n, ANGLES).entries - want)) < 1e-15


def test_weyl_element_rejects_non_unitary_phases():
    # a NaN phase is not unitary: it raises rather than build a NaN matrix
    with pytest.raises(ValueError, match="not unitary"):
        weyl_element(WeylWord(1, 1), 3, 2, VacuumAngles(math.nan, 0.0))


@pytest.mark.parametrize("mn", [(2, 1), (3, 2), (5, 3), (7, 2)])
def test_holonomy_residual(mn):
    assert holonomy_residual(*mn) < 1e-10
    assert holonomy_residual(*mn, ANGLES) < 1e-10


def test_q_commutation_residuals():
    assert q_commutation_residual(1, 1) == 0.0
    assert q_commutation_residual(2, 1) < 1e-15
    assert q_commutation_residual(5, 3) < 1e-13
    assert q_commutation_residual(5, 3, ANGLES) < 1e-13
    # the injected fault compares against -q, so it is seen also where
    # q = +-1 is real (M <= 2)
    for m, n in ((1, 1), (2, 1), (5, 3)):
        assert abs(q_commutation_residual(m, n, ANGLES, inject_fault=True) - 2.0) < 1e-13


def test_dual_matrices():
    dc, ds = dual_matrices(3, 2, ANGLES)
    assert dc.dim == 2 and ds.dim == 2
    # reciprocal parameter e^{2 pi i M/N} = e^{3 pi i} = -1
    q_dual = cmath.exp(2j * math.pi * 3 / 2)
    assert abs(q_dual + 1.0) < 1e-15
    res = np.max(np.abs(dc.entries @ ds.entries - q_dual * ds.entries @ dc.entries))
    assert res < 1e-13
    # both commutation phases are roots of unity: q^M = qdual^N = 1
    assert abs(cmath.exp(2j * math.pi * 2 / 3) ** 3 - 1.0) < 1e-14
    assert abs(q_dual**2 - 1.0) < 1e-14


def test_sine_structure_residuals():
    # parallel words commute
    assert sine_structure_residual(5, 2, WeylWord(2, 2), WeylWord(1, 1)) < 1e-14
    assert sine_structure_residual(3, 2, WeylWord(1, 0), WeylWord(0, 1)) < 1e-13
    assert sine_structure_residual(5, 2, WeylWord(1, 1), WeylWord(2, -1)) < 1e-12


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


def test_weyl_span_dimension():
    for m, n in ((2, 1), (3, 2), (5, 3)):
        assert weyl_span_dimension(m, n) == m * m
    assert weyl_span_dimension(4, 2) < 16


@pytest.mark.parametrize("mn", [(3, 1), (5, 2)])
def test_uq_sl2_relations(mn):
    gens = uq_sl2_generators(*mn)
    assert max(gens.residuals.values()) < 1e-11
    assert gens.q_j3.dim == mn[0]


def test_uq_sl2_degenerate_cases():
    for m, n in ((1, 1), (2, 1), (2, 5)):
        with pytest.raises(DegenerateDeformationError):
            uq_sl2_generators(m, n)


def test_uq_sl2_dual_copy():
    # (M,N) = (2,5) is degenerate on the primal side but the dual copy
    # at the reciprocal parameter passes the same relations
    gens = uq_sl2_generators(5, 2)
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
    # the sampled fits size their own grid, so they stay determined at
    # every level K = M*N
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
    basis = build_basis(Flux(2, 3), 0.3 + 1.1j, ANGLES)
    a, b = basis.states[(0, 0)], basis.states[(1, 0)]
    basis.states[(0, 0)], basis.states[(1, 0)] = b, a
    report = bimodule_consistency(basis)
    assert not report["pass"]
    assert report["mismatches"]
    entry = report["mismatches"][0]
    assert {"operator", "index", "measured", "predicted"} <= set(entry)


def test_bimodule_consistency_fails_on_nan_images():
    # state (1, 0) is exact on the fit grid and NaN off it: the samples
    # stay finite, its translated images hold NaN, and that must not pass
    basis = build_basis(Flux(2, 3), 0.3 + 1.1j)
    w = basis._fit_samples[0]
    state = basis.states[(1, 0)]
    basis.states[(1, 0)] = Field(
        lambda z, zbar: np.where(np.isin(z, w), state.evaluate(z, zbar), np.nan),
        state.tau, state.im_tau_weight,
    )
    with np.errstate(invalid="ignore"):
        report = bimodule_consistency(basis)
    assert all(math.isnan(dev) for dev in report["deviations"].values())
    assert {entry["operator"] for entry in report["mismatches"]} == set(report["deviations"])
    assert not report["pass"]
