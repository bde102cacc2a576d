import cmath
import math

import numpy as np
import pytest

from nctorus.core import Flux, VacuumAngles, as_tau
from nctorus.errors import ConventionMismatchError
from nctorus.fields import Field, ladder_apply
from nctorus.lll import (
    ThetaField,
    boundary_residual,
    build_basis,
    center_eigen_residual,
    coefficient_matrix,
    eigenphase_table,
    elementary_translation,
    gram_rank,
    raise_level,
    unit_cell_grid,
)
from nctorus.theta import ThetaSpec, TruncationPolicy, theta

TAU_GEN = 0.3 + 1.1j
ANGLES = VacuumAngles(0.7, -1.3)


def naive_state(flux, tau, angles, j, k, w, wbar):
    """Direct evaluation of Psi_jk from its defining formula."""
    t = as_tau(tau)
    klev = flux.level
    gamma = (t.value * angles.alpha1 - angles.alpha2) / (2.0 * math.pi * klev)
    r = (j * flux.numerator + k * flux.denominator) % klev
    g = np.exp(
        math.pi * klev * w * (w - wbar) / (2.0 * t.im) + 1j * angles.alpha1 * w
    )
    return g * theta(ThetaSpec(klev, r), w + gamma, t, TruncationPolicy())


def test_unit_cell_grid_is_physical_slice():
    w, wbar = unit_cell_grid(TAU_GEN, n=4)
    assert w.shape == (16,)
    assert np.max(np.abs(wbar - np.conjugate(w))) == 0.0


def test_build_basis_residues_exhaust_level():
    basis = build_basis(Flux(2, 3), 1j)
    residues = {st.residue for st in basis.states.values()}
    assert residues == set(range(6))
    assert basis.labels() == [(j, k) for j in range(3) for k in range(2)]


def test_state_weight_is_rescaled():
    basis = build_basis(Flux(2, 3), TAU_GEN)
    st = basis.state(0, 0)
    assert st.im_tau_weight == pytest.approx(1.1 / (2.0 * math.pi * 6.0), rel=1e-15)


def test_states_match_defining_formula():
    flux = Flux(2, 3)
    basis = build_basis(flux, TAU_GEN, ANGLES)
    w, wbar = unit_cell_grid(TAU_GEN, n=5)
    for j in range(3):
        for k in range(2):
            got = basis.state(j, k).evaluate(w, wbar)
            want = naive_state(flux, TAU_GEN, ANGLES, j, k, w, wbar)
            assert np.max(np.abs(got - want)) < 1e-13


def test_state_index_wraps_modulo():
    basis = build_basis(Flux(2, 3), 1j)
    assert basis.state(4, 3) is basis.state(1, 1)


def test_theta_field_derivatives_match_finite_differences():
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    st = basis.state(1, 1)
    w, wbar = unit_cell_grid(TAU_GEN, n=3)
    h = 1e-6
    fd_z = (st.evaluate(w + h, wbar) - st.evaluate(w - h, wbar)) / (2.0 * h)
    fd_zbar = (st.evaluate(w, wbar + h) - st.evaluate(w, wbar - h)) / (2.0 * h)
    assert np.max(np.abs(st.d_z(w, wbar) - fd_z)) < 1e-7
    assert np.max(np.abs(st.d_zbar(w, wbar) - fd_zbar)) < 1e-7


@pytest.mark.parametrize("tau", [1j, TAU_GEN])
@pytest.mark.parametrize("mn", [(3, 2), (2, 5)])
def test_boundary_conditions(tau, mn):
    m, n = mn
    basis = build_basis(Flux(n, m), tau, ANGLES)
    for j in range(m):
        for k in range(n):
            assert boundary_residual(basis, j, k) < 1e-12


def _nan_off_row(state):
    """``state`` where ``0 <= Im z < Im tau`` and NaN elsewhere: samples on
    the unit cell and their real shifts are finite, and shifts along
    ``tau`` are not, so only one of two folded residuals is NaN."""
    b = state.tau.imag
    return Field(
        lambda z, zbar: np.where((z.imag >= 0) & (z.imag < b), state.evaluate(z, zbar), np.nan),
        state.tau, state.im_tau_weight,
    )


def test_boundary_residual_propagates_nonfinite_samples():
    # the tau-shifted samples of this state are NaN; the residual must not
    # fold that away into a finite (passing) number
    basis = build_basis(Flux(5, 7), 3j)
    grid = unit_cell_grid(3j, n=12)
    state = _nan_off_row(basis.state(0, 0))
    with np.errstate(all="ignore"):
        res = boundary_residual(basis, 0, 0, grid=grid, state=state)
    assert not math.isfinite(res)
    # the true state stays finite where its raw theta factor overflows
    assert boundary_residual(basis, 0, 0, grid=grid) < 1e-12


def test_translation_prefactor_formula():
    # D1 f = exp(2i a1/M) exp(pi N (w - wbar)/(2 b)) f(w - 1/M, wbar - 1/M)
    flux = Flux(2, 3)
    basis = build_basis(flux, TAU_GEN, ANGLES)
    st = basis.state(0, 1)
    w, wbar = unit_cell_grid(TAU_GEN, n=4)
    out = elementary_translation(basis, 1)(st).evaluate(w, wbar)
    b = 1.1
    want = (
        cmath.exp(2j * ANGLES.alpha1 / 3)
        * np.exp(math.pi * 2 * (w - wbar) / (2.0 * b))
        * st.evaluate(w - 1.0 / 3.0, wbar - 1.0 / 3.0)
    )
    assert np.max(np.abs(out - want)) < 1e-13


def test_elementary_translation_rejects_bad_index():
    basis = build_basis(Flux(2, 3), 1j)
    with pytest.raises(ValueError):
        elementary_translation(basis, 3)


@pytest.mark.parametrize("tau", [1j, TAU_GEN])
@pytest.mark.parametrize("mn", [(3, 2), (2, 5), (13, 3)])
def test_eigenphase_structure(tau, mn):
    m, n = mn
    a1, a2 = ANGLES.alpha1, ANGLES.alpha2
    basis = build_basis(Flux(n, m), tau, ANGLES)
    table = eigenphase_table(basis, spread_tol=1e-9)
    for (j, k), entry in table.items():
        assert abs(entry["d1_phase"] - cmath.exp(1j * (a1 - 2 * math.pi * j * n) / m)) < 1e-12
        assert entry["d1_spread"] < 1e-12
        assert entry["d2_target"] == ((j - 1) % m, k)
        assert abs(entry["d2_phase"] - cmath.exp(1j * a2 / m)) < 1e-12
        assert entry["d2_leak"] < 1e-12
        assert abs(entry["dual1_phase"] - cmath.exp(1j * (a1 - 2 * math.pi * k * m) / n)) < 1e-12
        assert entry["dual2_target"] == (j, (k - 1) % n)
        assert abs(entry["dual2_phase"] - cmath.exp(1j * a2 / n)) < 1e-12
        assert entry["dual2_leak"] < 1e-12


def test_diagonal_eigenphase_multiset():
    # The D1 spectrum on the ground space is {exp(i(a1 + 2 pi s N)/M)},
    # each appearing N times.
    m, n = 3, 2
    basis = build_basis(Flux(n, m), TAU_GEN, ANGLES)
    table = eigenphase_table(basis)
    got = sorted(
        np.angle(entry["d1_phase"]) % (2 * math.pi) for entry in table.values()
    )
    want = sorted(
        ((ANGLES.alpha1 + 2 * math.pi * s * n) / m) % (2 * math.pi)
        for s in range(m)
        for _ in range(n)
    )
    assert np.allclose(got, want, atol=1e-12)


def test_eigenphase_mismatch_raises():
    basis = build_basis(Flux(2, 3), 1j)
    bad = Field(
        lambda w, wbar: np.exp(-w * wbar),
        1j,
        basis.state(0, 0).im_tau_weight,
    )
    basis.states[(0, 0)] = bad
    with pytest.raises(ConventionMismatchError):
        eigenphase_table(basis)


def test_eigenphase_nan_spread_raises():
    # state (1, 0) is exact on the fit grid and NaN off it, so its D1
    # ratio has a NaN spread: that is a mismatch, not a pass
    basis = build_basis(Flux(2, 3), TAU_GEN)
    w = basis._fit_samples[0]
    state = basis.states[(1, 0)]
    basis.states[(1, 0)] = Field(
        lambda z, zbar: np.where(np.isin(z, w), state.evaluate(z, zbar), np.nan),
        state.tau, state.im_tau_weight,
    )
    with np.errstate(invalid="ignore"), pytest.raises(ConventionMismatchError, match="nan"):
        eigenphase_table(basis)


def test_translations_q_commute():
    # D1 D2 = exp(2 pi i N/M) D2 D1
    for m, n in ((3, 2), (2, 5)):
        basis = build_basis(Flux(n, m), TAU_GEN, ANGLES)
        d1 = elementary_translation(basis, 1)
        d2 = elementary_translation(basis, 2)
        w, wbar = unit_cell_grid(TAU_GEN, n=4)
        st = basis.state(m - 1, 0)
        lhs = d1(d2(st)).evaluate(w, wbar)
        rhs = cmath.exp(2j * math.pi * n / m) * d2(d1(st)).evaluate(w, wbar)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_crystal_and_dual_translations_commute():
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    w, wbar = unit_cell_grid(TAU_GEN, n=4)
    st = basis.state(1, 1)
    for i in (1, 2):
        for idual in (1, 2):
            a = elementary_translation(basis, i)
            bop = elementary_translation(basis, idual, dual=True)
            lhs = a(bop(st)).evaluate(w, wbar)
            rhs = bop(a(st)).evaluate(w, wbar)
            assert np.max(np.abs(lhs - rhs)) < 1e-13


@pytest.mark.parametrize("mn", [(2, 1), (3, 2), (5, 3)])
def test_center_eigen_residual(mn):
    m, n = mn
    for tau in (1j, TAU_GEN):
        basis = build_basis(Flux(n, m), tau, ANGLES)
        for j in range(m):
            for k in range(n):
                assert center_eigen_residual(basis, j, k) < 1e-12


def test_center_eigen_residual_propagates_nonfinite_samples():
    # the D2 images of this state are NaN; a NaN sample must give a NaN
    # residual, not a small (passing) one
    basis = build_basis(Flux(2, 3), TAU_GEN)
    basis.states[(0, 0)] = _nan_off_row(basis.states[(0, 0)])
    with np.errstate(all="ignore"):
        res = center_eigen_residual(basis, 0, 0)
    assert math.isnan(res)


def test_default_fit_samples_are_stacked_once():
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    w, wbar, a = basis._fit_samples
    assert basis._fit_samples[2] is a
    assert not (w.flags.writeable or wbar.flags.writeable or a.flags.writeable)


@pytest.mark.parametrize("mn", [(3, 2), (5, 2)])
def test_gram_rank_full(mn):
    m, n = mn
    for tau in (1j, TAU_GEN):
        basis = build_basis(Flux(n, m), tau)
        assert gram_rank(basis) == m * n


def _per_column_coefficient_matrix(basis, op):
    """Reference fit: one least-squares solve per basis state."""
    w, wbar, a = basis._fit_samples
    labels = basis.labels()
    l_mat = np.zeros((len(labels), len(labels)), dtype=complex)
    for i, lb in enumerate(labels):
        out = op(basis.states[lb]).evaluate(w, wbar)
        coeffs, *_ = np.linalg.lstsq(a.T, out, rcond=None)
        l_mat[:, i] = coeffs
    return l_mat


def _translations(basis):
    return [elementary_translation(basis, index, dual=dual)
            for dual in (False, True) for index in (1, 2)]


def test_coefficient_matrix_matches_per_column_fit():
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    for op in _translations(basis):
        assert np.array_equal(coefficient_matrix(basis, op),
                              _per_column_coefficient_matrix(basis, op))
    for m, n in ((7, 5), (11, 7)):
        basis = build_basis(Flux(n, m), -0.2 + 1.7j, ANGLES)
        for op in _translations(basis):
            ref = _per_column_coefficient_matrix(basis, op)
            assert np.max(np.abs(coefficient_matrix(basis, op) - ref)) < 1e-14


def test_coefficient_matrix_is_one_solve(monkeypatch):
    basis = build_basis(Flux(3, 5), TAU_GEN, ANGLES)
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    for count, op in enumerate(_translations(basis), start=1):
        coefficient_matrix(basis, op)
        assert len(calls) == count


def test_coefficient_matrix_is_homomorphism():
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    d1 = elementary_translation(basis, 1)
    d2 = elementary_translation(basis, 2)
    l1 = coefficient_matrix(basis, d1)
    l2 = coefficient_matrix(basis, d2)
    l12 = coefficient_matrix(basis, lambda f: d1(d2(f)))
    assert np.max(np.abs(l12 - l1 @ l2)) < 1e-11
    # D1 is diagonal, D2 a phase times a cyclic permutation in j.
    assert np.max(np.abs(l1 - np.diag(np.diag(l1)))) < 1e-12
    mags = np.abs(l2)
    assert np.allclose(np.sort(mags.ravel())[-6:], 1.0, atol=1e-12)
    assert np.max(np.sort(mags.ravel())[:-6]) < 1e-12


def test_raise_level_roundtrip_and_covariance():
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    w, wbar = unit_cell_grid(TAU_GEN, n=4)
    up = raise_level(basis, 1, 0)
    assert isinstance(up, ThetaField)
    # a- a+ Psi = Psi (ground state is annihilated by a-)
    down = ladder_apply("a-", up)
    base = basis.state(1, 0).evaluate(w, wbar)
    assert np.max(np.abs(down.evaluate(w, wbar) - base)) < 1e-12
    # the raised state satisfies the same twisted boundary law
    assert boundary_residual(basis, 1, 0, state=up) < 1e-12
    # and keeps the same translation eigenphase as its parent
    out = elementary_translation(basis, 1)(up).evaluate(w, wbar)
    upv = up.evaluate(w, wbar)
    phase = cmath.exp(1j * (ANGLES.alpha1 - 2 * math.pi * 1 * 2) / 3)
    assert np.max(np.abs(out - phase * upv)) < 1e-12


def test_raise_level_number_ladder():
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    w, wbar = unit_cell_grid(TAU_GEN, n=4)
    up1 = raise_level(basis, 0, 1)
    up2 = raise_level(basis, 0, 1, n=2)
    down = ladder_apply("a-", up2)
    # a- (a+)^2 Psi = 2 a+ Psi
    assert np.max(np.abs(down.evaluate(w, wbar) - 2.0 * up1.evaluate(w, wbar))) < 1e-12
    with pytest.raises(ValueError):
        raise_level(basis, 0, 1, n=-1)


def test_raised_state_orthogonal_to_parent():
    # <Psi, a+ Psi> = <a- Psi, Psi> = 0: cell quadrature of the periodic
    # integrand (midpoint rule, spectral accuracy).
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    up = raise_level(basis, 1, 1)
    st = basis.state(1, 1)
    n = 48
    s = (np.arange(n) + 0.5) / n
    x = np.repeat(s, n)
    y = np.tile(s, n)
    w = x + TAU_GEN * y
    wbar = np.conjugate(w)
    inner = np.sum(np.conjugate(st.evaluate(w, wbar)) * up.evaluate(w, wbar)) / n**2
    norm = np.sum(np.abs(st.evaluate(w, wbar)) ** 2) / n**2
    assert abs(inner) / norm < 1e-10
