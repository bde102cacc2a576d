import cmath
import gc
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus import cli, lll, partition
from nctorus.core import Flux, VacuumAngles, as_tau
from nctorus.errors import TruncationError
from nctorus.fields import Field, ladder_apply
from nctorus.lll import (
    LLLBasis,
    ThetaField,
    bimodule_consistency,
    bimodule_residual,
    boundary_residual,
    build_basis,
    center_eigen_residual,
    coefficient_matrix,
    eigenphase_table,
    elementary_translation,
    gram_rank,
    gram_rank_residual,
    lemma_eigenphase_residual,
    overlap_residual,
    raise_level,
    unit_cell_grid,
)
from nctorus.theta import ThetaSpec, TruncationPolicy, orthogonality_residual, theta
from state_faults import repeated, swapped, with_terms, with_window

TAU_GEN = 0.3 + 1.1j
ANGLES = VacuumAngles(0.7, -1.3)


def naive_gamma(klev, t, angles):
    """The shift ``gamma`` of the states' defining formula."""
    return (t.value * angles.alpha1 - angles.alpha2) / (2.0 * math.pi * klev)


def naive_state(flux, tau, angles, j, k, w, wbar):
    """Direct evaluation of Psi_jk from its defining formula."""
    t = as_tau(tau)
    klev = flux.level
    gamma = naive_gamma(klev, t, angles)
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
    assert sorted(basis.field.residue) == list(range(6))
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
    wrapped, state = basis.state(4, 3), basis.state(1, 1)
    assert wrapped.residue == state.residue == basis.field.residue[basis.labels().index((1, 1))]
    w, wbar = unit_cell_grid(1j, n=3)
    assert np.array_equal(wrapped.evaluate(w, wbar), state.evaluate(w, wbar))


_COPRIME = [(m, n) for m in range(1, 14) for n in range(1, 14) if math.gcd(m, n) == 1]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mn=st.sampled_from(_COPRIME),
       re=st.floats(-2.0, 2.0), log_im=st.floats(-3.0, 3.0),
       a1=st.floats(-10.0, 10.0), a2=st.floats(-10.0, 10.0))
def test_theta_field_forms_gamma_from_its_angles(mn, re, log_im, a1, a2):
    # the one gamma of the states, bit for bit the defining formula's
    m, n = mn
    t, angles = as_tau(complex(re, 10.0**log_im)), VacuumAngles(a1, a2)
    field = ThetaField({(0, 0, 0): 1.0}, m * n, 0, t, angles)
    assert field.gamma == naive_gamma(m * n, t, angles)
    assert field.angles is angles
    assert build_basis(Flux(n, m), t, angles).gamma == field.gamma


def test_basis_reads_its_parameters_from_the_states():
    policy = TruncationPolicy(epsilon=1e-10)
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES, policy)
    assert basis.angles is basis.field.angles is ANGLES
    assert basis.gamma == basis.field.gamma
    assert basis.policy is basis.field.policy is policy
    with pytest.raises(TypeError):
        LLLBasis(flux=Flux(2, 3), tau=as_tau(TAU_GEN))


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
    table = eigenphase_table(basis)
    for (j, k), entry in table.items():
        assert entry["d1_target"] == (j, k)
        assert abs(entry["d1_phase"] - cmath.exp(1j * (a1 - 2 * math.pi * j * n) / m)) < 1e-12
        assert entry["d2_target"] == ((j - 1) % m, k)
        assert abs(entry["d2_phase"] - cmath.exp(1j * a2 / m)) < 1e-12
        assert entry["dual1_target"] == (j, k)
        assert abs(entry["dual1_phase"] - cmath.exp(1j * (a1 - 2 * math.pi * k * m) / n)) < 1e-12
        assert entry["dual2_target"] == (j, (k - 1) % n)
        assert abs(entry["dual2_phase"] - cmath.exp(1j * a2 / n)) < 1e-12
        for name in ("d1", "d2", "dual1", "dual2"):
            assert entry[name + "_leak"] < 1e-12
            assert entry[name + "_defect"] < 1e-12


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


def test_eigenphase_mismatch_shows_in_the_defect():
    # the cell window of state (0, 0) carries a factor exp(y), an added y
    # on its exponents, that breaks its boundary law; its D1 image is
    # still itself, but the D2 image reads it one cell step lower and
    # leaves the span of the states
    m, n = 3, 2
    basis = build_basis(Flux(n, m), TAU_GEN, ANGLES)

    def fault(y, freq, expo):
        expo[0] += y
        return freq, expo

    table = eigenphase_table(with_window(basis, fault))
    assert table[(0, 0)]["d1_defect"] < 1e-12
    assert table[(0, 0)]["d2_defect"] > 1e-3
    assert lemma_eigenphase_residual(with_window(basis, fault)) > 1e-3
    assert lemma_eigenphase_residual(basis) < 1e-12


def test_nan_states_fail_the_module_checks():
    # NaN states, in their term family or in their window table only:
    # the Gram matrix is not finite, and every module check raises
    basis = build_basis(Flux(2, 3), TAU_GEN)
    nan_window = with_window(basis, lambda y, freq, expo: (freq, expo + np.nan))
    for fault in (with_terms(basis, {(0, 0, 0): np.nan}), nan_window):
        for check in (eigenphase_table, lemma_eigenphase_residual, gram_rank,
                      bimodule_residual, overlap_residual):
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                check(fault)


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
        residual, note = center_eigen_residual(basis)
        assert residual < 1e-12
        assert "(n_x, n_y) = (%d, %d)" % tuple(x.size for x in partition.quadrature_nodes(basis)) \
            in note


def test_cell_node_counts_cap_each_axis_not_the_floor():
    # at Im tau = 1e300 the y axis needs 1.5e150 nodes and at 1e-300 the x
    # axis does: each is refused before any array is sized
    for im_tau in (1e300, 1e-300):
        with pytest.raises(TruncationError, match="^cell rule needs .* nodes on an axis, "
                                                  "cap is 1000000$"):
            lll.cell_node_counts(6, im_tau, 1e-12)
    # K*b = 5e10 sits under the cap on one axis; the floor is never capped
    assert lll.cell_node_counts(1, 5e10, 1e-12) == (8, 949519)
    assert lll.cell_node_counts(1, 1.0, 1e-12, lll.QuadratureSpec(2_000_000)) == (2_000_000,) * 2


def test_cell_node_counts_below_the_smallest_normal_epsilon():
    # 2 / epsilon overflows there; its log is taken in parts
    assert lll.cell_node_counts(6, 1.1, 5e-324) == (51, 56)
    assert lll.cell_node_counts(6, 1.1, 1e-310) == (50, 55)


@pytest.mark.parametrize("epsilon", [1e-12, 1e-300, 2e-308])
def test_cell_node_counts_in_range_keep_their_expression(monkeypatch, epsilon):
    # where 2 / epsilon is finite each axis's count is the one log of it,
    # bit for bit
    seen, check = [], lll.TruncationPolicy.check_count

    def record(self, count, message):
        seen.append(count)
        check(self, count, message)

    monkeypatch.setattr(lll.TruncationPolicy, "check_count", record)
    lll.cell_node_counts(6, 1.1, epsilon)
    log = math.log(2.0 / epsilon)
    assert seen == [math.sqrt(12.0 * log / (math.pi * 1.1)), math.sqrt(12.0 * 1.1 * log / math.pi)]


def test_center_eigen_residual_fails_a_phase_error_in_the_step(monkeypatch):
    # a step whose scale is 1e-9 off in phase puts its M-th power M*1e-9
    # off e^{i*alpha}, past the verify tolerance of 1e-10
    basis = build_basis(Flux(3, 5), TAU_GEN, ANGLES)
    step = lll.elementary_translation

    def off_in_phase(basis, index, dual=False):
        op = step(basis, index, dual)

        def faulty(f):
            g = op(f)
            return lll._Translated(g.base, g.u, g.scale * cmath.exp(1e-9j), g.basis)

        return faulty

    monkeypatch.setattr(lll, "elementary_translation", off_in_phase)
    assert center_eigen_residual(basis)[0] > 4e-9


def _off_the_rule(basis, log_factor):
    """Fault: the states' window times ``exp(log_factor)``, an added
    ``log_factor`` on its exponents, on every column set but the cell
    rule's own, so only D2^M, which reads the columns y - 1, sees it."""
    nodes = partition.quadrature_nodes(basis)[1]
    return with_window(basis, lambda y, freq, expo: (
        freq, expo if np.array_equal(y, nodes) else expo + log_factor))


def test_center_eigen_residual_fails_a_window_fault_off_the_rule():
    basis = build_basis(Flux(3, 5), TAU_GEN, ANGLES)
    assert center_eigen_residual(basis)[0] < 1e-12
    assert center_eigen_residual(_off_the_rule(basis, math.log1p(1e-8)))[0] > 9e-9


def test_center_eigen_residual_propagates_nonfinite_samples():
    # a NaN window on the columns y - 1 gives a NaN residual, not a small
    # (passing) one, and no reduction raises a RuntimeWarning (pytest makes
    # one an error)
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    assert math.isnan(center_eigen_residual(_off_the_rule(basis, np.nan))[0])


@pytest.mark.parametrize("mn", [(3, 2), (7, 5), (13, 3), (9, 11)])
def test_stacked_rows_equal_the_single_state_loop(mn):
    # the reference is the per-label loop over single-residue fields
    m, n = mn
    for tau in (TAU_GEN, -0.2 + 1.7j, 0.01j, 50j):
        for angles in (VacuumAngles(), ANGLES):
            basis = build_basis(Flux(n, m), tau, angles)
            w, wbar = unit_cell_grid(tau, n=5)
            for slot in ("evaluate", "d_z", "d_zbar"):
                rows = getattr(basis.field, slot)(w, wbar)
                assert rows.shape == (m * n, w.size)
                for row, (j, k) in zip(rows, basis.labels()):
                    assert np.array_equal(row, getattr(basis.state(j, k), slot)(w, wbar))


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(want))


def _rounding_allowance(level, im_tau):
    """Ulps the pointwise states lose where ``exp`` takes exponents of
    size ``pi*K*Im tau`` that cancel: several parts in 1e10 at (11,7),
    1e3i, against the basis epsilon in the benchmark box."""
    return 8.0 * math.pi * level * im_tau * 2.0**-52


def _pointwise_density(field, x, y):
    """``|f|^2`` of every row of ``field`` at the nodes ``x[i] + tau*y[j]``,
    each value evaluated pointwise, shape ``(residue, x, y)``."""
    w = x[:, None] + field.tau * y
    return np.abs(field.evaluate(w, np.conjugate(w))) ** 2


def _window_density(field, x, y):
    """``|Psi|^2`` at the same nodes from the states' cell window, the
    exponential of their table on the columns ``y``: the phase in front of
    its sum drops out of ``|.|^2``."""
    freq, expo = field.cell_exponent(y)
    window = np.exp(expo)
    phase = np.exp(2j * math.pi * freq[:, None, :] * x[:, None])
    return np.abs(np.einsum("rmj,rim->rij", window, phase)) ** 2


@pytest.mark.parametrize("tau", [0.3 + 1.1j, -0.5 + 2j, 0.003j, 0.01j, 50j, 1e3j])
@pytest.mark.parametrize("mn", [(3, 2), (7, 5), (11, 7), (13, 3)])
def test_cell_density_matches_the_pointwise_states(mn, tau):
    # the window table summed at every node of the cell rule against
    # |evaluate|^2 there
    m, n = mn
    basis = build_basis(Flux(n, m), tau, ANGLES)
    x, y = partition.quadrature_nodes(basis)
    got = _window_density(basis.field, x, y)
    want = _pointwise_density(basis.field, x, y)
    assert got.shape == want.shape == (m * n, x.size, y.size)
    tol = basis.policy.epsilon + _rounding_allowance(m * n, basis.tau.im)
    assert _relative_gap(got, want) <= tol


def _mp_density(basis, r, x, y):
    """``|Psi|^2`` of residue ``r`` at ``w = x + tau*y``, summed at 30
    digits over the 17 terms nearest the peak."""
    with mpmath.workdps(30):
        k, tau = basis.level, mpmath.mpc(basis.tau.value)
        a1, a2 = basis.angles.alpha1, basis.angles.alpha2
        w = x + tau * y
        z = w + (tau * a1 - a2) / (2 * mpmath.pi * k)
        g = mpmath.pi * k * w * (w - mpmath.conj(w)) / (2 * tau.imag) + 1j * a1 * w
        centre = int(mpmath.floor(-z.imag / tau.imag))
        series = mpmath.fsum(
            mpmath.exp(1j * mpmath.pi * tau * k * a * a + 2j * mpmath.pi * k * z * a)
            for a in (n + mpmath.mpf(r) / k for n in range(centre - 8, centre + 9)))
        return float(abs(mpmath.exp(g) * series) ** 2)


def test_cell_density_is_accurate_where_pointwise_exponents_round():
    # at 1e3i the window table, which completes the square, holds the
    # basis epsilon against 30 digits on the nodes near the peaks in y
    basis = build_basis(Flux(2, 3), 1e3j, ANGLES)
    x, y = partition.quadrature_nodes(basis)
    x, y = x[::3], y[::7]
    got = _window_density(basis.field, x, y)
    near = np.flatnonzero(np.max(got, axis=(0, 1)) > 1e-3 * np.max(got))
    want = np.array([[[_mp_density(basis, r, xi, y[j]) for j in near] for xi in x]
                     for r in basis.field.residue])
    assert near.size >= 3
    assert _relative_gap(got[..., near], want) <= basis.policy.epsilon


def test_cell_norms_keep_the_aliasing_of_the_midpoint_rule():
    # on n_x = K = 6 midpoint nodes exp(2*pi*i*K*x) is -1 at every node, so
    # every term of a row is in one class mod n_x and aliases onto the
    # mean: the folded norms are the pointwise midpoint sum, a third away
    # from Parseval's n_x * sum |W|^2, the exact integral over x
    basis = build_basis(Flux(2, 3), 0.1j, ANGLES)
    f = basis.field
    x = (np.arange(6) + 0.5) / 6
    y = (np.arange(8) + 0.5) / 8
    assert abs(np.sum(np.exp(12j * math.pi * x)) + 6) < 1e-13
    freq, expo = f.cell_exponent(y)
    assert expo.shape[1] > 1
    got = lll._grid_exponent_norms(freq, expo, x.size, 6)
    want = _pointwise_density(f, x, y).sum(axis=(1, 2))
    assert got.shape == (6,)
    assert np.max(np.abs(got - want) / want) <= 1e-13
    parseval = x.size * np.sum(np.exp(2.0 * expo.real), axis=(1, 2))
    assert np.min(np.abs(got - parseval) / got) > 0.3


def test_cell_exponent_is_the_window_before_its_exponential():
    # the states' exponents are their window table's before its
    # exponential, the term's coefficient riding as its log: a NaN one
    # makes every exponent of a column's own window NaN.  Each call builds
    # a fresh, writable table for its caller: the field keeps none, and the
    # module exponentiates the table it asked for in place, which at power
    # 0 is np.exp bit for bit
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    y = partition.quadrature_nodes(basis)[1]
    freq, expo = basis.field.cell_exponent(y)
    again_freq, again = basis.field.cell_exponent(y)
    assert again is not expo and again_freq is not freq
    assert np.array_equal(again, expo) and np.array_equal(again_freq, freq)
    assert all(arr.flags.writeable for arr in (freq, expo, again_freq, again))
    window = lll._scaled_exp(again, 0)
    assert window is again and np.array_equal(window, np.exp(expo))
    own = np.isfinite(expo)
    assert np.all(expo[~own] == -np.inf)
    nan_expo = with_terms(basis, {(0, 0, 0): np.nan}).field.cell_exponent(y)[1]
    assert np.isnan(nan_expo[own]).all() and np.all(nan_expo[~own] == -np.inf)
    # a raised state has more terms than the one the table is built from
    with pytest.raises(ValueError, match=r"needs the one term \(0, 0, 0\)"):
        raise_level(basis, 0, 0).cell_exponent(y)


def test_window_frequencies_past_2_53_raise_before_their_cast():
    edge = np.array([[2.0**53, -(2.0**53)]])
    assert lll._frequencies(1, edge).tolist() == [[2**53, -(2**53)]]
    for a in (2.0**53 + 2, -(2.0**53) - 2, 1e199, math.inf, math.nan):
        with pytest.raises(ArithmeticError, match="pass 2"):
            lll._frequencies(1, np.array([[0.5, a]]))
    # at alpha1 = 1e17 the states' frequencies reach 1.6e16: the module refuses them
    with pytest.raises(ArithmeticError, match="pass 2"):
        build_basis(Flux(2, 3), TAU_GEN, VacuumAngles(1e17, 0.0)).gram


@pytest.mark.parametrize("mn, tau", [((3, 2), TAU_GEN), ((7, 5), 0.01j), ((13, 3), -0.2 + 1.7j),
                                     ((3, 2), 50j), ((1, 1), 0.001j)])
def test_cell_norm_exponent_is_twice_the_real_part_of_the_window(mn, tau):
    # the state norms' real table, on the complex table's frequencies and
    # windows: 2*Re E less the log of its power of two, which puts its
    # largest entry in [-2*log 2, 0), and the pair phases are the
    # differences of Im E, mod 2*pi
    m, n = mn
    basis = build_basis(Flux(n, m), tau, ANGLES)
    y = partition.quadrature_nodes(basis)[1]
    freq, expo = basis.field.cell_exponent(y)
    norm_freq, table, pair_phase, power = basis.field.cell_norm_exponent(y)
    own = table > -np.inf
    assert table.dtype == float and table.flags.c_contiguous
    assert np.array_equal(norm_freq, freq) and np.array_equal(own, expo.real > -np.inf)
    want = 2.0 * expo.real[own]
    got = table[own] + 2 * power * math.log(2.0)
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12
    assert -2.0 * math.log(2.0) <= np.max(table) < 0.0
    for d in range(1, table.shape[1]):
        pairs = own[:, :-d] & own[:, d:]
        gap = pair_phase(d)[pairs] - (expo.imag[:, :-d] - expo.imag[:, d:])[pairs]
        assert np.max(np.abs(np.angle(np.exp(1j * gap))), initial=0.0) <= 1e-12, d


def test_cell_window_is_zero_outside_each_columns_own_window():
    # exp(-inf) is exactly 0: a column's own terms, the same count in every
    # column, are nonzero, and the rest of its residue's run reads 0.0; a
    # NaN exponent stays NaN.  The window is divided by its power of two
    # before the exponential, so it peaks in [1/2, 1), within round-off of
    # exp(E) / 2**power; at 1e5i, where the states reach exp(3899) and
    # exp(E) itself overflows, the module measures to round-off
    def scaled_window(basis):
        expo = basis.field.cell_exponent(partition.quadrature_nodes(basis)[1])[1]
        power = lll._power_above(float(np.max(expo.real)))
        return expo.copy(), power, lll._scaled_exp(expo, power)

    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    expo, power, window = scaled_window(basis)
    own = expo.real > -np.inf
    assert not own.all() and np.all(own.sum(axis=1) == own.sum(axis=1)[0, 0])
    assert np.all(window[own] != 0.0)
    assert np.array_equal(window[~own], np.zeros(np.count_nonzero(~own), complex))
    want = np.exp(expo[own]) * 2.0**-power
    rounding = 4.0 * 2.0**-52 * (np.abs(expo[own]) + abs(power) + 1.0)
    assert np.all(np.abs(window[own] - want) <= rounding * np.abs(want))
    nan_window = scaled_window(with_terms(basis, {(0, 0, 0): np.nan}))[2]
    assert np.isnan(nan_window[own]).all() and np.all(nan_window[~own] == 0.0)
    for case in (basis, build_basis(Flux(1, 1), 1e5j, ANGLES)):
        expo, power, window = scaled_window(case)
        assert 0.5 * (1.0 - 1e-6) <= np.max(np.abs(window)) <= 1.0
    assert np.max(expo.real) > math.log(np.finfo(float).max)
    assert gram_rank(case) == 1 and lemma_eigenphase_residual(case) < 1e-12


def test_unit_coefficient_term_is_not_copied():
    # the ground states' one term (0, 0, 0) -> 1.0 passes its series on:
    # a copy per evaluation would grow the heap on every call
    th = {0: np.ones((3, 4, 5), dtype=complex)}
    w = np.zeros((4, 5), dtype=complex)
    assert lll._combine({(0, 0, 0): 1.0}, th, w, w) is th[0]
    assert np.array_equal(lll._combine({(0, 0, 0): 2.0}, th, w, w), 2.0 * th[0])


def test_fields_are_freed_without_the_cycle_collector():
    # with no reference cycle through its evaluators a field goes as soon
    # as its basis does
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
        partition.state_norm(basis)
        del basis
        gc.collect()
        assert not any(isinstance(obj, ThetaField) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_measured_module_is_read_only():
    # the cached Gram matrix and translations are shared and read-only; a
    # cell table is its caller's, writable, and writing it leaves the
    # field's next table as it was
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    assert basis.gram is basis.gram
    assert not basis.gram.flags.writeable
    for l_mat, defect in basis.translations.values():
        assert not (l_mat.flags.writeable or defect.flags.writeable)
    y = partition.quadrature_nodes(basis)[1]
    freq, expo = basis.field.cell_exponent(y)
    assert freq.flags.writeable and expo.flags.writeable
    want = expo.copy()
    expo += np.nan
    assert np.array_equal(basis.field.cell_exponent(y)[1], want)


@pytest.mark.parametrize("mn", [(3, 2), (5, 2)])
def test_gram_rank_full(mn):
    m, n = mn
    for tau in (1j, TAU_GEN):
        basis = build_basis(Flux(n, m), tau)
        assert gram_rank(basis) == m * n
        residual, note = gram_rank_residual(basis)
        assert residual == 0.0 and "certified by its Gershgorin discs" in note


def test_gram_rank_computes_no_spectrum_on_a_measured_basis(monkeypatch):
    basis = build_basis(Flux(8, 9), TAU_GEN, ANGLES)
    basis.gram  # measured before eigvalsh is replaced

    def no_spectrum(*args, **kwargs):
        raise AssertionError("eigvalsh ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    assert gram_rank(basis) == 72


@pytest.mark.parametrize("fault", [False, True])
def test_gram_rank_residual_reads_the_discs_once(monkeypatch, fault):
    # on a measured basis the discs certify the rank; on one with a
    # repeated residue they do not, and the spectrum gives it
    basis = build_basis(Flux(5, 7), -0.2 + 1.7j, ANGLES)
    if fault:
        basis = repeated(basis, (0, 0), (0, 1))
    want = gram_rank_residual(basis)
    calls, discs = [], lll.gershgorin_full_rank
    monkeypatch.setattr(lll, "gershgorin_full_rank", lambda *args: calls.append(args) or discs(*args))
    assert gram_rank_residual(basis) == want
    assert len(calls) == 1 and want[0] == float(fault)


def test_gram_is_assembled_in_place():
    # the K x K sums, their scale and the Gram matrix share one buffer:
    # at K = 104 the Gram matrix peaks under 2.5 complex K x K matrices
    # above the cell table, where a scaled copy of each sum took 3.4
    basis = build_basis(Flux(8, 13), TAU_GEN, ANGLES)
    basis._cell_states  # built before the trace
    tracemalloc.start()
    try:
        basis.gram
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * basis.level**2 * 16, peak / (basis.level**2 * 16)


def _pointwise_projection(basis, op):
    """Reference measurement: the states and their images evaluated with
    ``Field.evaluate`` on the nodes of the basis's cell rule and
    projected with one matrix product, as ``(G, L)``."""
    x, y = partition.quadrature_nodes(basis)
    w = (x[:, None] + basis.tau.value * y).ravel()
    states = basis.field.evaluate(w, np.conjugate(w))
    images = op(basis.field).evaluate(w, np.conjugate(w))
    products = np.conjugate(states) @ np.concatenate([states, images]).T / w.size
    gram, overlaps = np.split(products, 2, axis=1)
    return gram, overlaps / gram.diagonal().real[:, None]


def _translations(basis):
    return [elementary_translation(basis, index, dual=dual)
            for dual in (False, True) for index in (1, 2)]


@pytest.mark.parametrize("mn, tau", [((3, 2), TAU_GEN), ((7, 5), -0.2 + 1.7j),
                                     ((11, 7), 0.1 + 0.85j)])
def test_coefficient_matrix_matches_the_pointwise_projection(mn, tau):
    # the comb sums the same midpoint rule as the pointwise products
    m, n = mn
    basis = build_basis(Flux(n, m), tau, ANGLES)
    d1, d2 = _translations(basis)[:2]
    measured = basis.gram / np.max(basis.gram.diagonal().real)  # over a common scale
    for op in _translations(basis) + [lambda f: d1(d2(f))]:
        gram, l_mat = _pointwise_projection(basis, op)
        assert np.max(np.abs(measured - gram / np.max(gram.diagonal().real))) < 1e-12
        assert np.max(np.abs(coefficient_matrix(basis, op) - l_mat)) < 1e-12


def _counted(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


_SOLVERS = ("svd", "lstsq", "solve", "pinv")


def test_coefficient_matrix_is_one_solve(monkeypatch):
    # one Gram matrix serves every coefficient matrix: each is diag(G)^-1 P,
    # and no solver runs.  The Gram matrix is one sum of the states'
    # per-class products; a step along 1 (d1, dual1) reads those products
    # twice, for P and for its image norms, and a step along tau (d2,
    # dual2) forms one overlap of the states with its own table
    calls = dict.fromkeys(_SOLVERS + ("overlaps", "sums"), 0)
    for name in _SOLVERS:
        monkeypatch.setattr(np.linalg, name, _counted(calls, name, getattr(np.linalg, name)))
    monkeypatch.setattr(lll, "_grid_overlaps", _counted(calls, "overlaps", lll._grid_overlaps))
    monkeypatch.setattr(lll, "_class_sums", _counted(calls, "sums", lll._class_sums))
    basis = build_basis(Flux(3, 5), TAU_GEN, ANGLES)
    # d1, d2, dual1, dual2
    for op, overlaps, sums in zip(_translations(basis), (0, 1, 1, 2), (3, 4, 6, 7)):
        coefficient_matrix(basis, op)
        assert calls == {**dict.fromkeys(_SOLVERS, 0), "overlaps": overlaps, "sums": sums}
    assert gram_rank(basis) == 15
    assert calls["sums"] == 7


@pytest.mark.parametrize("mn", [(3, 2), (7, 5)])
def test_repeated_residue_fails_the_measured_orthogonality(mn):
    # two labels on one residue: the measured Gram matrix loses a rank
    # and has a unit off-diagonal, which the DFT product never sees
    m, n = mn
    basis = build_basis(Flux(n, m), -0.2 + 1.7j, ANGLES)
    fault = repeated(basis, (0, 0), (0, 1))
    assert gram_rank(fault) == m * n - 1
    # the two equal rows' discs reach 0, so the rank comes from the spectrum
    residual, note = gram_rank_residual(fault)
    assert residual == 1.0 and "from eigvalsh" in note
    assert abs(overlap_residual(fault)[0] - 1.0) < 1e-12
    assert overlap_residual(basis)[0] < 1e-12
    assert orthogonality_residual(m * n) < 1e-12


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


def _cycling_entry(coeffs, labels):
    tgt = int(np.argmax(np.abs(coeffs)))
    off = np.delete(np.abs(coeffs), tgt)
    return labels[tgt], complex(coeffs[tgt]), float(off.max()) if off.size else 0.0


_OPERATORS = (("d1", 1, False), ("dual1", 1, True), ("d2", 2, False), ("dual2", 2, True))


def _separately_measured_eigenphase_table(basis):
    """Reference table: each translation projected on its own."""
    labels = basis.labels()
    table = {lb: {} for lb in labels}
    for name, index, dual in _OPERATORS:
        image = elementary_translation(basis, index, dual=dual)(basis.field)
        l_mat, defect = lll._project(basis, image)
        for i, lb in enumerate(labels):
            (table[lb][name + "_target"], table[lb][name + "_phase"],
             table[lb][name + "_leak"]) = _cycling_entry(l_mat[:, i], labels)
            table[lb][name + "_defect"] = float(defect[i])
    return table


@pytest.mark.parametrize("mn", [(3, 2), (7, 5), (13, 3)])
def test_eigenphase_table_reads_the_one_measurement(mn):
    m, n = mn
    basis = build_basis(Flux(n, m), -0.2 + 1.7j, ANGLES)
    want = _separately_measured_eigenphase_table(build_basis(Flux(n, m), -0.2 + 1.7j, ANGLES))
    assert eigenphase_table(basis) == want
    for name, index, dual in _OPERATORS:
        l_mat, defect = basis.translations[name]
        assert l_mat.shape == (m * n, m * n) and defect.shape == (m * n,)
        op = elementary_translation(basis, index, dual=dual)
        assert np.array_equal(l_mat, coefficient_matrix(basis, op))


def _per_state_eigenphase_table(basis):
    """Reference table read from the same measurement one state at a time."""
    labels = basis.labels()
    table = {}
    for i, lb in enumerate(labels):
        entry = {}
        for name, (l_mat, defect) in basis.translations.items():
            (entry[name + "_target"], entry[name + "_phase"],
             entry[name + "_leak"]) = _cycling_entry(l_mat[:, i], labels)
            entry[name + "_defect"] = float(defect[i])
        table[lb] = entry
    return table


@pytest.mark.parametrize("mn", [(1, 1), (2, 1), (3, 2), (5, 3), (9, 8), (13, 7)])
def test_eigenphase_table_is_the_per_state_reference(mn):
    # bit for bit, on working bases and on a fault that swaps two residues
    m, n = mn
    rng = np.random.default_rng(m * 100 + n)
    for _ in range(3):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        basis = build_basis(Flux(n, m), tau, VacuumAngles(*rng.uniform(0.0, 2 * math.pi, 2)))
        assert eigenphase_table(basis) == _per_state_eigenphase_table(basis)
    if m * n > 1:
        fault = swapped(basis, (0, 0), basis.labels()[-1])
        assert eigenphase_table(fault) == _per_state_eigenphase_table(fault)


def test_one_nan_image_window_reads_nan_without_a_warning():
    # the window table is NaN on every column set but the cell rule's own,
    # so the states and their D1 images are finite and the D2 images NaN:
    # the lemma reads NaN, and no reduction raises a RuntimeWarning (pytest
    # makes one an error)
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    nodes = partition.quadrature_nodes(basis)[1]
    fault = with_window(basis, lambda y, freq, expo: (
        freq, expo if np.array_equal(y, nodes) else expo + np.nan))
    table = eigenphase_table(fault)
    for entry in table.values():
        assert entry["d1_defect"] < 1e-12
        assert math.isnan(entry["d2_defect"]) and math.isnan(entry["d2_leak"])
    assert math.isnan(lemma_eigenphase_residual(fault))


def test_module_is_measured_once_per_basis(monkeypatch, capsys):
    # the eigenphase table, the Gram rank, the orthogonality and the
    # bimodule check share one Gram matrix and one projection per
    # translation, with no pointwise state evaluation; the states' table
    # serves the Gram matrix and the translations along 1 through its
    # per-class products, so the states and the two steps along tau each
    # build one table, and only the steps along tau overlap the states
    # with a table of their own.  The state norms build one real table
    # and no complex one.  All four translations are projected at every
    # flux, M = N = 1 included
    calls = {"svd": 0, "translation": 0, "eval": 0, "window": 0, "overlaps": 0,
             "norm window": 0, "state_norm": 0}
    monkeypatch.setattr(np.linalg, "svd", _counted(calls, "svd", np.linalg.svd))
    monkeypatch.setattr(lll, "elementary_translation",
                        _counted(calls, "translation", lll.elementary_translation))
    monkeypatch.setattr(lll, "_eval_terms", _counted(calls, "eval", lll._eval_terms))
    monkeypatch.setattr(lll, "_grid_exponent", _counted(calls, "window", lll._grid_exponent))
    monkeypatch.setattr(lll, "_grid_overlaps", _counted(calls, "overlaps", lll._grid_overlaps))
    monkeypatch.setattr(lll, "_grid_window", _counted(calls, "norm window", lll._grid_window))
    for mn in ((3, 5), (1, 1), (7, 5)):
        calls.update(dict.fromkeys(calls, 0))
        basis = build_basis(Flux(mn[1], mn[0]), TAU_GEN, ANGLES)
        eigenphase_table(basis)
        assert gram_rank(basis) == mn[0] * mn[1]
        assert overlap_residual(basis)[0] < 1e-12
        assert bimodule_consistency(basis)["pass"]
        assert calls == {"svd": 0, "translation": 4, "eval": 0, "window": 3,
                         "overlaps": 2, "norm window": 0, "state_norm": 0}, mn
        partition.state_norm(basis)
        assert (calls["window"], calls["norm window"]) == (3, 1), mn
    # partition --M 3 --N 2 integrates each of its two bases in one call:
    # the run's at tau and tau+1, and the -1/tau basis's
    monkeypatch.setattr(partition, "state_norm",
                        _counted(calls, "state_norm", partition.state_norm))
    monkeypatch.setattr(partition, "state_norms_at",
                        _counted(calls, "state_norms_at", partition.state_norms_at))
    calls.update(dict.fromkeys(calls, 0), state_norms_at=0)
    assert cli.main(["partition", "--M", "3", "--N", "2"]) == 0
    capsys.readouterr()
    assert (calls["state_norms_at"], calls["state_norm"], calls["norm window"]) == (1, 1, 2)


def test_verify_builds_each_window_table_once(monkeypatch, capsys):
    # every table is fresh and its caller's: the module's basis builds its
    # states' complex table of exponents once, on the cell rule's own
    # columns, for the Gram matrix and the steps along 1, and one complex
    # table per step along tau (the centre's D2^M on the columns y - 1 and
    # the two steps); the state norms build one real table at tau, which
    # Z~ at tau+1 reads too, and one at -1/tau.  Four complex tables and two
    # real ones, each writable and none returned twice
    tables, grid_exponent, grid_window = [], lll._grid_exponent, lll._grid_window

    def recorded(build):
        def wrapped(*args):
            a, table = build(*args)
            tables.append(table)
            return a, table
        return wrapped

    monkeypatch.setattr(lll, "_grid_exponent", recorded(grid_exponent))
    monkeypatch.setattr(lll, "_grid_window", recorded(grid_window))
    assert cli.main(["verify", "--M", "3", "--N", "5", "--tau=0.2+1.4i",
                     "--alpha1", "0.7", "--alpha2", "-1.3"]) == 0
    capsys.readouterr()
    assert len(tables) == 6 and len({id(table) for table in tables}) == 6
    assert all(table.flags.writeable for table in tables)
    assert [table.dtype.kind for table in tables].count("c") == 4
    # the module's sequence on one basis: its states' table first, then
    # one table per step along tau, each exponentiated in place (no -inf
    # is left); the norms then read a real table of their own, which
    # they exponentiate in place too, bit for bit a fresh basis's
    basis = build_basis(Flux(5, 3), 0.2 + 1.4j, ANGLES)
    tables.clear()
    center_eigen_residual(basis)
    assert basis.translations
    assert len(tables) == 4 and all(table.dtype == complex for table in tables)
    assert not any(np.isneginf(table.real).any() for table in tables)
    norms = partition.state_norm(basis)
    assert len(tables) == 5 and len({id(table) for table in tables}) == 5
    assert tables[4].dtype == float and not np.isneginf(tables[4]).any()
    assert norms == partition.state_norm(build_basis(Flux(5, 3), 0.2 + 1.4j, ANGLES))


def _steps_along_one(basis):
    """``d1``, ``dual1`` and the centre's ``D1^M`` as operators."""
    m = basis.flux.denominator
    d1, dual1 = (elementary_translation(basis, 1, dual=dual) for dual in (False, True))
    step = d1(basis.field)
    return {"d1": d1, "dual1": dual1,
            "d1^M": lambda f: lll._Translated(f, m * step.u, step.scale**m, basis)}


def _field_copy(basis):
    """The states as a new field: a step along 1 of it is read from its
    own window table, not from the basis's class products."""
    f = basis.field
    return ThetaField(f.terms, f.level, f.residue, basis.tau, f.angles, f.policy)


@pytest.mark.parametrize("mn", [(1, 1), (3, 2), (7, 5), (13, 7)])
@pytest.mark.parametrize("tau", [0.02j, 0.3 + 1.1j, 1e3j])
@pytest.mark.parametrize("angles", [VacuumAngles(), ANGLES])
def test_steps_along_one_read_the_class_products(monkeypatch, mn, tau, angles):
    # D1, D1~ and D1^M of the states read the Gram's per-class products,
    # reweighted, and form no table; the same steps of a copy of the
    # field take the image-table route, and L and the Parseval defects of
    # the two routes agree to round-off
    m, n = mn
    basis = build_basis(Flux(n, m), tau, angles)
    copy = _field_copy(basis)
    basis.gram  # the states' classes and products, before the count
    calls = {"classes": 0}
    monkeypatch.setattr(lll, "_grid_classes", _counted(calls, "classes", lll._grid_classes))
    for name, op in _steps_along_one(basis).items():
        l_mat, defect = lll._project(basis, op(basis.field))
        assert calls["classes"] == 0, name
        want_l, want_defect = lll._project(basis, op(copy))
        calls["classes"] = 0
        assert np.max(np.abs(l_mat - want_l)) < 1e-14, name
        assert np.max(np.abs(defect - want_defect)) < 1e-14, name
        assert np.max(defect) < 1e-12, name


def test_steps_along_one_fail_as_the_table_route_does():
    # a NaN table off the cell rule's own columns leaves the steps along 1
    # finite and makes the steps along tau NaN; a NaN table everywhere fails
    # the Gram matrix, and both routes raise the same error there.  At
    # 1e5i, where exp(E) of the states' table overflows, both routes scale
    # before the exponential and agree to round-off
    basis = build_basis(Flux(2, 3), TAU_GEN, ANGLES)
    nodes = partition.quadrature_nodes(basis)[1]
    fault = with_window(basis, lambda y, freq, expo: (
        freq, expo if np.array_equal(y, nodes) else expo + np.nan))
    for op in _steps_along_one(fault).values():
        assert np.max(lll._project(fault, op(fault.field))[1]) < 1e-12
    assert np.isnan(fault.translations["d2"][1]).all()
    everywhere = with_window(basis, lambda y, freq, expo: (freq, expo + np.nan))
    for op in _steps_along_one(everywhere).values():
        for image in (op(everywhere.field), op(_field_copy(everywhere))):
            with pytest.raises(np.linalg.LinAlgError):
                lll._project(everywhere, image)
    big = build_basis(Flux(1, 1), 1e5j, ANGLES)
    for name, op in _steps_along_one(big).items():
        l_mat, defect = lll._project(big, op(big.field))
        want_l, want_defect = lll._project(big, op(_field_copy(big)))
        assert np.max(np.abs(l_mat - want_l)) < 1e-14, name
        assert np.max(np.abs(defect - want_defect)) < 1e-14, name
        assert np.max(defect) < 1e-12, name


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
