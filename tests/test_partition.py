import importlib
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nctorus import lll, partition
from nctorus.core import Flux, VacuumAngles
from nctorus.lll import QuadratureSpec, build_basis, cell_node_counts, quadrature_nodes, state_norm
from nctorus.partition import (
    ModularInvariance,
    modular_invariance_report,
    z_tilde,
    z_tilde_character_route,
    z_tilde_closed_form,
)
from test_lll import _pointwise_density, _rounding_allowance

# by module path: the package namespace re-exports a function named theta
theta_module = importlib.import_module("nctorus.theta")

ANGLES = VacuumAngles(0.7, -1.3)

# 50-digit quadrature oracle values for the single-state case.
NORM_I = 0.7071067811865475244
Z_I = 1.1981402347355922074
NORM_GEN = 0.67419986246324208625
Z_GEN = 1.1985492230536032894


def test_quadrature_spec_validation():
    spec = QuadratureSpec()
    assert spec.nodes_per_axis == 8
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_axis=4)


@pytest.mark.parametrize("nodes", [12.7, 12.0, "12", None])
def test_quadrature_spec_takes_only_integers(nodes):
    # no silent truncation to 12: the error names the value
    with pytest.raises(ValueError, match=re.escape(repr(nodes))):
        QuadratureSpec(nodes)
    assert QuadratureSpec(np.int64(12)).nodes_per_axis == 12
    assert type(QuadratureSpec(np.int64(12)).nodes_per_axis) is int


def test_quadrature_nodes(monkeypatch):
    # midpoints of the sized rule: (10, 11) at this basis, the floor where it is larger
    basis = build_basis(Flux(2, 3), 0.3 + 1.1j, ANGLES)
    x, y = quadrature_nodes(basis)
    assert (x.size, y.size) == (10, 11)
    assert np.array_equal(x, (np.arange(10) + 0.5) / 10)
    assert np.array_equal(y, (np.arange(11) + 0.5) / 11)
    x, y = quadrature_nodes(build_basis(Flux(2, 3), 0.3 + 1.1j, ANGLES, quad=QuadratureSpec(16)))
    assert (x.size, y.size) == (16, 16)
    assert np.all((x > 0.0) & (x < 1.0))
    # the invariance report carries the nodes each of its three Z~ ran on
    ran = []
    nodes = lll.quadrature_nodes
    monkeypatch.setattr(lll, "quadrature_nodes",
                        lambda *a: ran.append(tuple(map(len, nodes(*a)))) or nodes(*a))
    report = modular_invariance_report(basis)
    assert ran == list(report.cell_nodes.values()) == [(10, 11), (10, 11), (12, 10)]
    assert list(report.cell_nodes) == ["tau", "tau+1", "-1/tau"]


@pytest.mark.parametrize("level, im_tau, counts", [
    (6, 1.1, (10, 11)),       # (3,2) at 0.3+1.1i: 110 points
    (72, 1.57, (29, 46)),     # 1334 points
    (6, 0.01, (105, 8)),
    (6, 50.0, (8, 74)),
    (1, 1.0, (8, 8)),
])
def test_cell_rule_size_is_pinned(level, im_tau, counts):
    # n_x * n_y is about 18 K at the default epsilon whatever Im tau
    assert cell_node_counts(level, im_tau, 1e-12) == counts


def test_character_route_sums_the_sized_rule(monkeypatch):
    # one residue-sum call on the cell_node_counts grid of the basis, its
    # rows the x nodes; a fall-back to a fixed 64 x 64 cell would show here
    calls = []
    residue_norms = partition._theta_residue_norms

    def recorded(level, x, c, *args):
        values = residue_norms(level, x, c, *args)
        calls.append((x, values.shape))
        return values

    monkeypatch.setattr(partition, "_theta_residue_norms", recorded)
    for nodes, grid in [(8, (10, 11)), (128, (128, 128))]:
        quad = QuadratureSpec(nodes)
        basis = build_basis(Flux(2, 3), 0.3 + 1.1j, ANGLES, quad=quad)
        z_tilde_character_route(basis)
        [(x, shape)] = calls
        assert shape == grid == basis.cell_nodes == cell_node_counts(6, 1.1, 1e-12, quad)
        assert np.array_equal(x, quadrature_nodes(basis)[0])
        calls.clear()


def test_one_quadrature_rule_in_the_library():
    src = Path(partition.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text()
        assert "legendre" not in text and "leggauss" not in text, path.name


def test_state_norm_frozen_values():
    [norm] = state_norm(build_basis(Flux(1, 1), 1j))
    assert abs(norm - NORM_I) < 1e-12
    [norm] = state_norm(build_basis(Flux(1, 1), 0.3 + 1.1j))
    assert abs(norm - NORM_GEN) < 1e-12


def _per_label_state_norms(basis):
    """Reference: one cell integral per single-residue state."""
    x, y = quadrature_nodes(basis)
    w = (x[:, None] + basis.tau.value * y).ravel()

    def norm(st):
        return math.fsum(np.abs(st.evaluate(w, np.conjugate(w))) ** 2) / w.size

    return [norm(basis.state(j, k)) for (j, k) in basis.labels()]


@pytest.mark.parametrize("mn, tau, nodes", [
    ((3, 2), 0.3 + 1.1j, 8),
    ((3, 2), 0.3 + 1.1j, 128),   # 16384 points
    ((7, 5), 0.01j, 8),          # 252 x 8 nodes
    ((13, 3), -0.2 + 1.7j, 8),
    ((3, 2), 50j, 8),
    ((8, 9), 0.2 + 1.4j, 8),     # 31 x 43 nodes
    ((11, 7), 0.1 + 1000j, 8),   # 8 x 1179 nodes
    ((7, 5), 0.001j, 8),         # 795 x 8 nodes, 34 terms per column
])
def test_state_norm_equals_the_per_label_loop(mn, tau, nodes):
    # the window table factors each term's exponential, and exp(u + v) is
    # not bitwise exp(u) * exp(v): the norms agree to the basis epsilon,
    # plus the ulps the pointwise states lose to cancelling exponents at
    # large Im tau
    m, n = mn
    basis = build_basis(Flux(n, m), tau, ANGLES, quad=QuadratureSpec(nodes))
    got = np.array(state_norm(basis))
    want = np.array(_per_label_state_norms(basis))
    tol = basis.policy.epsilon + _rounding_allowance(m * n, basis.tau.im)
    assert np.max(np.abs(got - want) / want) <= tol


def test_state_norm_is_the_gram_diagonal_without_subnormal_terms(monkeypatch):
    # the real table of 2*Re E that state_norm sums keeps each column's own
    # certified window, -inf elsewhere: the residue-wide union reached
    # subnormal range here (135 of 11880 entries at (11,9), 107 of 10192 at
    # (13,7)); its sums are the diagonal of the Gram matrix on the same nodes
    tables = []

    def recorded(*args):
        a, table = grid_window(*args)
        tables.append(table.copy())  # state_norm exponentiates its table in place
        return a, table

    grid_window = lll._grid_window
    monkeypatch.setattr(lll, "_grid_window", recorded)
    for (m, n), tau in (((11, 9), 0.2 + 2j), ((13, 7), -0.3 + 1.9j)):
        tables.clear()
        basis = build_basis(Flux(n, m), tau)
        norms = np.array(state_norm(basis))
        [table] = tables
        assert table.dtype == float
        own = table > -np.inf
        assert np.all(np.exp(0.5 * table[own]) >= np.finfo(float).tiny), (m, n)
        scale = 2.0 ** basis._cell_states[2]
        gram = scale**2 * basis.gram.diagonal().real
        assert np.max(np.abs(norms - gram) / gram) <= 1e-14


def _mp_window_norms(basis):
    """The state norms folded at 40 digits from the window's exponents
    ``E = i*pi*K*tau*(a + c/tau)**2 - i*pi*K*gamma**2/tau``, ``c = tau*y +
    gamma``, on the windows and frequencies of the cell rule: each own
    term's ``exp(2*Re E)`` plus, for the terms that alias mod ``n_x``,
    ``2*s*s'*exp(Re E + Re E')*cos(Im E - Im E')``, over the node count."""
    x, y = quadrature_nodes(basis)
    freq, table = basis.field.cell_norm_exponent(y)[:2]
    own = np.isfinite(table)
    k, n_x = basis.level, x.size
    with mpmath.workdps(40):
        tau = mpmath.mpc(basis.tau.re, basis.tau.im)
        gamma = (tau * basis.angles.alpha1 - basis.angles.alpha2) / (2 * mpmath.pi * k)
        norms = []
        for r, row in enumerate(freq.tolist()):
            total = mpmath.mpf(0)
            for j in range(y.size):
                c = tau * mpmath.mpf(float(y[j])) + gamma
                terms = [(f, 1j * mpmath.pi * k * tau * (mpmath.mpf(f) / k + c / tau) ** 2
                          - 1j * mpmath.pi * k * gamma**2 / tau)
                         for f, keep in zip(row, own[r, :, j]) if keep]
                for i, (f, e) in enumerate(terms):
                    total += mpmath.exp(2 * e.real)
                    for f2, e2 in terms[i + 1:]:
                        if (f2 - f) % n_x == 0:
                            sign = (-1) ** (f // n_x + f2 // n_x)
                            total += 2 * sign * mpmath.exp(e.real + e2.real) * mpmath.cos(
                                e.imag - e2.imag)
            norms.append(float(total / y.size))
        return np.array(norms)


@pytest.mark.parametrize("mn, tau, nodes", [((5, 2), 0.336 + 472.1j, 128),
                                             ((3, 2), 0.3 + 1000j, 8)])
def test_state_norm_holds_40_digit_window_sums_at_large_im_tau(mn, tau, nodes):
    # the real table forms v = a + y, not c/tau = (tau*y + gamma)/tau,
    # whose rounding at large Im tau cost the complex table 1.1e-14 and
    # 1.2e-14 here: the norms now read 2e-16 against 40 digits
    m, n = mn
    basis = build_basis(Flux(n, m), tau, quad=QuadratureSpec(nodes))
    want = _mp_window_norms(basis)
    assert np.max(np.abs(np.array(state_norm(basis)) - want) / want) <= 2e-15


def test_state_norm_where_its_terms_alias_holds_40_digits():
    # (1,1) at 0.001i: 194 terms per row on n_x = 135 nodes, so terms 135
    # apart alias; the pair phases are formed in real arithmetic from v.
    # Against 40 digits (1.6e-16) and against the per-label pointwise loop
    # (3.8e-15), which the complex table met to 5.1e-14
    basis = build_basis(Flux(1, 1), 0.001j, ANGLES)
    x, y = quadrature_nodes(basis)
    table = basis.field.cell_norm_exponent(y)[1]
    assert table.shape[1] > x.size // math.gcd(basis.level, x.size)
    got = np.array(state_norm(basis))
    want = _mp_window_norms(basis)
    assert np.max(np.abs(got - want) / want) <= 2e-15
    assert np.max(np.abs(got - _per_label_state_norms(basis)) / want) <= 1.2e-14


def test_z_tilde_frozen_values():
    assert abs(z_tilde(build_basis(Flux(1, 1), 1j)) - Z_I) < 1e-12
    assert abs(z_tilde(build_basis(Flux(1, 1), 0.3 + 1.1j)) - Z_GEN) < 1e-12


def test_state_norms_positive():
    basis = build_basis(Flux(2, 3), 0.3 + 1.1j, ANGLES)
    norms = state_norm(basis)
    assert len(norms) == 6
    assert all(norm > 0.0 for norm in norms)
    assert z_tilde(basis) > 0.0


def test_window_shift_invariance():
    # the norm integrand is cell-periodic: integrating over a window
    # shifted by 1 or by tau gives the same value
    tau = 0.3 + 1.1j
    basis = build_basis(Flux(2, 3), tau, ANGLES)
    st = basis.state(1, 0)
    n = 64
    s = (np.arange(n) + 0.5) / n
    x = np.repeat(s, n)
    y = np.tile(s, n)
    w = x + tau * y

    def cell_integral(shift):
        v = np.abs(st.evaluate(w + shift, np.conjugate(w + shift))) ** 2
        return v.sum() / n**2

    base = cell_integral(0.0)
    assert abs(cell_integral(1.0) - base) / base < 1e-9
    assert abs(cell_integral(tau) - base) / base < 1e-9


def test_self_convergence_under_node_doubling():
    a, b = (z_tilde(build_basis(Flux(1, 2), 0.3 + 1.1j, quad=QuadratureSpec(n))) for n in (32, 64))
    assert abs(a - b) / b < 1e-6


def test_invariance_at_s_fixed_point():
    report = modular_invariance_report(build_basis(Flux(1, 1), 1j))
    assert isinstance(report, ModularInvariance)
    assert report.s_residual < 1e-12


@pytest.mark.parametrize("flux", [Flux(1, 1), Flux(2, 3), Flux(1, 3)])
def test_invariance_residuals(flux):
    report = modular_invariance_report(build_basis(flux, 0.3 + 1.1j))
    assert report.t_residual < 1e-5
    assert report.s_residual < 1e-3


def test_refinement_decreases_s_residual():
    seq = [
        modular_invariance_report(build_basis(Flux(1, 1), 2j, quad=QuadratureSpec(n))).s_residual
        for n in (12, 24, 48)
    ]
    assert seq[1] < seq[0] + 1e-10
    assert seq[2] < seq[1] + 1e-10
    assert seq[-1] < 1e-3


def closed_form_z_tilde(k, tau, alpha1):
    """Parseval in x collapses the cell integral to a full Gaussian:
    Z~ = sqrt(K/(2b)) exp(b a1^2/(2 pi K)) / |eta|^2 with b = Im tau;
    mpmath.eta is an eta independent of the library's."""
    b = tau.imag
    eta = float(abs(mpmath.eta(mpmath.mpc(tau.real, tau.imag))))
    return math.sqrt(k / (2.0 * b)) * math.exp(b * alpha1**2 / (2.0 * math.pi * k)) / eta**2


# (mn, tau, angles, node floor).  At 1.9i, 1.95i and 50i with a raised
# floor K * Im tau is 137, 177 and 300: |theta|^2 alone leaves double
# range on the cell, and only the Gaussian folded into each series keeps
# both routes finite (128 nodes at 50i are more than the 8 x 74 the rule
# asks for).  Elsewhere the rule sizes itself from (K, Im tau)
_S_POINTS = [(mn, tau, angles, 8) for mn in ((1, 1), (3, 2), (2, 5))
             for tau in (0.3 + 1.1j, -0.2 + 1.7j) for angles in (VacuumAngles(), ANGLES)]
_CLOSED_FORM_POINTS = [((1, 1), 1j, VacuumAngles(), 8), *_S_POINTS,
                       ((9, 8), 1.9j, ANGLES, 64), ((13, 7), 1.95j, ANGLES, 64),
                       ((3, 2), 50j, ANGLES, 128)] + [
    (mn, complex(0.2, im), ANGLES, 8) for mn in ((3, 2), (7, 5), (13, 7))
    for im in (0.01, 0.03, 10.0, 50.0, 200.0)]


@pytest.mark.parametrize("point", _CLOSED_FORM_POINTS, ids=[
    "%d,%d-%s-%s-%d" % (*mn, tau, "angles" if angles.alpha1 else "0", nodes)
    for mn, tau, angles, nodes in _CLOSED_FORM_POINTS])
def test_both_routes_match_closed_form(point):
    (m, n), tau, angles, nodes = point
    want = closed_form_z_tilde(m * n, tau, angles.alpha1)
    basis = build_basis(Flux(n, m), tau, angles, quad=QuadratureSpec(nodes))
    for route in (z_tilde, z_tilde_character_route, z_tilde_closed_form):
        assert abs(route(basis) - want) <= 1e-11 * want, route.__name__
    if point in _S_POINTS:
        # the S residual is |exp((b' - b) a1^2/(2 pi K)) - 1| with b' = Im(-1/tau)
        ratio = math.exp(((-1.0 / tau).imag - tau.imag) * angles.alpha1**2 / (2 * math.pi * m * n))
        s_residual = modular_invariance_report(basis).s_residual
        assert abs(s_residual - abs(ratio - 1.0)) <= 1e-11 * ratio


@pytest.mark.parametrize("mn, tau", [((1, 1), 300j), ((3, 1), 1000j), ((2, 1), 1300j)])
def test_both_routes_read_inf_past_double_range(mn, tau):
    # at alpha1 = 6 the state norms themselves pass double range, though
    # the module measures: both routes read inf, as the closed form does,
    # in process, where numpy's overflow warning is an error
    m, n = mn
    basis = build_basis(Flux(n, m), tau, VacuumAngles(6.0, 0.0))
    assert state_norm(basis) == [math.inf] * (m * n)
    for route in (z_tilde, z_tilde_character_route, z_tilde_closed_form):
        assert route(basis) == math.inf, route.__name__


@pytest.mark.parametrize("mn, im_tau, alpha1", [((1, 1), 1.0, 100.0), ((2, 1), 10.0, 30.0),
                                                ((3, 2), 3.0, 100.0), ((7, 5), 1.0, 1000.0)])
def test_character_route_reads_inf_where_its_window_has_more_terms(mn, im_tau, alpha1):
    # past double range at a window of more than one term, an infinite
    # residue magnitude met a zero lag product (inf * 0) and read NaN; the
    # sum of non-negative terms is inf, as the cell route reads it
    m, n = mn
    basis = build_basis(Flux(n, m), complex(0.2, im_tau), VacuumAngles(alpha1, 0.3))
    assert z_tilde(basis) == math.inf
    assert z_tilde_character_route(basis) == math.inf


@pytest.mark.parametrize("mn, tau, alpha1", [((13, 7), 1e3j, 0.0), ((11, 7), 1e3j, 0.0),
                                              ((3, 2), 0.2 + 1e3j, 0.0), ((13, 7), 1e3j, 0.7),
                                              ((3, 2), 50j, 0.7)])
def test_character_route_keeps_its_digits_at_large_im_tau(mn, tau, alpha1):
    # the integrand's scale is taken relative to each node's envelope, so
    # no exponent of size pi*K*Im tau cancels: the route meets the closed
    # form on the same eta to round-off, as the per-state route does
    m, n = mn
    basis = build_basis(Flux(n, m), tau, VacuumAngles(alpha1, -1.3))
    want = z_tilde_closed_form(basis)
    assert abs(want - closed_form_z_tilde(m * n, tau, alpha1)) <= 1e-13 * want
    assert abs(z_tilde_character_route(basis) - want) <= 1e-14 * want


def test_the_two_routes_share_no_summation(monkeypatch):
    # the character route sums its residues in theta._theta_residue_norms,
    # the per-state route sums the exponents of the states' cell window
    # (lll._grid_exponent_norms): each still matches the closed form with
    # the other's summation gone, and the character route with the module's
    # window tables, scaled exponentials and alias machinery
    # (theta._grid_exponent, lll._scaled_exp, lll._grid_classes,
    # lll._grid_overlaps) gone too
    tau = -0.2 + 1.7j
    basis = build_basis(Flux(5, 7), tau, ANGLES)
    want = closed_form_z_tilde(35, tau, ANGLES.alpha1)

    def unreachable(*args, **kwargs):
        raise AssertionError("one partition route called the other's summation")

    with monkeypatch.context() as patch:
        for owner in (theta_module, lll):
            patch.setattr(owner, "_grid_exponent", unreachable)
        for name in ("_grid_window", "_scaled_exp", "_grid_classes", "_grid_overlaps",
                     "_grid_exponent_norms", "_alias_fold"):
            patch.setattr(lll, name, unreachable)
        patch.setattr(lll.LLLBasis, "_cell_states", property(unreachable))
        for method in ("cell_exponent", "cell_norm_exponent"):
            patch.setattr(lll.ThetaField, method, unreachable)
        assert abs(z_tilde_character_route(basis) - want) <= 1e-11 * want
    for owner in (theta_module, partition):
        monkeypatch.setattr(owner, "_theta_residue_norms", unreachable)
    assert abs(z_tilde(basis) - want) <= 1e-11 * want


def test_the_per_state_route_forms_no_complex_window(monkeypatch):
    # state_norm reads a real table of 2*Re E and forms no complex one:
    # with the complex window table, its exponents, the scaled exponential
    # and the module's table unreachable the norms and Z~ are as before,
    # bit for bit, and Z~ still matches the closed form
    tau = -0.2 + 1.7j
    want_norms = state_norm(build_basis(Flux(5, 7), tau, ANGLES))
    want_z = z_tilde(build_basis(Flux(5, 7), tau, ANGLES))

    def unreachable(*args, **kwargs):
        raise AssertionError("the per-state route formed a complex window table")

    for owner in (theta_module, lll):
        monkeypatch.setattr(owner, "_grid_exponent", unreachable)
    for name in ("_scaled_exp", "_grid_exponent_norms"):
        monkeypatch.setattr(lll, name, unreachable)
    monkeypatch.setattr(lll.ThetaField, "cell_exponent", unreachable)
    monkeypatch.setattr(lll.LLLBasis, "_cell_states", property(unreachable))
    assert state_norm(build_basis(Flux(5, 7), tau, ANGLES)) == want_norms
    assert z_tilde(build_basis(Flux(5, 7), tau, ANGLES)) == want_z
    closed = closed_form_z_tilde(35, tau, ANGLES.alpha1)
    assert abs(want_z - closed) <= 1e-11 * closed


_BOX_FLUXES = [(m, n) for m in range(1, 14) for n in range(1, 14)
               if math.gcd(m, n) == 1 and 2 <= m * n <= 100]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(mn=st.sampled_from(_BOX_FLUXES),
       re=st.floats(-0.5, 0.5), im=st.floats(0.8, 2.0),
       a1=st.floats(0.0, 2.0 * math.pi), a2=st.floats(0.0, 2.0 * math.pi))
def test_both_routes_match_closed_form_in_the_sweep_box(mn, re, im, a1, a2):
    m, n = mn
    tau = complex(re, im)
    want = closed_form_z_tilde(m * n, tau, a1)
    basis = build_basis(Flux(n, m), tau, VacuumAngles(a1, a2))
    assert abs(z_tilde(basis) - want) <= 1e-11 * want
    assert abs(z_tilde_character_route(basis) - want) <= 1e-11 * want


def _pointwise_cell_norms(field, x, y):
    """The sums of ``|f|^2`` over the grid, each value evaluated
    pointwise, in blocks of 16 x 8 nodes so the series' term arrays stay
    small."""
    return sum(_pointwise_density(field, x[i:i + 16], y[j:j + 8]).sum(axis=(-2, -1))
               for i in range(0, x.size, 16) for j in range(0, y.size, 8))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(mn=st.sampled_from(_BOX_FLUXES),
       re=st.floats(-0.5, 0.5), log_im=st.floats(-3.0, 3.0),
       a1=st.floats(0.0, 2.0 * math.pi), a2=st.floats(0.0, 2.0 * math.pi))
@example(mn=(9, 10), re=0.5, log_im=-3.0, a1=5.0, a2=1.0)  # 1274 x 8 nodes
@example(mn=(13, 7), re=-0.3, log_im=3.0, a1=0.7, a2=6.0)  # 8 x 1281 nodes
def test_state_norm_sums_the_grid_densities(mn, re, log_im, a1, a2):
    # the folded window table against every value of the cell rule
    # summed as |value|^2: the pointwise states to epsilon plus the ulps
    # their cancelling exponents lose at large Im tau
    m, n = mn
    basis = build_basis(Flux(n, m), complex(re, 10.0**log_im), VacuumAngles(a1, a2))
    x, y = quadrature_nodes(basis)
    got = np.array(state_norm(basis))
    pointwise = _pointwise_cell_norms(basis.field, x, y) / (x.size * y.size)
    tol = basis.policy.epsilon + _rounding_allowance(m * n, basis.tau.im)
    assert np.max(np.abs(got - pointwise) / pointwise) <= tol
