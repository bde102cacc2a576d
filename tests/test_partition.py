import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus import partition
from nctorus.core import Flux, VacuumAngles
from nctorus.lll import build_basis
from nctorus.partition import (
    ModularInvariance,
    QuadratureSpec,
    cell_node_counts,
    modular_invariance_report,
    quadrature_nodes,
    state_norm,
    z_tilde,
    z_tilde_character_route,
    z_tilde_closed_form,
)

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


def test_quadrature_nodes():
    # midpoints of the sized rule: (10, 11) at this basis, the floor where it is larger
    basis = build_basis(Flux(2, 3), 0.3 + 1.1j, ANGLES)
    x, y = quadrature_nodes(basis)
    assert (x.size, y.size) == (10, 11)
    assert np.array_equal(x, (np.arange(10) + 0.5) / 10)
    assert np.array_equal(y, (np.arange(11) + 0.5) / 11)
    x, y = quadrature_nodes(basis, QuadratureSpec(16))
    assert (x.size, y.size) == (16, 16)
    assert np.all((x > 0.0) & (x < 1.0))


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


def test_cell_integral_integrates_the_sized_rule():
    # a fall-back to a fixed 64 x 64 cell would show here first
    basis = build_basis(Flux(2, 3), 0.3 + 1.1j, ANGLES)
    points = []
    partition._cell_integral(lambda x, y: points.append(x.size) or np.ones_like(x),
                             basis, QuadratureSpec())
    assert sum(points) == 10 * 11


def test_one_quadrature_rule_in_the_library():
    src = Path(partition.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text()
        assert "legendre" not in text and "leggauss" not in text, path.name


def test_state_norm_frozen_values():
    assert abs(state_norm(build_basis(Flux(1, 1), 1j), 0, 0) - NORM_I) < 1e-12
    assert abs(
        state_norm(build_basis(Flux(1, 1), 0.3 + 1.1j), 0, 0) - NORM_GEN
    ) < 1e-12


def test_z_tilde_frozen_values():
    assert abs(z_tilde(build_basis(Flux(1, 1), 1j)) - Z_I) < 1e-12
    assert abs(z_tilde(build_basis(Flux(1, 1), 0.3 + 1.1j)) - Z_GEN) < 1e-12


def test_state_norms_positive():
    basis = build_basis(Flux(2, 3), 0.3 + 1.1j, ANGLES)
    for j in range(3):
        for k in range(2):
            assert state_norm(basis, j, k) > 0.0
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


def test_two_routes_agree():
    for tau, flux, angles in (
        (1j, Flux(1, 1), VacuumAngles()),
        (0.3 + 1.1j, Flux(2, 3), ANGLES),
    ):
        basis = build_basis(flux, tau, angles)
        a = z_tilde(basis)
        b = z_tilde_character_route(basis)
        assert abs(a - b) / a < 1e-10


def test_self_convergence_under_node_doubling():
    basis = build_basis(Flux(1, 2), 0.3 + 1.1j)
    a = z_tilde(basis, QuadratureSpec(32))
    b = z_tilde(basis, QuadratureSpec(64))
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
        modular_invariance_report(build_basis(Flux(1, 1), 2j), QuadratureSpec(n)).s_residual
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


@pytest.mark.parametrize("mn", [(1, 1), (3, 2), (2, 5)])
@pytest.mark.parametrize("tau", [0.3 + 1.1j, -0.2 + 1.7j])
@pytest.mark.parametrize("angles", [VacuumAngles(), ANGLES])
def test_invariance_report_matches_closed_form(mn, tau, angles):
    # the S residual is |exp((b' - b) a1^2/(2 pi K)) - 1| with b' = Im(-1/tau)
    m, n = mn
    k = m * n
    b, b_s, a1 = tau.imag, (-1.0 / tau).imag, angles.alpha1
    want = closed_form_z_tilde(k, tau, a1)
    basis = build_basis(Flux(n, m), tau, angles)
    report = modular_invariance_report(basis)
    assert abs(report.z_tilde - want) <= 1e-11 * want
    assert abs(z_tilde_character_route(basis) - want) <= 1e-11 * want
    ratio = math.exp((b_s - b) * a1**2 / (2.0 * math.pi * k))
    assert abs(report.s_residual - abs(ratio - 1.0)) <= 1e-11 * ratio


@pytest.mark.parametrize("mn, tau, nodes", [((9, 8), 1.9j, 64), ((13, 7), 1.95j, 64),
                                            ((3, 2), 50j, 128)])
def test_both_routes_match_closed_form_where_raw_theta_overflows(mn, tau, nodes):
    # K * Im tau is 137, 177 and 300: |theta|^2 alone leaves double range
    # on the cell, and only the Gaussian folded into each series keeps
    # both routes finite.  ``nodes`` is the per-axis floor; the 128 case
    # integrates more points than the rule asks for at 50i (8 x 74).
    m, n = mn
    want = closed_form_z_tilde(m * n, tau, ANGLES.alpha1)
    basis = build_basis(Flux(n, m), tau, ANGLES)
    quad = QuadratureSpec(nodes)
    assert abs(z_tilde(basis, quad) - want) <= 1e-11 * want
    assert abs(z_tilde_character_route(basis, quad) - want) <= 1e-11 * want


@pytest.mark.parametrize("mn", [(3, 2), (7, 5), (13, 7)])
@pytest.mark.parametrize("im_tau", [0.01, 0.03, 10.0, 50.0, 200.0])
def test_both_routes_match_closed_form_over_im_tau(mn, im_tau):
    # the rule sizes itself from (K, Im tau): no floor beyond the default
    m, n = mn
    tau = complex(0.2, im_tau)
    want = closed_form_z_tilde(m * n, tau, ANGLES.alpha1)
    basis = build_basis(Flux(n, m), tau, ANGLES)
    assert abs(z_tilde(basis) - want) <= 1e-11 * want
    assert abs(z_tilde_character_route(basis) - want) <= 1e-11 * want
    assert abs(z_tilde_closed_form(basis) - want) <= 1e-11 * want


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
