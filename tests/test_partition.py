import numpy as np
import pytest

from nctorus.core import Flux, VacuumAngles
from nctorus.lll import build_basis
from nctorus.partition import (
    ModularInvariance,
    QuadratureSpec,
    modular_invariance_report,
    quadrature_nodes,
    state_norm,
    z_tilde,
    z_tilde_character_route,
)

ANGLES = VacuumAngles(0.7, -1.3)

# 50-digit quadrature oracle values for the single-state case.
NORM_I = 0.7071067811865475244
Z_I = 1.1981402347355922074
NORM_GEN = 0.67419986246324208625
Z_GEN = 1.1985492230536032894


def test_quadrature_spec_validation():
    spec = QuadratureSpec()
    assert spec.nodes_per_axis == 64 and spec.scheme == "gauss-legendre"
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_axis=4)
    with pytest.raises(ValueError):
        QuadratureSpec(scheme="simpson")


def test_quadrature_nodes():
    for scheme in ("gauss-legendre", "uniform-trapezoid"):
        x, w = quadrature_nodes(QuadratureSpec(16, scheme))
        assert x.size == 16 and w.size == 16
        assert np.all((x >= 0.0) & (x < 1.0))
        assert abs(w.sum() - 1.0) < 1e-14


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


def test_schemes_agree():
    basis = build_basis(Flux(2, 3), 0.3 + 1.1j)
    a = z_tilde(basis, QuadratureSpec(64, "gauss-legendre"))
    b = z_tilde(basis, QuadratureSpec(64, "uniform-trapezoid"))
    assert abs(a - b) / a < 1e-12


def test_self_convergence_under_node_doubling():
    basis = build_basis(Flux(1, 2), 0.3 + 1.1j)
    a = z_tilde(basis, QuadratureSpec(32))
    b = z_tilde(basis, QuadratureSpec(64))
    assert abs(a - b) / b < 1e-6


def test_invariance_at_s_fixed_point():
    report = modular_invariance_report(Flux(1, 1), VacuumAngles(), 1j)
    assert isinstance(report, ModularInvariance)
    assert report.s_residual < 1e-12


@pytest.mark.parametrize("flux", [Flux(1, 1), Flux(2, 3), Flux(1, 3)])
def test_invariance_residuals(flux):
    report = modular_invariance_report(flux, VacuumAngles(), 0.3 + 1.1j)
    assert report.t_residual < 1e-5
    assert report.s_residual < 1e-3


def test_refinement_decreases_s_residual():
    seq = [
        modular_invariance_report(
            Flux(1, 1), VacuumAngles(), 2j, QuadratureSpec(n)
        ).s_residual
        for n in (12, 24, 48)
    ]
    assert seq[1] < seq[0] + 1e-10
    assert seq[2] < seq[1] + 1e-10
    assert seq[-1] < 1e-3
