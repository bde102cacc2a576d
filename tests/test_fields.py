import cmath
import math

import mpmath
import numpy as np
import pytest

from nctorus import fields
from nctorus.core import Flux, phase_angle
from nctorus.fields import (
    Field,
    coherent_state,
    displacement_apply,
    displacement_cocycle_residual,
    dual_commutation_residual,
    gaussian_field,
    ladder_apply,
    lattice_displacement,
    plane_sample_grid,
    plaquette_phase,
    plaquette_residual,
    sine_bracket_residual,
)

TAU = 0.3 + 1.1j
FLUX = Flux(2, 3)


def window_quadrature(field, half_width=8.0, n=321):
    """Midpoint quadrature of |f|^2 and f-weighted moments on a square
    window (plenty for Gaussians of O(1) width)."""
    xs = np.linspace(-half_width, half_width, n)
    dx = xs[1] - xs[0]
    z = xs[:, None] + 1j * xs[None, :]
    vals = field.evaluate(z, np.conjugate(z))
    return z, vals, dx * dx


def test_field_requires_positive_weight():
    with pytest.raises(ValueError):
        Field(lambda z, zbar: z, 1j, 0.0)


def test_finite_difference_fallback_matches_analytic():
    # same closure once with and once without analytic derivatives
    w = 1.1

    def ev(z, zbar):
        return np.exp(-z * zbar / (4 * w)) * (z + 2.0 * zbar**2)

    f_fd = Field(ev, TAU, w)
    z, zbar = plane_sample_grid(TAU)
    dz_exact = (-zbar / (4 * w)) * ev(z, zbar) + np.exp(-z * zbar / (4 * w))
    dzb_exact = (-z / (4 * w)) * ev(z, zbar) + np.exp(-z * zbar / (4 * w)) * 4.0 * zbar
    assert np.max(np.abs(f_fd.d_z(z, zbar) - dz_exact)) < 1e-6
    assert np.max(np.abs(f_fd.d_zbar(z, zbar) - dzb_exact)) < 1e-6


def test_displacement_zero_is_identity():
    f = gaussian_field(TAU)
    g = displacement_apply(0j, f)
    z, zbar = plane_sample_grid(TAU)
    assert np.max(np.abs(g.evaluate(z, zbar) - f.evaluate(z, zbar))) == 0.0


def test_displacement_prefactor_and_shift():
    f = gaussian_field(TAU)
    u = 0.7 - 0.4j
    g = displacement_apply(u, f)
    z, zbar = plane_sample_grid(TAU)
    w4 = 4.0 * f.im_tau_weight
    expected = np.exp((u.conjugate() * z - u * zbar) / w4) * f.evaluate(
        z - u, zbar - u.conjugate()
    )
    assert np.max(np.abs(g.evaluate(z, zbar) - expected)) == 0.0


def test_displacement_preserves_l2_norm():
    f = coherent_state(0.3 + 0.2j, TAU)
    d = lattice_displacement(FLUX, TAU, (1, 1))
    _, v0, da = window_quadrature(f, half_width=10.0)
    _, v1, _ = window_quadrature(displacement_apply(d, f), half_width=10.0)
    n0 = np.sum(np.abs(v0) ** 2) * da
    n1 = np.sum(np.abs(v1) ** 2) * da
    assert abs(n0 - 1.0) < 1e-6
    assert abs(n1 - n0) < 1e-6


def test_displacement_derivative_propagation():
    f = coherent_state(0.1 - 0.3j, TAU)
    d = 0.4 + 0.9j
    g = displacement_apply(d, f)
    z, zbar = plane_sample_grid(TAU, n=5)
    h = 2e-6
    fd = (g.evaluate(z + h, zbar) - g.evaluate(z - h, zbar)) / (2 * h)
    assert np.max(np.abs(g.d_z(z, zbar) - fd)) < 1e-6
    fd = (g.evaluate(z, zbar + h) - g.evaluate(z, zbar - h)) / (2 * h)
    assert np.max(np.abs(g.d_zbar(z, zbar) - fd)) < 1e-6


def test_ladder_validation():
    with pytest.raises(ValueError):
        ladder_apply("c+", gaussian_field(TAU))


def test_lowering_annihilates_ground_state():
    f = gaussian_field(TAU)
    z, zbar = plane_sample_grid(TAU)
    out = ladder_apply("a-", f).evaluate(z, zbar)
    assert np.max(np.abs(out)) < 1e-8
    # the b-ladder annihilates it as well (minimal angular momentum at tau=i)
    g = gaussian_field(1j)
    z, zbar = plane_sample_grid(1j)
    out = ladder_apply("b-", g).evaluate(z, zbar)
    assert np.max(np.abs(out)) < 1e-8


def test_canonical_commutators():
    f = coherent_state(0.2 + 0.1j, TAU)
    z, zbar = plane_sample_grid(TAU)
    for lo, hi in (("a-", "a+"), ("b-", "b+")):
        v1 = ladder_apply(lo, ladder_apply(hi, f)).evaluate(z, zbar)
        v2 = ladder_apply(hi, ladder_apply(lo, f)).evaluate(z, zbar)
        assert np.max(np.abs(v1 - v2 - f.evaluate(z, zbar))) < 1e-6


def test_a_and_b_ladders_commute():
    f = coherent_state(-0.1 + 0.25j, TAU)
    z, zbar = plane_sample_grid(TAU)
    for a in ("a+", "a-"):
        for b in ("b+", "b-"):
            v1 = ladder_apply(a, ladder_apply(b, f)).evaluate(z, zbar)
            v2 = ladder_apply(b, ladder_apply(a, f)).evaluate(z, zbar)
            assert np.max(np.abs(v1 - v2)) < 1e-6


def test_coherent_state_normalization_and_position():
    z0 = 0.4 - 0.55j
    f = coherent_state(z0, TAU)
    z, vals, da = window_quadrature(f, half_width=9.0, n=361)
    norm = np.sum(np.abs(vals) ** 2) * da
    assert abs(norm - 1.0) < 1e-6
    zbar_mean = np.sum(np.abs(vals) ** 2 * z) * da / norm
    assert abs(zbar_mean - z0) < 1e-6


def test_coherent_state_lowering_eigenvalue():
    # eigenvalue of the normalized lowering operator: the center divided
    # by the ladder's length scale 2*sqrt(2*Im tau)
    z0 = 0.4 - 0.2j
    f = coherent_state(z0, TAU)
    lam = z0 / (2.0 * math.sqrt(2.0 * TAU.imag))
    z, zbar = plane_sample_grid(TAU)
    out = ladder_apply("a-", f).evaluate(z, zbar)
    assert np.max(np.abs(out - lam * f.evaluate(z, zbar))) < 1e-12


def test_displaced_ground_state_is_coherent_state():
    u = 0.5 + 0.3j
    f0 = gaussian_field(TAU)
    moved = displacement_apply(u, f0)
    target = coherent_state(u, TAU)
    z, zbar = plane_sample_grid(TAU)
    w4 = 4.0 * TAU.imag
    # moved = exp((ubar z - u zbar)/4w) * C exp(-(z-u)(zbar-ubar)/4w) = phase * target
    phase = np.exp((u.conjugate() * z - u * zbar) / w4)
    assert np.max(np.abs(moved.evaluate(z, zbar) - phase * target.evaluate(z, zbar))) < 1e-14


def test_displacements_commute_with_ladders():
    f = coherent_state(0.2 - 0.3j, TAU)
    d = lattice_displacement(FLUX, TAU, (1, -1))
    z, zbar = plane_sample_grid(TAU)
    for name in ("a+", "a-"):
        v1 = ladder_apply(name, displacement_apply(d, f)).evaluate(z, zbar)
        v2 = displacement_apply(d, ladder_apply(name, f)).evaluate(z, zbar)
        assert np.max(np.abs(v1 - v2)) < 1e-12


def test_number_expectation_raises_by_one():
    # <n> via ||a- f||^2 / ||f||^2; the chain a+ -> a+ accumulates two
    # finite-difference levels, noise well under the 1e-4 budget
    f0 = gaussian_field(TAU)
    f1 = ladder_apply("a+", f0)
    f2 = ladder_apply("a+", f1)
    for field, expected in ((f0, 0.0), (f1, 1.0), (f2, 2.0)):
        lowered = ladder_apply("a-", field)
        _, v, da = window_quadrature(field)
        _, lv, _ = window_quadrature(lowered)
        n = np.sum(np.abs(lv) ** 2) / np.sum(np.abs(v) ** 2)
        assert abs(n - expected) < 1e-4


def test_cocycle_group_law():
    rng = np.random.default_rng(31)
    for tau in (1j, TAU, 2j):
        for _ in range(4):
            m = tuple(int(v) for v in rng.integers(-3, 4, 2))
            n = tuple(int(v) for v in rng.integers(-3, 4, 2))
            assert displacement_cocycle_residual(m, n, FLUX, tau) < 1e-9


def test_sine_bracket():
    assert sine_bracket_residual((1, 1), (1, 1), FLUX, TAU) == 0.0
    assert sine_bracket_residual((1, 0), (0, 1), FLUX, 1j) < 1e-9
    assert sine_bracket_residual((2, 1), (1, -1), FLUX, TAU) < 1e-9
    # integer flux: all displacements commute
    assert sine_bracket_residual((1, 0), (0, 1), Flux(1, 1), TAU) < 1e-12


def test_flux_phases_are_reduced_before_they_are_formed(monkeypatch):
    # the cocycle exp(i*pi*kappa*c), the sine bracket's 2*sin(pi*kappa*c)
    # and the plaquette target exp(2*pi*i*kappa) = exp(i*pi*kappa*2) take
    # (N*c) mod 2M: over coprime M, N <= 24 each is within a few units in
    # the last place of a 30-digit value, where pi*kappa*c, unreduced,
    # strays up to 6.1e-14 (1.2e-13 for 2*sin, 2.0e-14 for the target)
    phase_err = sine_err = 0.0
    with mpmath.workdps(30):
        for m in range(1, 25):
            for n in range(1, 25):
                if math.gcd(m, n) != 1:
                    continue
                for cross in range(-6, 7):
                    angle = phase_angle(n * cross, m)
                    turns = mpmath.mpf(n * cross) / m
                    phase_err = max(phase_err, float(abs(
                        mpmath.mpc(cmath.exp(1j * angle)) - mpmath.expjpi(turns))))
                    sine_err = max(sine_err, float(abs(
                        2.0 * math.sin(angle) - 2 * mpmath.sinpi(turns))))
    assert phase_err <= 8 * 2.0**-52 and sine_err <= 16 * 2.0**-52
    # each probe forms its phase from that angle, at N times its own cross product
    arguments = []

    def recorded(numerator, denominator):
        arguments.append((numerator, denominator))
        return phase_angle(numerator, denominator)

    monkeypatch.setattr(fields, "phase_angle", recorded)
    flux = Flux(23, 1)
    assert displacement_cocycle_residual((1, 1), (-1, 1), flux, TAU) < 1e-9
    assert sine_bracket_residual((1, 1), (2, -1), flux, TAU) < 1e-9
    assert plaquette_residual(flux, TAU) < 1e-10
    assert arguments == [(23 * 2, 1), (23 * -3, 1), (23 * 2, 1)]


def test_dual_commutation():
    for m in ((1, 0), (0, 1), (2, -1)):
        for n in ((1, 0), (0, 1), (1, 1)):
            assert dual_commutation_residual(m, n, FLUX, TAU) < 1e-9


def test_plaquette_holonomy_both_levels():
    for tau in (1j, TAU, 2j):
        phase, spread = plaquette_phase(FLUX, tau)
        assert spread < 1e-10
        assert abs(phase - cmath.exp(2j * math.pi * FLUX.kappa)) < 1e-10
        phase, spread = plaquette_phase(FLUX, tau, dual=True)
        assert spread < 1e-10
        assert abs(phase - cmath.exp(2j * math.pi / FLUX.kappa)) < 1e-10
