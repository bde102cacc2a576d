r"""Wavefields on the plane and the operators acting on them: magnetic
displacements, ladder operators, and coherent states.

A :class:`Field` is a function of the two *independent* complex slots
``(z, zbar)``; on the physical slice ``zbar = conj(z)``.  Each field
carries the modular parameter it lives on and a positive weight ``w``
(``im_tau_weight``) that sets the Gaussian scale of its ground state:
``Im tau`` for plane fields, ``Im tau / (2*pi*M*N)`` for the rescaled
lowest-level fields.

Displacement by ``u`` acts as

    (D(u) f)(z, zbar) = exp((conj(u)*z - u*zbar)/(4*w)) * f(z - u, zbar - conj(u))

and composes projectively,

    D(u) D(v) = exp(i*Im(v*conj(u))/(2*w)) * D(u + v).

Lattice vectors embed into the cell-adapted dimensionless frame as
``u = sqrt(2*pi*kappa) * (m1 + m2*tau)``; with the weight ``w = Im tau``
this gives the flux cocycle ``exp(i*pi*kappa*(m x n))`` exactly and
independently of ``tau`` (``m x n = m1*n2 - m2*n1``), as the plaquette
flux must be.  The physical cell edge in magnetic-length units is the
separate quantity ``l0`` of the :mod:`~nctorus.core` docstring.

The ladder operators at weight ``w`` are

    a+ = -sqrt(2w) (d/dz - zbar/(4w)),   a- = sqrt(2w) (d/dzbar + z/(4w)),
    b+ = -sqrt(2w) (d/dzbar - z/(4w)),   b- = sqrt(2w) (d/dz + zbar/(4w)),

so that [a-, a+] = [b-, b+] = 1 and every displacement commutes with
both ``a`` ladders.

The operator probes (the cocycle, the sine bracket, the dual commutation
and the plaquette) apply words of lattice displacements to the centred
Gaussian and read them on the 7 x 7 :func:`plane_sample_grid`.  One
harness builds the Gaussian, the displacements and the grid for each
probe and applies its words, through the public helpers.  Each probe's
target phase, ``exp(i*pi*kappa*(m x n))`` or ``exp(2*pi*i*kappa)``, is
formed from its integer numerator, ``N*(m x n)`` or ``2*N``, by
:func:`nctorus.core.phase_angle`, the one home of the reduction rule, so no
phase argument grows with ``N`` or the lattice vectors.  (The rule's two
exceptions, the clock's table of roots in :mod:`nctorus.matrices` and the
predicted phases of the translation laws in :mod:`nctorus.lll`, lie
outside this module.)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Flux, as_tau, phase_angle

__all__ = [
    "Field",
    "Displacement",
    "displacement_apply",
    "ladder_apply",
    "coherent_state",
    "gaussian_field",
    "lattice_displacement",
    "displacement_cocycle_residual",
    "sine_bracket_residual",
    "dual_commutation_residual",
    "plaquette_phase",
    "plaquette_residual",
    "plane_sample_grid",
]

_FD_STEP = 1e-5


class Field:
    """Wavefield with independent ``(z, zbar)`` slots.

    Parameters
    ----------
    evaluate : callable
        ``evaluate(z, zbar) -> complex`` accepting scalars or ndarrays.
    tau : complex or ModularParameter
        Modular parameter the field lives on.
    im_tau_weight : float
        Gaussian weight ``w > 0`` used by displacements and ladders.
    d_z, d_zbar : callable, optional
        Analytic partial derivatives.  When omitted they fall back to
        centered finite differences in the corresponding slot.
    """

    __slots__ = ("evaluate", "d_z", "d_zbar", "tau", "im_tau_weight")

    def __init__(self, evaluate, tau, im_tau_weight, d_z=None, d_zbar=None):
        self.evaluate = evaluate
        self.tau = as_tau(tau).value
        self.im_tau_weight = float(im_tau_weight)
        if self.im_tau_weight <= 0.0:
            raise ValueError("im_tau_weight must be positive")
        if d_z is None:
            d_z = lambda z, zbar: (
                evaluate(z + _FD_STEP, zbar) - evaluate(z - _FD_STEP, zbar)
            ) / (2.0 * _FD_STEP)
        if d_zbar is None:
            d_zbar = lambda z, zbar: (
                evaluate(z, zbar + _FD_STEP) - evaluate(z, zbar - _FD_STEP)
            ) / (2.0 * _FD_STEP)
        self.d_z = d_z
        self.d_zbar = d_zbar


@dataclass(frozen=True)
class Displacement:
    """Displacement vector ``u``; its antiholomorphic slot is ``conj(u)``."""

    u: complex

    @property
    def ubar(self) -> complex:
        return self.u.conjugate()

    @classmethod
    def from_vector(cls, u) -> "Displacement":
        return cls(complex(u))

    def __neg__(self) -> "Displacement":
        return Displacement(-self.u)


def lattice_displacement(flux: Flux, tau, m, dual=False) -> Displacement:
    """Displacement along ``m1*e1 + m2*e2`` of the crystal lattice, or
    along the dual lattice ``e*_i = (M/N)*e_i`` when ``dual`` is true.

    The embedding uses the cell-adapted frame ``e1 = sqrt(2*pi*kappa)``,
    ``e2 = sqrt(2*pi*kappa)*tau`` (see the module docstring), which makes
    the plaquette holonomy ``exp(2*pi*i*kappa)`` for every ``tau``.
    """
    t = as_tau(tau)
    m1, m2 = m
    scale = math.sqrt(2.0 * math.pi * flux.kappa)
    if dual:
        scale *= flux.denominator / flux.numerator
    u = scale * (m1 + m2 * t.value)
    return Displacement.from_vector(u)


def displacement_apply(d: Displacement, f: Field) -> Field:
    """Apply the displacement ``d`` to ``f`` (weight read off the field)."""
    w4 = 4.0 * f.im_tau_weight
    u, ubar = d.u, d.ubar

    def exponent(z, zbar):  # of the prefactor, linear in (z, zbar)
        return (ubar * z - u * zbar) / w4

    def ev(z, zbar):
        return np.exp(exponent(z, zbar)) * f.evaluate(z - u, zbar - ubar)

    def dz(z, zbar):
        pref = np.exp(exponent(z, zbar))
        return pref * ((ubar / w4) * f.evaluate(z - u, zbar - ubar) + f.d_z(z - u, zbar - ubar))

    def dzbar(z, zbar):
        pref = np.exp(exponent(z, zbar))
        return pref * ((-u / w4) * f.evaluate(z - u, zbar - ubar) + f.d_zbar(z - u, zbar - ubar))

    return Field(ev, f.tau, f.im_tau_weight, d_z=dz, d_zbar=dzbar)


_LADDER_NAMES = ("a+", "a-", "b+", "b-")


def ladder_apply(which: str, f: Field) -> Field:
    """Apply a ladder operator (``"a+"``, ``"a-"``, ``"b+"``, ``"b-"``).

    The output's own derivative slots fall back to finite differences of
    the new ``evaluate``; repeated application therefore accumulates one
    finite-difference level per ladder when the input derivatives are
    analytic.
    """
    if which not in _LADDER_NAMES:
        raise ValueError("unknown ladder %r; expected one of %s" % (which, (_LADDER_NAMES,)))
    w = f.im_tau_weight
    s = math.sqrt(2.0 * w)
    w4 = 4.0 * w

    if which == "a+":
        ev = lambda z, zbar: -s * (f.d_z(z, zbar) - zbar / w4 * f.evaluate(z, zbar))
    elif which == "a-":
        ev = lambda z, zbar: s * (f.d_zbar(z, zbar) + z / w4 * f.evaluate(z, zbar))
    elif which == "b+":
        ev = lambda z, zbar: -s * (f.d_zbar(z, zbar) - z / w4 * f.evaluate(z, zbar))
    else:  # b-
        ev = lambda z, zbar: s * (f.d_z(z, zbar) + zbar / w4 * f.evaluate(z, zbar))
    return Field(ev, f.tau, w)


def coherent_state(z0, tau) -> Field:
    """Normalized minimal Gaussian centered at ``z0`` (plane weight
    ``w = Im tau``), with analytic derivatives.

    Annihilated up to its eigenvalue by ``a-``:
    ``a- Phi_z0 = z0 / (2*sqrt(2*Im tau)) * Phi_z0``.
    """
    t = as_tau(tau)
    w = t.im
    z0 = complex(z0)
    z0bar = z0.conjugate()
    c = 1.0 / math.sqrt(2.0 * math.pi * w)

    def ev(z, zbar):
        return c * np.exp(-(z - z0) * (zbar - z0bar) / (4.0 * w))

    dz = lambda z, zbar: -(zbar - z0bar) / (4.0 * w) * ev(z, zbar)
    dzbar = lambda z, zbar: -(z - z0) / (4.0 * w) * ev(z, zbar)
    return Field(ev, t, w, d_z=dz, d_zbar=dzbar)


def gaussian_field(tau) -> Field:
    """Centered ground-state Gaussian on the plane (coherent state at 0)."""
    return coherent_state(0.0, tau)


def plane_sample_grid(tau, n=7):
    """Evaluation grid of the operator residual probes: Cartesian points
    ``z = x + i*y`` with ``x, y`` on ``n`` uniform points of ``[-1.2, 1.2]``."""
    xs = np.linspace(-1.2, 1.2, n)
    z = (xs[:, None] + 1j * xs[None, :]).ravel()
    return z, np.conjugate(z)


def _cross(m, n):
    return m[0] * n[1] - m[1] * n[0]


def _plane_probe(flux, tau, *vectors):
    """The operator probes' harness: the :func:`lattice_displacement` of
    each ``(m, dual)`` of ``vectors``, and ``word(*ds)``, the values of
    ``D(ds[0]) ... D(ds[-1])`` applied to the centred Gaussian of ``tau``
    (the rightmost first) at the points of :func:`plane_sample_grid`."""
    t = as_tau(tau)
    f = gaussian_field(t)
    z, zbar = plane_sample_grid(t)

    def word(*displacements):
        g = f
        for d in reversed(displacements):
            g = displacement_apply(d, g)
        # at an extreme tau the Gaussian's exponents leave double range
        with np.errstate(over="ignore", invalid="ignore"):
            return g.evaluate(z, zbar)

    return [lattice_displacement(flux, t, m, dual) for m, dual in vectors], word


def displacement_cocycle_residual(m, n, flux, tau) -> float:
    """Sup-norm residual of D(m) D(n) = exp(i*pi*kappa*(m x n)) D(m+n)
    on lattice displacements applied to the centred Gaussian, measured on
    :func:`plane_sample_grid`."""
    (dm, dn, dmn), word = _plane_probe(flux, tau, (m, False), (n, False),
                                       ((m[0] + n[0], m[1] + n[1]), False))
    phase = cmath.exp(1j * phase_angle(flux.numerator * _cross(m, n), flux.denominator))
    return float(np.max(np.abs(word(dm, dn) - phase * word(dmn))))


def sine_bracket_residual(m, n, flux, tau) -> float:
    """Sup-norm residual of the sine bracket

        [D(m), D(n)] = 2i sin(pi*kappa*(m x n)) D(m+n)

    on lattice displacements applied to the centred Gaussian, measured on
    :func:`plane_sample_grid`."""
    (dm, dn, dmn), word = _plane_probe(flux, tau, (m, False), (n, False),
                                       ((m[0] + n[0], m[1] + n[1]), False))
    coeff = 2j * math.sin(phase_angle(flux.numerator * _cross(m, n), flux.denominator))
    return float(np.max(np.abs(word(dm, dn) - word(dn, dm) - coeff * word(dmn))))


def dual_commutation_residual(m, n_dual, flux, tau) -> float:
    """Sup-norm residual of [D(m), D~(n*)] = 0: lattice displacements
    commute exactly with dual-lattice displacements (on the centred
    Gaussian, measured on :func:`plane_sample_grid`)."""
    (dm, dn), word = _plane_probe(flux, tau, (m, False), (n_dual, True))
    return float(np.max(np.abs(word(dm, dn) - word(dn, dm))))


def plaquette_phase(flux, tau, dual=False):
    """Measured holonomy of the elementary plaquette
    D(e1) D(e2) D(e1)^{-1} D(e2)^{-1} (or its dual) on the centred
    Gaussian, as ``(phase, spread)``: the mean pointwise ratio to the
    Gaussian and the largest deviation from it over
    :func:`plane_sample_grid`."""
    (e1, e2), word = _plane_probe(flux, tau, ((1, 0), dual), ((0, 1), dual))
    base = word()
    out = word(e1, e2, -e1, -e2)
    mask = np.abs(base) >= 0.05 * np.max(np.abs(base))
    ratios = out[mask] / base[mask]
    phase = complex(np.mean(ratios))
    spread = float(np.max(np.abs(ratios - phase)))
    return phase, spread


def plaquette_residual(flux, tau) -> float:
    """Larger of the :func:`plaquette_phase` deviation from the flux phase
    ``e^{2 pi i N/M}``, formed by :func:`~nctorus.core.phase_angle`, and its
    pointwise spread."""
    phase, spread = plaquette_phase(flux, tau)
    dev = abs(phase - cmath.exp(1j * phase_angle(2 * flux.numerator, flux.denominator)))
    return float(np.max([dev, spread]))  # np.max, unlike max, keeps a NaN
