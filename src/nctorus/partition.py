r"""Cell quadrature of ground-state norms and the eta-normalized state
sum, with a numerical check of its modular invariance.

The candidate partition function at flux ``N/M`` on the torus ``tau``
is

    Z~(tau) = sum_{j,k} ||Psi_jk||^2 / |eta(tau)|^2,

    ||Psi_jk||^2 = Int_{[0,1)^2} dx dy |Psi_jk(x + tau*y)|^2,

where the integrand (for vacuum angles ``(a1, a2)``) is the doubly
periodic function ``exp(-2*pi*K*b*y^2 - 2*a1*b*y) |theta^K_r(w+gamma)|^2``
with ``b = Im tau``.  The tensor-product Gauss-Legendre rule is
spectrally accurate on it.  ``Z~`` is computed by two deliberately
independent routes: the per-state route sums :func:`state_norm` over the
basis, while the character route evaluates a single integrand containing
the full residue sum of thetas over eta directly; their agreement is a
consistency check, so the two code paths are kept separate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lll import LLLBasis, build_basis
from .theta import ThetaSpec, dedekind_eta, theta

__all__ = [
    "QuadratureSpec",
    "quadrature_nodes",
    "state_norm",
    "z_tilde",
    "z_tilde_character_route",
    "ModularInvariance",
    "modular_invariance_report",
]

_CHUNK = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product Gauss-Legendre quadrature of the unit square."""

    nodes_per_axis: int = 64

    def __post_init__(self):
        object.__setattr__(self, "nodes_per_axis", int(self.nodes_per_axis))
        if self.nodes_per_axis < 8:
            raise ValueError("nodes_per_axis must be at least 8")


def quadrature_nodes(quad: QuadratureSpec):
    """1D Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(quad.nodes_per_axis)
    return 0.5 * (x + 1.0), 0.5 * w


@functools.cache
def _cell_nodes(quad: QuadratureSpec):
    """Read-only tensor-product nodes ``xs, ys`` and weights ``wts`` of
    the unit square, built once per spec."""
    x1, w1 = quadrature_nodes(quad)
    xs = np.repeat(x1, x1.size)
    ys = np.tile(x1, x1.size)
    wts = np.repeat(w1, w1.size) * np.tile(w1, w1.size)
    for arr in (xs, ys, wts):
        arr.flags.writeable = False
    return xs, ys, wts


def _cell_integral(integrand, quad: QuadratureSpec) -> float:
    """Integrate ``integrand(x, y) -> real ndarray`` over the unit
    square: nodes are evaluated in fixed chunks of ``_CHUNK`` points and
    the chunk sums reduced with ``math.fsum``."""
    xs, ys, wts = _cell_nodes(quad)
    return math.fsum(
        float(np.dot(wts[i:i + _CHUNK], integrand(xs[i:i + _CHUNK], ys[i:i + _CHUNK])))
        for i in range(0, xs.size, _CHUNK)
    )


def state_norm(basis: LLLBasis, j, k, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Squared cell norm of the ground state (j, k)."""
    st = basis.state(j, k)
    tau = basis.tau.value

    def integrand(x, y):
        w = x + tau * y
        return np.abs(st.evaluate(w, np.conjugate(w))) ** 2

    return _cell_integral(integrand, quad)


def z_tilde(basis: LLLBasis, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Eta-normalized state sum, per-state route: the :func:`state_norm`
    of every state of ``basis`` over ``|eta|^2``, both truncated by the
    basis's own policy."""
    eta = dedekind_eta(basis.tau, basis.policy)
    total = math.fsum(
        state_norm(basis, j, k, quad) for (j, k) in basis.labels()
    )
    return total / abs(eta) ** 2


def z_tilde_character_route(basis: LLLBasis, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Eta-normalized state sum, single-integrand character route: the
    residue sum of |theta|^2 over |eta|^2 is evaluated pointwise from
    the series directly (no Field machinery), at the level, angles and
    truncation policy of ``basis``."""
    t = basis.tau
    tau = t.value
    b = t.im
    klev = basis.level
    a1 = basis.angles.alpha1
    gamma = basis.gamma
    eta2 = abs(dedekind_eta(t, basis.policy)) ** 2
    specs = [ThetaSpec(klev, r) for r in range(klev)]

    def integrand(x, y):
        w = x + tau * y
        # half the Gaussian rides in each series, so |theta|^2 never overflows
        half = -math.pi * klev * b * y**2 - a1 * b * y
        chi2 = sum(np.abs(theta(s, w + gamma, t, basis.policy, log_scale=half)) ** 2
                   for s in specs)
        return chi2 / eta2

    return _cell_integral(integrand, quad)


class ModularInvariance(NamedTuple):
    t_residual: float
    s_residual: float
    z_tilde: float


def modular_invariance_report(basis: LLLBasis,
                              quad: QuadratureSpec = QuadratureSpec()) -> ModularInvariance:
    """Relative deviation of Z~ under tau -> tau+1 and tau -> -1/tau.

    ``z_tilde`` is the per-state Z~ of ``basis`` itself; the two
    transformed bases are built from its flux, angles and truncation
    policy, so all three values share one quadrature and one policy."""
    tau = basis.tau.value
    z0 = z_tilde(basis, quad)
    zt = z_tilde(build_basis(basis.flux, tau + 1.0, basis.angles, basis.policy), quad)
    zs = z_tilde(build_basis(basis.flux, -1.0 / tau, basis.angles, basis.policy), quad)
    return ModularInvariance(abs(zt - z0) / z0, abs(zs - z0) / z0, z0)
