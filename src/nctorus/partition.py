r"""Cell quadrature of ground-state norms and the eta-normalized state
sum, with a numerical check of its modular invariance.

The candidate partition function at flux ``N/M`` on the torus ``tau``
is

    Z~(tau) = sum_{j,k} ||Psi_jk||^2 / |eta(tau)|^2,

    ||Psi_jk||^2 = Int_{[0,1)^2} dx dy |Psi_jk(x + tau*y)|^2,

where the integrand (for vacuum angles ``(a1, a2)``) is the doubly
periodic function ``exp(-2*pi*K*b*y^2 - 2*a1*b*y) |theta^K_r(w+gamma)|^2``
with ``b = Im tau``.  Both quadrature schemes are spectrally accurate on
it.  ``Z~`` is computed by two deliberately independent routes: the
per-state route sums :func:`state_norm` over the basis, while the
character route evaluates a single integrand containing the full
residue sum of thetas over eta directly; their agreement is a
consistency check, so the two code paths are kept separate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Flux, VacuumAngles, as_tau
from .lll import LLLBasis, build_basis
from .theta import ThetaSpec, TruncationPolicy, dedekind_eta, theta

__all__ = [
    "QuadratureSpec",
    "quadrature_nodes",
    "state_norm",
    "z_tilde",
    "z_tilde_character_route",
    "ModularInvariance",
    "modular_invariance_report",
]

_DEFAULT_POLICY = TruncationPolicy()
_SCHEMES = ("gauss-legendre", "uniform-trapezoid")
_CHUNK = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product quadrature of the unit square."""

    nodes_per_axis: int = 64
    scheme: str = "gauss-legendre"

    def __post_init__(self):
        object.__setattr__(self, "nodes_per_axis", int(self.nodes_per_axis))
        if self.nodes_per_axis < 8:
            raise ValueError("nodes_per_axis must be at least 8")
        if self.scheme not in _SCHEMES:
            raise ValueError(
                "scheme must be one of %s, got %r" % (_SCHEMES, self.scheme)
            )


def quadrature_nodes(quad: QuadratureSpec):
    """1D nodes and weights on [0, 1] for the requested scheme."""
    n = quad.nodes_per_axis
    if quad.scheme == "gauss-legendre":
        x, w = np.polynomial.legendre.leggauss(n)
        return 0.5 * (x + 1.0), 0.5 * w
    # left-endpoint uniform rule == trapezoid for periodic integrands
    return np.arange(n) / n, np.full(n, 1.0 / n)


def _cell_integral(integrand, quad: QuadratureSpec) -> float:
    """Integrate ``integrand(x, y) -> real ndarray`` over the unit
    square: nodes are evaluated in fixed chunks of ``_CHUNK`` points and
    the chunk sums reduced with ``math.fsum``."""
    x1, w1 = quadrature_nodes(quad)
    xs = np.repeat(x1, x1.size)
    ys = np.tile(x1, x1.size)
    wts = np.repeat(w1, w1.size) * np.tile(w1, w1.size)
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


def z_tilde(basis: LLLBasis, quad: QuadratureSpec = QuadratureSpec(),
            policy: TruncationPolicy = None) -> float:
    """Eta-normalized state sum, per-state route."""
    pol = policy if policy is not None else basis.policy
    eta = dedekind_eta(basis.tau, pol)
    total = math.fsum(
        state_norm(basis, j, k, quad) for (j, k) in basis.labels()
    )
    return total / abs(eta) ** 2


def z_tilde_character_route(basis: LLLBasis, quad: QuadratureSpec = QuadratureSpec(),
                            policy: TruncationPolicy = None) -> float:
    """Eta-normalized state sum, single-integrand character route: the
    residue sum of |theta|^2 over |eta|^2 is evaluated pointwise from
    the series directly (no Field machinery)."""
    pol = policy if policy is not None else basis.policy
    t = basis.tau
    tau = t.value
    b = t.im
    klev = basis.level
    a1 = basis.angles.alpha1
    gamma = basis.gamma
    eta2 = abs(dedekind_eta(t, pol)) ** 2
    specs = [ThetaSpec(klev, r) for r in range(klev)]

    def integrand(x, y):
        w = x + tau * y
        gauss = np.exp(-2.0 * math.pi * klev * b * y**2 - 2.0 * a1 * b * y)
        chi2 = sum(np.abs(theta(s, w + gamma, t, pol)) ** 2 for s in specs)
        return gauss * chi2 / eta2

    return _cell_integral(integrand, quad)


class ModularInvariance(NamedTuple):
    t_residual: float
    s_residual: float


def modular_invariance_report(flux: Flux, angles: VacuumAngles, tau,
                              quad: QuadratureSpec = QuadratureSpec(),
                              policy: TruncationPolicy = _DEFAULT_POLICY) -> ModularInvariance:
    """Relative deviation of Z~ under tau -> tau+1 and tau -> -1/tau,
    all three values computed with identical quadrature and truncation
    specs."""
    t = as_tau(tau)
    z0 = z_tilde(build_basis(flux, t, angles, policy), quad, policy)
    zt = z_tilde(
        build_basis(flux, t.value + 1.0, angles, policy), quad, policy
    )
    zs = z_tilde(
        build_basis(flux, -1.0 / t.value, angles, policy), quad, policy
    )
    return ModularInvariance(abs(zt - z0) / z0, abs(zs - z0) / z0)
