r"""Cell quadrature of ground-state norms and the eta-normalized state
sum, with a numerical check of its modular invariance.

The candidate partition function at flux ``N/M`` on the torus ``tau``
is

    Z~(tau) = sum_{j,k} ||Psi_jk||^2 / |eta(tau)|^2,

    ||Psi_jk||^2 = Int_{[0,1)^2} dx dy |Psi_jk(x + tau*y)|^2,

where the integrand (for vacuum angles ``(a1, a2)``) is the doubly
periodic function ``exp(-2*pi*K*b*y^2 - 2*a1*b*y) |theta^K_r(w+gamma)|^2``
with ``b = Im tau``.  It is integrated by the tensor midpoint rule (the
periodic trapezoid rule): ``n_x`` by ``n_y`` equally weighted nodes
``((i + 1/2)/n_x, (j + 1/2)/n_y)``.  On a periodic integrand that rule
is exact up to the Fourier modes it aliases onto the mean, and here
those are known in closed form: in ``x`` the only modes are multiples
``m*K`` of the level, of relative size ``exp(-pi*K*b*m^2/2)``; in ``y``
the peaks are Gaussians of variance ``1/(4*pi*K*b)``, whose mode ``k``
has relative size ``exp(-pi*k^2/(2*K*b))``.  So

    n_x = ceil(sqrt(2*K*ln(2/eps)/(pi*b))),
    n_y = ceil(sqrt(2*K*b*ln(2/eps)/pi))

bound the relative aliasing error by ``eps``, the truncation
``epsilon`` of the basis, as the theta cutoffs are bounded
(:func:`cell_node_counts`).  ``n_x*n_y`` is about ``(2/pi)*K*ln(2/eps)``
whatever ``b``, and each axis takes at least
``QuadratureSpec.nodes_per_axis`` nodes.

``Z~`` is computed by two deliberately independent routes: the
per-state route sums :func:`state_norm` over the basis, while the
character route evaluates a single integrand containing the full
residue sum of thetas over eta directly; their agreement is a
consistency check, so the two code paths are kept separate.  Parseval
in ``x`` collapses the cell integral to a full Gaussian in ``y``, which
gives :func:`z_tilde_closed_form`; neither route reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lll import LLLBasis, build_basis
from .theta import ThetaSpec, dedekind_eta, theta

__all__ = [
    "QuadratureSpec",
    "cell_node_counts",
    "quadrature_nodes",
    "state_norm",
    "z_tilde",
    "z_tilde_character_route",
    "z_tilde_closed_form",
    "ModularInvariance",
    "modular_invariance_report",
]

_CHUNK = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Per-axis floor on the nodes of the cell's tensor midpoint rule,
    which otherwise sizes itself (:func:`cell_node_counts`)."""

    nodes_per_axis: int = 8

    def __post_init__(self):
        object.__setattr__(self, "nodes_per_axis", int(self.nodes_per_axis))
        if self.nodes_per_axis < 8:
            raise ValueError("nodes_per_axis must be at least 8")


def cell_node_counts(level: int, im_tau: float, epsilon: float,
                     quad: QuadratureSpec = QuadratureSpec()) -> tuple[int, int]:
    """Nodes ``(n_x, n_y)`` of the midpoint rule whose aliasing error on
    a level-``level`` norm integrand at ``Im tau = im_tau`` is below
    ``epsilon`` relative to the integral, each at least
    ``quad.nodes_per_axis``."""
    log = math.log(2.0 / epsilon)
    k, b = float(level), float(im_tau)
    n_x = math.ceil(math.sqrt(2.0 * k * log / (math.pi * b)))
    n_y = math.ceil(math.sqrt(2.0 * k * b * log / math.pi))
    return max(n_x, quad.nodes_per_axis), max(n_y, quad.nodes_per_axis)


def quadrature_nodes(basis: LLLBasis, quad: QuadratureSpec = QuadratureSpec()):
    """Midpoint nodes ``x, y`` on [0, 1) of the cell rule for ``basis``,
    sized from its level, ``Im tau`` and truncation ``epsilon``; each
    of the ``x.size * y.size`` tensor nodes has the same weight."""
    n_x, n_y = cell_node_counts(basis.level, basis.tau.im, basis.policy.epsilon, quad)
    return (np.arange(n_x) + 0.5) / n_x, (np.arange(n_y) + 0.5) / n_y


def _cell_integral(integrand, basis: LLLBasis, quad: QuadratureSpec) -> float:
    """Integrate ``integrand(x, y) -> real ndarray`` over the unit
    square by the midpoint rule of ``basis``: nodes are evaluated in
    fixed chunks of ``_CHUNK`` points and the chunk sums reduced with
    ``math.fsum``."""
    x, y = quadrature_nodes(basis, quad)
    xs = np.repeat(x, y.size)
    ys = np.tile(y, x.size)
    total = math.fsum(
        float(np.sum(integrand(xs[i:i + _CHUNK], ys[i:i + _CHUNK])))
        for i in range(0, xs.size, _CHUNK)
    )
    return total / xs.size


def state_norm(basis: LLLBasis, j, k, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Squared cell norm of the ground state (j, k)."""
    st = basis.state(j, k)
    tau = basis.tau.value

    def integrand(x, y):
        w = x + tau * y
        return np.abs(st.evaluate(w, np.conjugate(w))) ** 2

    return _cell_integral(integrand, basis, quad)


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

    return _cell_integral(integrand, basis, quad)


def z_tilde_closed_form(basis: LLLBasis) -> float:
    """``Z~`` without quadrature: Parseval in ``x`` leaves a full
    Gaussian in ``y``, so ``Z~ = sqrt(K/(2b)) exp(b a1^2/(2 pi K)) /
    |eta|^2`` with ``b = Im tau`` and eta truncated by the basis's
    policy."""
    k, b, a1 = basis.level, basis.tau.im, basis.angles.alpha1
    eta2 = abs(dedekind_eta(basis.tau, basis.policy)) ** 2
    try:
        gauss = math.exp(b * a1**2 / (2.0 * math.pi * k))
    except OverflowError:  # Z~ itself leaves double range, as both routes do
        gauss = math.inf
    return math.sqrt(k / (2.0 * b)) * gauss / eta2


class ModularInvariance(NamedTuple):
    t_residual: float
    s_residual: float
    z_tilde: float


def modular_invariance_report(basis: LLLBasis,
                              quad: QuadratureSpec = QuadratureSpec()) -> ModularInvariance:
    """Relative deviation of Z~ under tau -> tau+1 and tau -> -1/tau.

    ``z_tilde`` is the per-state Z~ of ``basis`` itself; the two
    transformed bases are built from its flux, angles and truncation
    policy, so all three values share one node floor and one policy,
    and each sizes its cell rule from its own ``Im tau``."""
    tau = basis.tau.value
    z0 = z_tilde(basis, quad)
    zt = z_tilde(build_basis(basis.flux, tau + 1.0, basis.angles, basis.policy), quad)
    zs = z_tilde(build_basis(basis.flux, -1.0 / tau, basis.angles, basis.policy), quad)
    return ModularInvariance(abs(zt - z0) / z0, abs(zs - z0) / z0, z0)
