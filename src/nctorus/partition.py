r"""Cell quadrature of ground-state norms and the eta-normalized state
sum, with a numerical check of its modular invariance.

The candidate partition function at flux ``N/M`` on the torus ``tau``
is

    Z~(tau) = sum_{j,k} ||Psi_jk||^2 / |eta(tau)|^2,

    ||Psi_jk||^2 = Int_{[0,1)^2} dx dy |Psi_jk(x + tau*y)|^2,

where the integrand (for vacuum angles ``(a1, a2)``) is the doubly
periodic function ``exp(-2*pi*K*b*y^2 - 2*a1*b*y) |theta^K_r(w+gamma)|^2``
with ``b = Im tau``.  It is integrated on the basis's own cell rule,
:attr:`~nctorus.lll.LLLBasis.cell_nodes`: the tensor midpoint rule at its
node floor, sized so that its aliasing on this integrand stays below the
truncation ``epsilon`` of the basis.  The same nodes certify the Bloch
module that ``LLLBasis`` measures from the states' window table.

``Z~`` is computed by two deliberately independent routes.  The
per-state route sums the K norms of :func:`~nctorus.lll.state_norm`,
the diagonal of the module's Gram matrix, folded from the exponents of
the states' window table as "The cell rule" of :mod:`nctorus.lll`
describes: no value on the grid and no complex exponential is formed.
The character route forms ``sum_r |theta_r|^2`` at every node of the
same rule and sums the values over ``|eta|^2``, with the square
completed in ``y``: ``theta``'s private residue sum takes all K residues
as the classes mod K of one series around each column's peak, at K
squared magnitudes and a trigonometric polynomial's coefficients per
column, one phase table per row and the polynomial per node.  It never
touches ``Field``, the window table or the comb and alias sums over
``x``.  Their agreement checks both summations.  Parseval in ``x``
collapses the cell integral to a full Gaussian in ``y``, which gives
:func:`z_tilde_closed_form`; neither route reads it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .lll import LLLBasis, build_basis, quadrature_nodes, state_norm
from .theta import _theta_residue_norms

__all__ = [
    "z_tilde",
    "z_tilde_character_route",
    "z_tilde_closed_form",
    "ModularInvariance",
    "modular_invariance_report",
    "t_invariance_residual",
    "s_invariance_residual",
]


def z_tilde(basis: LLLBasis) -> float:
    """Eta-normalized state sum, per-state route: the :func:`state_norm`
    of every state of ``basis`` over ``|eta|^2`` (:attr:`LLLBasis.eta`),
    both truncated by the basis's own policy."""
    eta2 = abs(basis.eta) ** 2
    return _over_eta2(math.fsum(state_norm(basis)), eta2)


def z_tilde_character_route(basis: LLLBasis) -> float:
    """Eta-normalized state sum, single-integrand character route: the
    residue sum of |theta|^2 is evaluated from the series directly (no
    Field machinery) at every node of the :func:`quadrature_nodes` grid,
    all K residues from the terms nearest each column's peak, at the
    level, angles and truncation policy of ``basis``; ``Z~`` is the
    ``math.fsum`` of the value table's column sums over the node count and
    ``|eta|^2``."""
    t = basis.tau
    tau = t.value
    b = t.im
    klev = basis.level
    a1 = basis.angles.alpha1
    gamma = basis.gamma
    eta2 = abs(basis.eta) ** 2

    # the scale relative to the envelope of x + c, c = tau*y + gamma: with
    # the square completed in y, -pi*K*b*y**2 - a1*b*y + pi*K*(b*y + Im
    # gamma)**2/b, so no term of size pi*K*b is formed and cancelled
    slope = 2.0 * math.pi * klev * gamma.imag - a1 * b
    offset = math.pi * klev * gamma.imag**2 / b
    x, y = quadrature_nodes(basis)
    # past double range a value reads inf, or NaN where inf meets a zero, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _theta_residue_norms(klev, x, tau * y + gamma, t, basis.policy,
                                    slope * y + offset).sum(axis=0)
    # where |eta|^2 underflows to 0 the quotient reads inf, as it does in z_tilde
    return _over_eta2(math.fsum(sums) / (x.size * y.size), eta2)


def _over_eta2(value: float, eta2: float) -> float:
    """``value / eta2`` for ``eta2 = |eta|^2``.  Above ``Im tau`` of about
    1420, ``|eta|^2`` underflows to 0 while eta itself is still normal, so
    the quotient leaves double range: it reads inf (NaN stays NaN, and a
    0 that underflowed reads NaN) rather than raising
    ``ZeroDivisionError``."""
    return value / eta2 if eta2 else math.inf * value


def _gaussian_exponent(level, im_tau, alpha1) -> float:
    """Exponent ``b a1^2/(2 pi K)`` of the Gaussian factor of ``Z~``."""
    return im_tau * alpha1**2 / (2.0 * math.pi * level)


def z_tilde_closed_form(basis: LLLBasis) -> float:
    """``Z~`` without quadrature: Parseval in ``x`` leaves a full
    Gaussian in ``y``, so ``Z~ = sqrt(K/(2b)) exp(b a1^2/(2 pi K)) /
    |eta|^2`` with ``b = Im tau`` and eta truncated by the basis's
    policy."""
    k, b, a1 = basis.level, basis.tau.im, basis.angles.alpha1
    eta2 = abs(basis.eta) ** 2
    try:
        gauss = math.exp(_gaussian_exponent(k, b, a1))
    except OverflowError:  # Z~ itself leaves double range, as both routes do
        gauss = math.inf
    return _over_eta2(math.sqrt(k / (2.0 * b)) * gauss, eta2)


class ModularInvariance(NamedTuple):
    """``cell_nodes``: the ``(n_x, n_y)`` each ``Z~`` ran on, keyed
    ``"tau"``, ``"tau+1"`` and ``"-1/tau"``."""

    t_residual: float
    s_residual: float
    z_tilde: float
    cell_nodes: dict


def modular_invariance_report(basis: LLLBasis) -> ModularInvariance:
    """Relative deviation of Z~ under tau -> tau+1 and tau -> -1/tau.

    ``z_tilde`` is the per-state Z~ of ``basis`` itself; the two
    transformed bases are built from its flux, angles, truncation policy
    and node floor, so all three values share one policy and one floor,
    and each sizes its cell rule from its own ``Im tau``."""
    tau = basis.tau.value
    bases = {"tau": basis,
             "tau+1": build_basis(basis.flux, tau + 1.0, basis.angles, basis.policy, basis.quad),
             "-1/tau": build_basis(basis.flux, -1.0 / tau, basis.angles, basis.policy, basis.quad)}
    z0, zt, zs = (z_tilde(b) for b in bases.values())
    nodes = {label: b.cell_nodes for label, b in bases.items()}
    return ModularInvariance(abs(zt - z0) / z0, abs(zs - z0) / z0, z0, nodes)


def t_invariance_residual(report: ModularInvariance):
    """``(residual, note)`` of ``Z~`` under tau -> tau+1."""
    return report.t_residual, (
        "holds by construction where the quadrature resolves the integrand: Z~ depends "
        "on tau only through Im tau and |eta|, so the residual is round-off; "
        "cell nodes (n_x, n_y) = (%d, %d) at tau and tau+1" % report.cell_nodes["tau"])


def s_invariance_residual(basis: LLLBasis, report: ModularInvariance):
    """``(residual, note)`` of ``Z~`` under tau -> -1/tau, against the
    closed form: ``sqrt(b)*|eta|^2`` is S-invariant, so S moves only the
    Gaussian factor of :func:`z_tilde_closed_form`."""
    b_s = (-1.0 / basis.tau.value).imag
    predicted = abs(math.expm1(
        _gaussian_exponent(basis.level, b_s - basis.tau.im, basis.angles.alpha1)))
    return abs(report.s_residual - predicted), (
        "s_residual %s against the closed-form S factor of Z~, "
        "|expm1((Im(-1/tau) - Im tau)*alpha1**2/(2*pi*K))| = %s; "
        "cell nodes (n_x, n_y) = (%d, %d) at tau, (%d, %d) at -1/tau"
        % (format(report.s_residual, ".17g"), format(predicted, ".17g"),
           *report.cell_nodes["tau"], *report.cell_nodes["-1/tau"]))
