r"""Level-``K`` theta functions with certified truncation, the Dedekind
eta function, and the associated character transforms.

The basic object is

    theta_r^K(z, tau) = sum_n exp(i*pi*tau*K*(n + r/K)**2)
                              * exp(2*pi*i*K*z*(n + r/K)),

summed over all integers ``n``, for level ``K >= 1`` and residue
``r in {0, ..., K-1}`` (DLMF 20.2 in different notation; the level-``K``
lattice convention is the one natural for magnetic translations on a
torus of flux ``N/M`` with ``K = M*N``).

Truncation certificate
----------------------
With ``b = Im tau > 0`` and ``h = |Im z|``, each tail term at offset
``n`` beyond the centre is bounded by ``exp(phi(n))`` with

    phi(u) = -pi*K*b*u**2 + 2*pi*K*h*u.

``n_max`` is chosen as the smallest ``n >= 1`` such that

    (a)  pi*K*b*(2n+1) - 2*pi*K*h >= log 2   (term ratio <= 1/2 beyond n)
    (b)  4 * exp(phi(n)) < eps               (both geometric tails summed)

which certifies ``|sum_{|n'|>n}| < eps`` for every residue ``r``
simultaneously.  Once (a) holds it holds for every larger ``n`` and the
bound of (b) falls, so ``n_max`` is a scan up from the order-0 roots of
(a) and (b) to the first certified ``n``, as for the peak-centred count.

The ``z``-derivative series carries an extra factor ``2*pi*K|n + r/K|``
per term; its certificate uses the same ``phi`` with a polynomial
correction and a term ratio of ``3/4``.

Peak-centred certificate (scaled evaluation)
--------------------------------------------
A caller that multiplies theta by a Gaussian ``exp(L(z))`` (a Bloch wave
is ``exp(G) * theta(w + gamma)``) passes ``L`` as ``log_scale``; it is
added to every term's exponent before ``exp``, so neither factor is
formed on its own and nothing overflows when their product is tame.
With ``a = n + r/K`` the real part of a term's exponent is

    Re L + pi*K*(Im z)**2/b - pi*K*b*(a - a*)**2,    a* = -Im z / b,

so each point's terms peak at its own ``a*`` under the *envelope*
``exp(Re L + pi*K*(Im z)**2/b)``.  The sum runs over the ``T``
consecutive terms nearest ``a*``; every omitted term lies at least
``W = T/2`` from the peak, and the omitted terms sum to at most

    2 * exp(-pi*K*b*W**2) / (1 - exp(-2*pi*K*b*W))

times the envelope (the classical point reduction: Mumford, *Tata
Lectures on Theta I*, §I.1; Deconinck et al., Math. Comp. 73 (2004)).
``T`` is the smallest count that puts this bound below ``eps``: one term
per point once ``K*b >= 37`` and two once ``K*b >= 9.1`` at
``eps = 1e-12``.  For the ``p``-th derivative the bound gains the factor
``p! * c**p / (1 - exp(-2*pi*K*b*W))**p`` with ``c = max|a*| + W + 1``
and is relative to ``(2*pi*K)**p`` times the envelope.  The symmetric
``n_max`` rule stays the certificate whenever no ``log_scale`` is given;
the one summation routine serves both.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import as_tau
from .errors import TruncationError, UnsupportedConventionError

__all__ = [
    "ThetaSpec",
    "TruncationPolicy",
    "theta",
    "theta_dz",
    "truncation_bound",
    "dedekind_eta",
    "character",
    "t_transform_residual",
    "s_transform_residual",
    "orthogonality_residual",
    "quasi_periodicity_residual",
]

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class ThetaSpec:
    """Level and residue of a theta function; residue is reduced mod level."""

    level: int
    residue: int

    def __post_init__(self):
        try:
            level = operator.index(self.level)
            residue = operator.index(self.residue)
        except TypeError:
            raise ValueError(
                "level and residue must be integers, got %r, %r"
                % (self.level, self.residue)
            ) from None
        if level < 1:
            raise ValueError("level must be a positive integer, got %r" % (level,))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "residue", residue % level)


@dataclass(frozen=True)
class TruncationPolicy:
    """Tail bound ``epsilon`` and hard cap on the number of terms."""

    epsilon: float = 1e-12
    max_terms: int = 1_000_000

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1), got %r" % (self.epsilon,))
        if self.max_terms < 3:
            raise ValueError("max_terms must be at least 3")


_DEFAULT_POLICY = TruncationPolicy()


def _nmax_certified(level, im_tau, im_z, eps, deriv_order=0):
    """Smallest certified symmetric cutoff for the theta tail bound;
    :class:`TruncationError` when ``|Im z|`` puts it past 2**52 terms."""
    k = float(level)
    b = float(im_tau)
    h = abs(float(im_z))
    c = 2.0 * math.pi * k * h
    pkb = math.pi * k * b
    log_eps = math.log(eps)

    # derivative series: term ratio <= 3/4 requires a little more decay,
    # and the summed tails pick up the polynomial weight (2*pi*K*(n+1))^p.
    ratio_log = _LOG2 if deriv_order == 0 else math.log(4.0 / 3.0)
    tail_factor = 4.0 if deriv_order == 0 else 8.0

    def certified(n):  # the weight ratio (n+2)/(n+1) <= 2 rides in the ratio_log margin
        decay = pkb * (2 * n + 1) - c - deriv_order * math.log((n + 2.0) / (n + 1.0))
        log_term = -pkb * n * n + c * n + deriv_order * math.log(2.0 * math.pi * k * (n + 1.0))
        return decay >= ratio_log and math.log(tail_factor) + log_term < log_eps

    # neither condition holds below its order-0 root (a derivative's weight
    # only tightens both), so the scan starts at or below the first certified n
    n_ratio = (ratio_log + c) / (2.0 * pkb) - 0.5
    n_bound = (c + math.sqrt(c * c + 4.0 * pkb * (math.log(tail_factor) - log_eps))) / (2.0 * pkb)
    start = max(n_ratio, n_bound)
    if not start < 2.0**52:  # no series that long is summable; a NaN start fails too
        raise TruncationError("theta cutoff exceeds 2**52 terms at |Im z| = %r" % h, bound=eps)
    n = max(1, math.floor(start))
    while not certified(n):
        n += 1
    return n


def truncation_bound(level, z, tau, epsilon) -> int:
    """Certified symmetric cutoff ``n_max`` for ``theta`` at the given
    level, argument(s) ``z`` (scalar or array; the largest ``|Im z|``
    governs), modular parameter and tail bound."""
    t = as_tau(tau)
    zz = np.asarray(z, dtype=complex)
    h = float(np.max(np.abs(zz.imag))) if zz.size else 0.0
    if not (0.0 < float(epsilon) < 1.0):
        raise ValueError("epsilon must lie in (0, 1), got %r" % (epsilon,))
    return _nmax_certified(level, t.im, h, float(epsilon))


def _peak_window(level, im_tau, peak, eps, deriv_order=0):
    """Smallest count ``T`` of consecutive terms around each point's peak
    whose omitted tail is below ``eps`` relative to the envelope (see the
    module docstring); ``peak`` is the largest ``|a*|``."""
    pkb = math.pi * level * im_tau
    log_eps = math.log(eps)
    p = deriv_order

    def certified(count):
        half = 0.5 * count
        log_q = -2.0 * pkb * half
        log_tail = _LOG2 - pkb * half * half - (p + 1) * math.log1p(-math.exp(log_q))
        if p:
            log_tail += math.lgamma(p + 1) + p * math.log(peak + half + 1.0)
        return log_tail < log_eps

    # the Gaussian factor alone needs pi*K*b*W**2 > log(2/eps); the rest only adds
    count = max(1, math.ceil(2.0 * math.sqrt((_LOG2 - log_eps) / pkb)))
    while not certified(count):
        count += 1
    return count


def _theta_sum(spec, z, tau, policy, deriv_order, log_scale=None):
    t = as_tau(tau)
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    zz = np.atleast_1d(zz)
    k = spec.level
    if log_scale is None:
        h = float(np.max(np.abs(zz.imag))) if zz.size else 0.0
        n_max = _nmax_certified(k, t.im, h, policy.epsilon, deriv_order)
        count = 2 * n_max + 1
        start = -n_max
    else:
        a_star = -zz.imag / t.im
        finite = np.isfinite(a_star)
        peak = float(np.max(np.abs(a_star), initial=0.0, where=finite))
        count = _peak_window(k, t.im, peak, policy.epsilon, deriv_order)
        # the first of the count terms n + r/K at or above a* - count/2
        start = np.ceil(a_star - spec.residue / k - 0.5 * count)[..., None]
    if count > policy.max_terms:
        raise TruncationError(
            "theta truncation needs %d terms, cap is %d (tail bound %.3e)"
            % (count, policy.max_terms, policy.epsilon),
            required=count,
            cap=policy.max_terms,
            bound=policy.epsilon,
        )
    a = (start + np.arange(count, dtype=float)) + spec.residue / k
    # combine every exponent before exponentiating: the individual factors
    # can overflow even when the product is tame.
    expo = (1j * math.pi * t.value * k) * (a * a) + (2j * math.pi * k) * (zz[..., None] * a)
    if log_scale is not None:
        expo = expo + np.asarray(log_scale)[..., None]
    terms = np.exp(expo)
    if deriv_order:
        terms = terms * (2j * math.pi * k * a) ** deriv_order
    out = terms.sum(axis=-1)
    out = out.reshape(np.shape(z))
    return complex(out[()]) if scalar else out


def theta(spec: ThetaSpec, z, tau, policy: TruncationPolicy = _DEFAULT_POLICY,
          log_scale=None):
    """Evaluate ``theta_r^K(z, tau)`` with a certified tail below
    ``policy.epsilon``.  ``z`` may be a scalar or an ndarray.

    With ``log_scale`` (broadcastable to ``z``) the value is
    ``exp(log_scale) * theta`` on the peak-centred certificate: the tail
    is below ``policy.epsilon`` times the envelope
    ``exp(Re log_scale + pi*K*(Im z)**2/Im tau)``."""
    return _theta_sum(spec, z, tau, policy, 0, log_scale)


def theta_dz(spec: ThetaSpec, z, tau, policy: TruncationPolicy = _DEFAULT_POLICY):
    """Derivative of :func:`theta` with respect to ``z``."""
    return _theta_sum(spec, z, tau, policy, 1)


def theta_derivative(spec, z, tau, policy=_DEFAULT_POLICY, order=1, log_scale=None):
    """``order``-th ``z``-derivative of :func:`theta` (certified like
    :func:`theta_dz`; each order multiplies terms by ``2*pi*i*K*(n+r/K)``).
    ``log_scale`` scales the value as in :func:`theta`."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return _theta_sum(spec, z, tau, policy, order, log_scale)


def dedekind_eta(tau, policy: TruncationPolicy = _DEFAULT_POLICY) -> complex:
    r"""Dedekind eta via the product

        eta(tau) = exp(2*pi*i*tau/24) * prod_{n>=1} (1 - q**n),
        q = exp(2*pi*i*tau).

    The leading factor is computed as ``exp(pi*i*tau/12)`` directly --
    *not* as a 24th root of ``q`` -- so the functional equations hold on
    the whole upper half-plane rather than only for ``|Re tau| < 1/2``.
    Truncation after ``F`` factors is certified by
    ``|q|**(F+1) / (1 - |q|) < eps/2``.  A value that underflows to 0
    or to a subnormal (``Im tau`` below about 3.7e-4 or above about 2700)
    raises :class:`FloatingPointError`, since eta has no zero.
    """
    t = as_tau(tau)
    q = cmath.exp(2j * math.pi * t.value)
    aq = abs(q)
    # smallest F with aq**(F+1)/(1-aq) < eps/2; with q underflowed to 0 the product is 1
    nfac = 0 if aq == 0.0 else max(
        1, math.ceil(math.log(0.5 * policy.epsilon * (1.0 - aq)) / math.log(aq)))
    if nfac > policy.max_terms:
        raise TruncationError(
            "eta product needs %d factors, cap is %d" % (nfac, policy.max_terms),
            required=nfac,
            cap=policy.max_terms,
            bound=policy.epsilon,
        )
    lead = cmath.exp(1j * math.pi * t.value / 12.0)
    factors = 1.0 - q ** np.arange(1, nfac + 1)
    value = lead * complex(np.prod(factors))
    if abs(value) < np.finfo(float).tiny:  # eta has no zero: a 0 or subnormal value underflowed
        raise FloatingPointError("eta(%r) underflows double range" % (t.value,))
    return value


def character(spec: ThetaSpec, z, tau, policy: TruncationPolicy = _DEFAULT_POLICY):
    """Normalized character ``theta_r^K(z, tau) / eta(tau)``."""
    return theta(spec, z, tau, policy) / dedekind_eta(tau, policy)


def t_transform_residual(spec, z, tau, policy=_DEFAULT_POLICY) -> float:
    """Residual of the character's tau -> tau + 1 transform (even level).

    ``chi_r(z, tau+1) = exp(2*pi*i*(r**2/(2K) - 1/24)) * chi_r(z, tau)``
    holds for even ``K``; odd levels mix in a half-period shift and are
    rejected with :class:`UnsupportedConventionError`.
    """
    if spec.level % 2 != 0:
        raise UnsupportedConventionError(
            "tau -> tau+1 character transform requires an even level, got %d"
            % spec.level
        )
    t = as_tau(tau)
    lhs = character(spec, z, t.value + 1.0, policy)
    phase = cmath.exp(2j * math.pi * (spec.residue**2 / (2.0 * spec.level) - 1.0 / 24.0))
    rhs = phase * character(spec, z, t.value, policy)
    return float(np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))))


def s_transform_residual(spec, z, tau, policy=_DEFAULT_POLICY) -> float:
    """Residual of the character's tau -> -1/tau transform:

        exp(-i*pi*K*z**2/tau) * chi_r(z/tau, -1/tau)
            = K**(-1/2) * sum_{r'} exp(-2*pi*i*r*r'/K) * chi_{r'}(z, tau).
    """
    t = as_tau(tau)
    k = spec.level
    zz = np.asarray(z, dtype=complex)
    lhs = np.exp(-1j * math.pi * k * zz**2 / t.value) * np.asarray(
        character(spec, zz / t.value, -1.0 / t.value, policy)
    )
    rhs = np.zeros_like(zz)
    for rp in range(k):
        coeff = cmath.exp(-2j * math.pi * spec.residue * rp / k)
        rhs = rhs + coeff * np.asarray(character(ThetaSpec(k, rp), zz, t.value, policy))
    rhs = rhs / math.sqrt(k)
    return float(np.max(np.abs(lhs - rhs)))


def quasi_periodicity_residual(level, tau, policy=_DEFAULT_POLICY) -> float:
    """Largest relative residual of the two quasi-periodicities

        theta(z + 1) = theta(z),
        theta(z + tau) = exp(-i*pi*K*tau - 2*pi*i*K*z) * theta(z),

    each over 25 seeded points ``z = x + tau*y`` of the cell, residue
    ``K // 2``, at levels 1, 2, 3, 6, 12 and ``level``.  Every level uses
    the peak-centred series scaled by the inverse envelope
    ``exp(-pi*K*(Im z)**2/Im tau)``, as the ground states do, so the values
    stay in double range at any ``tau`` and the tau-shift factor is the
    pure phase ``exp(-i*pi*K*Re tau - 2*pi*i*K*Re z)``."""
    t = as_tau(tau)
    b = t.im
    rng = np.random.default_rng(0)
    res = []
    for k in (1, 2, 3, 6, 12, level):
        spec = ThetaSpec(k, k // 2)
        zs = rng.random(25) + t.value * rng.random(25)

        def ev(z):
            return theta(spec, z, t, policy, log_scale=-math.pi * k * z.imag**2 / b)

        f = ev(zs)
        res.append(float(np.max(np.abs(ev(zs + 1.0) - f)) / np.max(np.abs(f))))
        rhs = np.exp(-1j * math.pi * k * t.re - 2j * math.pi * k * zs.real) * f
        res.append(float(np.max(np.abs(ev(zs + t.value) - rhs)) / np.max(np.abs(rhs))))
    return float(np.max(res))  # np.max, unlike max, keeps a NaN


def orthogonality_residual(level: int) -> float:
    """Max deviation of (1/K) sum_mu exp(-2 pi i mu' mu / K) exp(2 pi i mu mu'' / K)
    from the identity matrix delta_{mu' mu''}."""
    if level < 1:
        raise ValueError("level must be positive")
    mu = np.arange(level)
    f = np.exp(-2j * math.pi * np.outer(mu, mu) / level)
    g = np.exp(2j * math.pi * np.outer(mu, mu) / level)
    prod = f @ g / level
    return float(np.max(np.abs(prod - np.eye(level))))
