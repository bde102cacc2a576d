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
one pointwise summation routine serves both.

Neither count depends on the residue, so a :class:`ThetaSpec` with a
tuple of residues sums all of them in one series: ``r/K`` rides on a
leading axis, and each row is the single-residue value bit for bit.

Cell grids
----------
On a tensor grid ``z = x_i + c_j`` with real ``x_i`` (the cell
quadrature's nodes, ``c_j = tau*y_j + gamma``) the peak ``a*`` depends
on the column alone, and completing the square splits every term into

    exp(2*pi*i*K*a*x_i) * exp(i*pi*tau*K*(a + c_j/tau)**2) * exp(-i*pi*K*c_j**2/tau),

a phase in ``x`` times a *window* factor in ``y`` that carries all of the
magnitude; the last factor is left to the caller's log-scale.  The table
is built as the window's exponents ``E``, and a caller that needs the
window takes ``exp(E)``.  Each residue sums one run ``a = a0 + m`` of
consecutive terms, the union of its columns' peak windows certified for
the values: ``ceil`` and the rounding of ``a* - r/K - T/2`` are monotone
in ``a*``, so the run starts at the first term of the least ``a*`` and
ends with the window of the largest, read off those two columns.  Each
column keeps its own window, and the rest of the union, which reaches
subnormal range, is ``-inf`` there, set one term at a time;
``exp(-inf)`` is exactly 0 in the window.  The table is laid out
``(residue, m, column)``: a run holds a few terms and a cell rule tens
of columns, so the columns ride innermost and every broadcast runs along
them.  That geometry has one home, which takes the table's builder: the
complex table of exponents here, and the real table of ``2*Re E`` from
which :mod:`nctorus.lll` folds the state norms.  The sums of such tables
over the cell rule's nodes live in :mod:`nctorus.lll` ("The cell rule").

Residue sums
------------
With ``m = K*a`` the ``K`` residues are the classes mod ``K`` of one
Gaussian series, term ``t_m = exp(i*pi*tau*m**2/K + 2*pi*i*z*m + L)``.  A
private residue sum returns ``sum_r |exp(L) theta_r(z)|**2`` on a tensor
grid ``z = x_i + c_j`` from the ``K*n`` integers ``m`` nearest the peak
``K*a*``, ``n`` the peak window ``count`` above rounded up to odd, so every
omitted term lies at least ``count/2`` from the peak.  The ``K`` nearest,
``m0 + j`` for ``0 <= j < K`` with ``m0 = ceil(K*a* - K/2)``, are one of
each class; the class holds ``m0 + j + s*K`` for ``|s| <= n//2``, and its
sum is ``t_{m0+j} * sum_s omega**s e[s, j]`` with ``omega =
exp(2*pi*i*K*x)`` and, at ``x = 0``, the steps ``e[s, j] = V**s D[s, j]``,

    V = exp(2*pi*i*(tau*c + K*Re z)),    c = m0 + (K - 1)/2,
    D[s, j] = exp(i*pi*tau*s*(2*(j - (K - 1)/2) + K*s)).

Relative to the squared envelope, with ``L' = L + pi*K*(Im z)**2/Im tau``
the scale the caller passes,

    |t_{m0+j}|**2 = exp(2*Re L' - 2*pi*Im(tau)*(m0 + j - K*a*)**2/K),

and no exponent of size ``pi*K*Im tau`` is formed.  The peak depends on
the column alone, so a node's value is a real trigonometric polynomial of
degree ``n - 1`` in ``K*x``, ``C[0] + 2*Re sum_{d>=1} C[d]*omega**d``,
``C[d] = sum_j |t_{m0+j}|**2 sum_s e[s + d, j]*conj(e[s, j])``: a column
costs ``K`` real exponentials and, where ``n > 1``, ``n`` powers of ``V``,
``(n, K)`` products with ``D`` (one table per call) and ``n`` lag sums; a
row costs one table of ``omega**d``; a node costs the polynomial, lag by
lag in ascending ``d``.  Where ``n = 1`` (once ``K*Im tau >= 37`` at
``eps = 1e-12``) every node of a column reads the row sum of its ``K``
squared magnitudes.  No term of a class lies nearer the peak than ``m0 +
j``, so ``|e[s, j]| <= 1``; the split at the classes' centre ``c`` gives
``|V**s| <= exp(pi*Im(tau)*|s|)`` and ``|D[s, j]| <=
exp(-pi*Im(tau)*|s|)``, normal doubles while ``pi*Im(tau)*(n//2) < 700``,
which holds for every ``K >= 5`` at any ``eps`` and for every ``K`` at
``eps >= 1e-60``.  Beyond (``K <= 4``, ``Im tau`` above 230 and ``eps`` at
or below 1e-100, where ``n = 3``) each step ``e[s, j] =
t_{m0+j+s*K}/t_{m0+j}`` is one exponential of modulus at most 1.

Roots of unity
--------------
The transforms' roots ``exp(2*pi*i*r*r'/K)``, the T-phase
``exp(2*pi*i*(r**2/(2K) - 1/24))`` and eta's ``exp(i*pi/12)`` are formed
from their integer arguments reduced by :func:`nctorus.core.phase_angle`,
the one home of that rule, so their error does not grow with ``r*r'``.
Two sites outside this module keep their own forms: the clock's table of
roots in :mod:`nctorus.matrices` and the predicted phases of the
translation laws in :mod:`nctorus.lll`.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import as_tau, phase_angle
from .errors import TruncationError, UnsupportedConventionError

__all__ = [
    "ThetaSpec",
    "TruncationPolicy",
    "theta",
    "theta_dz",
    "truncation_bound",
    "dedekind_eta",
    "eta_functional_residual",
    "character",
    "t_transform_residual",
    "s_transform_residual",
    "orthogonality_residual",
    "quasi_periodicity_residual",
]

_LOG2 = math.log(2.0)
_TINY = np.finfo(float).tiny
# the most terms, factors or nodes per axis that any count certified for
# an epsilon may reach (TruncationPolicy.check_count)
_TERM_CAP = 1_000_000
# columns of one _theta_residue_norms block, times max(K*n, x.size): its
# (columns, n, K) steps and its (columns, x) polynomial each hold at most
# this many complex values, 64 KB.  Over the first 42 partition-sweep ops of
# seed 1, in-process, the character route's peak traced allocation is 0.34,
# 0.53, 0.91 and 1.42 MB at 2**11 to 2**14, and the ops take the same time
_RESIDUE_BLOCK_ELEMENTS = 1 << 12


def _positive_level(level) -> int:
    """``level`` as an int, ``ValueError`` unless it is a positive integer."""
    try:
        level = operator.index(level)
    except TypeError:
        raise ValueError("level must be an integer, got %r" % (level,)) from None
    if level < 1:
        raise ValueError("level must be a positive integer, got %r" % (level,))
    return level


@dataclass(frozen=True)
class ThetaSpec:
    """Level and residue of a theta function; residue is reduced mod level.

    A sequence of residues stacks their series: :func:`theta` and its
    derivatives then return one row per residue, shape
    ``(len(residue),) + z.shape``, from one evaluation of the series."""

    level: int
    residue: int | tuple[int, ...]

    def __post_init__(self):
        level = _positive_level(self.level)
        try:
            if np.ndim(self.residue):
                residue = tuple(operator.index(r) for r in self.residue)
            else:
                residue = operator.index(self.residue)
        except TypeError:
            raise ValueError("residue must be an integer or integers, got %r"
                             % (self.residue,)) from None
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "residue", tuple(r % level for r in residue)
                           if isinstance(residue, tuple) else residue % level)


@dataclass(frozen=True)
class TruncationPolicy:
    """Tail bound ``epsilon`` of every certified truncation.  Each count
    certified for it (theta's terms, eta's factors, the nodes on an axis
    of the cell rule) is capped at one million, and :meth:`check_count`
    raises every count past that cap."""

    epsilon: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1), got %r" % (self.epsilon,))

    def check_count(self, count, message):
        """:class:`TruncationError` unless ``count``, certified for
        :attr:`epsilon`, is at most the cap.  ``message`` is %-formatted with
        the keys ``count``, ``cap`` and ``bound``.  A count may be a float,
        checked before it is scanned, rounded or allocated; one past 2**53,
        inf or NaN reads as that float."""
        if not count <= _TERM_CAP:
            count = math.ceil(count) if count < 2.0**53 else count
            raise TruncationError(
                message % {"count": count, "cap": _TERM_CAP, "bound": self.epsilon},
                required=count, cap=_TERM_CAP, bound=self.epsilon)


_DEFAULT_POLICY = TruncationPolicy()
_THETA_CAP_MESSAGE = ("theta truncation needs %(count)s terms, cap is %(cap)d "
                      "(tail bound %(bound).3e)")


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
    governs), modular parameter and tail bound.  ``level`` is checked as
    :class:`ThetaSpec` checks it."""
    level = _positive_level(level)
    t = as_tau(tau)
    zz = np.asarray(z, dtype=complex)
    h = float(np.max(np.abs(zz.imag))) if zz.size else 0.0
    TruncationPolicy(epsilon=epsilon)  # raises on an epsilon outside (0, 1)
    return _nmax_certified(level, t.im, h, float(epsilon))


def _peak_window(level, im_tau, peak, policy, deriv_order=0):
    """Smallest count ``T`` of consecutive terms around each point's peak
    whose omitted tail is below ``policy.epsilon`` relative to the envelope
    (see the module docstring); ``peak`` is the largest ``|a*|``.  A start
    of the scan past the cap raises :class:`TruncationError`."""
    pkb = math.pi * level * im_tau
    log_eps = math.log(policy.epsilon)
    p = deriv_order

    def certified(count):
        half = 0.5 * count
        log_q = -2.0 * pkb * half
        log_tail = _LOG2 - pkb * half * half - (p + 1) * math.log1p(-math.exp(log_q))
        if p:
            log_tail += math.lgamma(p + 1) + p * math.log(peak + half + 1.0)
        return log_tail < log_eps

    # the Gaussian factor alone needs pi*K*b*W**2 > log(2/eps); the rest only adds
    start = 2.0 * math.sqrt((_LOG2 - log_eps) / pkb)
    policy.check_count(start, _THETA_CAP_MESSAGE)
    count = max(1, math.ceil(start))
    while not certified(count):
        count += 1
    return count


def _theta_sum(spec, z, tau, policy, deriv_order, log_scale=None):
    t = as_tau(tau)
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    zz = np.atleast_1d(zz)
    k = spec.level
    residue = np.asarray(spec.residue)
    # r/K on the leading (residue) axis, ahead of z's axes and the terms axis;
    # a single residue adds no axis
    r_k = residue.reshape(residue.shape + (1,) * (zz.ndim + 1)) / k
    if log_scale is None:
        h = float(np.max(np.abs(zz.imag))) if zz.size else 0.0
        n_max = _nmax_certified(k, t.im, h, policy.epsilon, deriv_order)
        count = 2 * n_max + 1
        start = -n_max
    else:
        a_star = -zz.imag / t.im
        finite = np.isfinite(a_star)
        peak = float(np.max(np.abs(a_star), initial=0.0, where=finite))
        count = _peak_window(k, t.im, peak, policy, deriv_order)
        # the first of the count terms n + r/K at or above a* - count/2
        start = np.ceil(a_star - r_k[..., 0] - 0.5 * count)[..., None]
    policy.check_count(count, _THETA_CAP_MESSAGE)
    a = (start + np.arange(count, dtype=float)) + r_k
    # combine every exponent before exponentiating: the individual factors
    # can overflow even when the product is tame.
    expo = (1j * math.pi * t.value * k) * (a * a) + (2j * math.pi * k) * (zz[..., None] * a)
    if log_scale is not None:
        expo = expo + np.asarray(log_scale)[..., None]
    terms = np.exp(expo)
    if deriv_order:
        terms = terms * (2j * math.pi * k * a) ** deriv_order
    out = terms.sum(axis=-1)
    out = out.reshape(residue.shape + np.shape(z))
    return complex(out[()]) if scalar and not residue.ndim else out


def _grid_window(spec, im_c, im_tau, policy, build):
    """The window geometry of the cell grids (see "Cell grids" in the
    module docstring) on columns of imaginary parts ``im_c``: the run
    ``a`` of consecutive ``a = a0 + m`` of each residue, shape ``(residue,
    m)``, and the table ``build(a)``, shape ``(residue, m, column)``, with
    every entry outside its column's own certified window set to ``-inf``.

    A column's peak ``a* = -im_c / im_tau`` depends only on ``Im c``: each
    residue sums the union of its columns' windows, from the least
    ``a*``'s first term to the largest's last, and each column keeps its
    own certified window; the rest of the union, which reaches subnormal
    range, is ``-inf`` in that column, set one term slice at a time.  The
    run's length is held to the term cap before ``a`` or the table is
    allocated.  The columns ride on the innermost axis, so every
    broadcast runs along them, not along the window's few terms."""
    k = spec.level
    r_k = np.atleast_1d(spec.residue)[:, None] / k
    a_star = -im_c / im_tau
    # the values' window reads no peak: only a derivative's bound does
    count = own = _peak_window(k, im_tau, 0.0, policy, 0)
    # per residue and column, the first term at or above a* - count/2;
    # rounding and ceil are monotone, so a residue's run starts at its
    # row's least first term, the least a*'s, and ends at the largest's window
    start = np.ceil(a_star - r_k - 0.5 * count)
    least = int(np.argmin(a_star))
    low = start[:, least:least + 1]
    count += int((start[:, np.argmax(a_star)] - low[:, 0]).max())
    policy.check_count(count, _THETA_CAP_MESSAGE)
    a = (low + np.arange(count, dtype=float)) + r_k
    table = build(a)
    # a column's window is the terms offset <= m < offset + own of its
    # residue's run, 0 <= offset <= count - own
    offset = start - low
    for m in range(count):
        if m < count - own:
            np.copyto(table[:, m], -np.inf, where=offset > m)
        if m >= own:
            np.copyto(table[:, m], -np.inf, where=offset <= m - own)
    return a, table


def _grid_exponent(spec, c, tau, policy, log_scale):
    """The peak-centred terms of theta on the tensor grids ``x + c`` of
    the columns ``c``, certified for its values, on the window geometry
    of :func:`_grid_window`: the run ``a`` of each residue, shape
    ``(residue, m)``, and the table of exponents
    ``i*pi*tau*K*(a + c/tau)**2 + log_scale``, shape ``(residue, m, c)``,
    of the factors that carry every term's magnitude (see "Cell grids" in
    the module docstring), ``-inf`` outside each column's own window."""
    t = as_tau(tau)

    def build(a):
        # built in place: the table is the largest array of a grid sum, and
        # every extra copy grows the heap
        expo = a[:, :, None] + c / t.value
        expo *= expo
        expo *= 1j * math.pi * spec.level * t.value
        expo += log_scale
        return expo

    return _grid_window(spec, np.imag(c), t.im, policy, build)


def _theta_residue_norms(level, x, c, tau, policy, log_scale):
    """``sum_r |exp(L) * theta_r^K(z)|**2`` over all ``K`` residues at
    ``z = x_i + c_j`` for real rows ``x`` and complex columns ``c``, shape
    ``(x.size, c.size)`` (one point is the row ``x = [0.0]``), on the
    peak-centred certificate; ``log_scale`` is ``L + pi*K*(Im c)**2/Im
    tau`` per column, relative to its envelope, of which only the real part
    counts (see "Residue sums" above)."""
    t = as_tau(tau)
    k, b = level, t.im
    x = np.asarray(x, dtype=float).ravel()
    c = np.asarray(c, dtype=complex).ravel()
    twice_scale = np.full(c.size, 2.0 * np.real(log_scale))
    # the window rounded up to odd: every class centred on its term nearest the peak
    count = _peak_window(k, b, 0.0, policy) | 1
    policy.check_count(count, _THETA_CAP_MESSAGE)
    j = np.arange(k)
    ones = np.ones(k)
    if count > 1:
        steps = np.arange(count) - count // 2
        # D[s, j] of "Residue sums" above, 2*j - (K - 1) the j-th of K - 1, K - 3, ...
        table = np.exp((1j * math.pi * t.value) * steps[:, None]
                       * (np.arange(1 - k, k, 2) + k * steps[:, None]))
        # V**s and D[s, j] stay within exp(+-708) while pi*b*(n//2) < 700;
        # beyond (see "Residue sums" above) each step is one exponential
        split = math.pi * b * (count // 2) < 700.0
        # per row, exp(2*pi*i*K*x*d) for the lags d = 1..n-1
        omega = np.exp((2j * math.pi * k) * np.multiply.outer(np.arange(1, count), x))
    # laid out column by column, so a column's sum over x is a pairwise sum
    out = np.empty((c.size, x.size))
    block = max(1, _RESIDUE_BLOCK_ELEMENTS // max(k * count, x.size))
    for i in range(0, c.size, block):
        cb, values = c[i:i + block], out[i:i + block]
        peak = -k * cb.imag / b
        # the K terms m0 + j nearest the peak, one of each class
        m0 = np.ceil(peak - 0.5 * k)
        delta = m0 - peak
        mag2 = delta[:, None] + j
        mag2 *= mag2
        mag2 *= -2.0 * math.pi * b / k
        mag2 += twice_scale[i:i + block, None]
        np.exp(mag2, out=mag2)
        if count == 1:
            # the row sums: on rows this short a matrix-vector product is
            # several times faster than sum(axis=1)
            values[...] = (mag2 @ ones)[:, None]
            continue
        if split:
            # V at the classes' centre c and x = 0, its modulus from the peak
            centre = m0 + 0.5 * (k - 1)
            log_v = (-2.0 * math.pi * b) * (delta + 0.5 * (k - 1)) \
                + (2j * math.pi) * (t.re * centre + k * cb.real)
            step = np.exp(np.multiply.outer(log_v, steps))[..., None] * table
        else:
            # V**s D[s, j] as one exponential, t_{m+s*K}/t_m for m = m0 + j,
            # of modulus exp(-pi*b*s*(2*(m - K*a*) + K*s)) <= 1
            s = steps[:, None]
            step = np.exp(-math.pi * b * s * (2.0 * (delta[:, None, None] + j) + k * s)
                          + (1j * math.pi) * s * (t.re * (2.0 * (m0[:, None, None] + j) + k * s)
                                                  + 2.0 * k * cb.real[:, None, None]))
        # C[d]: the lag-d products of each class's steps, flattened (s, j) so
        # that a lag is a shift by d*K, one dot per column (a batched matmul
        # is 1.6 to 3 times faster than einsum); the mirror lag -d is the factor 2
        weighted = (step * mag2[:, None, :]).reshape(len(cb), -1)
        conj = np.conjugate(step).reshape(len(cb), -1)
        lags = [(weighted[:, None, d * k:] @ conj[:, :(count - d) * k, None]).ravel()
                for d in range(count)]
        # the polynomial, lag by lag in a fixed order at every node
        poly = np.multiply.outer(lags[1], omega[0])
        for d in range(2, count):
            poly += np.multiply.outer(lags[d], omega[d - 1])
        np.multiply(poly.real, 2.0, out=values)
        values += lags[0].real[:, None]
        # a column past double range is a sum of non-negative terms, so inf,
        # where its lag products met inf * 0; np.max keeps a NaN row NaN
        over = mag2.max(axis=1) == np.inf
        if over.any():
            values[over] = np.inf
    return out.T


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
    r"""Dedekind eta via the product (DLMF 27.14)

        eta(tau) = exp(2*pi*i*tau/24) * prod_{n>=1} (1 - q**n),
        q = exp(2*pi*i*tau).

    The leading factor is computed as ``exp(pi*i*tau/12)`` directly --
    *not* as a 24th root of ``q`` -- so the functional equations hold on
    the whole upper half-plane rather than only for ``|Re tau| < 1/2``.
    Truncation after ``F`` factors is certified by
    ``|q|**(F+1) / (1 - |q|) < eps/2``, and the ``F`` factors ``1 - q**n``
    are formed in one array and multiplied in order.  Where ``q``
    underflows to 0 the product is the one factor ``1 - 0 = 1``.  A value
    that underflows to 0 or to a subnormal (``Im tau`` below about 3.7e-4
    or above about 2700) raises :class:`FloatingPointError`, since eta has
    no zero, and where its leading factor alone underflows it raises
    before any product is formed.  The product needs more factors than the cap of
    :class:`TruncationPolicy`, one million, where ``Im tau`` is below
    about 6.1e-6 at ``eps = 1e-12``, and where ``|q|`` rounds to 1 no count
    certifies it; either raises :class:`TruncationError`.
    """
    t = as_tau(tau).value
    q = cmath.exp(2j * math.pi * t)
    aq = abs(q)
    # smallest F with aq**(F+1)/(1-aq) < eps/2; with q underflowed to 0,
    # the one factor 1 - 0 = 1, and with |q| rounded to 1 no F
    if aq == 0.0 or aq == 1.0:
        nfac = 1 if aq == 0.0 else math.inf
    else:  # a bound eps/2 * (1-aq) that underflows to 0 is logged in parts
        bound = 0.5 * policy.epsilon * (1.0 - aq)
        log_bound = math.log(bound) if bound > 0.0 else (
            math.log(0.5) + math.log(policy.epsilon) + math.log1p(-aq))
        nfac = max(1, math.ceil(log_bound / math.log(aq)))
    policy.check_count(nfac, "eta product needs %(count)s factors, cap is %(cap)d")
    lead = cmath.exp(1j * math.pi * t / 12.0)
    if aq == 0.0 and abs(lead) < _TINY:
        raise FloatingPointError("eta(%r) underflows double range" % (t,))
    # the factors 1 - q**n, n = 1..F, formed in place
    factors = np.full(nfac, q)
    np.power(factors, np.arange(1, nfac + 1), out=factors)
    np.subtract(1.0, factors, out=factors)
    value = lead * complex(np.multiply.reduce(factors))
    if abs(value) < _TINY:  # eta has no zero: a 0 or subnormal value underflowed
        raise FloatingPointError("eta(%r) underflows double range" % (t,))
    return value


def _eta_relation_residuals(t, policy):
    """The residuals of ``eta(t+1) = exp(i*pi/12) eta(t)`` and ``eta(-1/t)
    = sqrt(-i*t) eta(t)``, each relative to its left side, from the etas
    at ``t``, ``t + 1`` and ``-1/t`` in that order."""
    e, shifted, e_inv = (dedekind_eta(s, policy) for s in (t, t + 1.0, -1.0 / t))
    return (abs(shifted - cmath.exp(1j * phase_angle(1, 12)) * e) / abs(shifted),
            abs(e_inv - cmath.sqrt(-1j * t) * e) / abs(e_inv))


@functools.lru_cache
def _seeded_eta_residuals(policy):
    """The 40 residuals of :func:`_eta_relation_residuals` at the 20 seeded
    points of :func:`eta_functional_residual`, in their order; they depend
    on the policy alone, so they are formed once per policy."""
    # (Re, Im) of each seeded point, drawn in that order
    seeded = np.random.default_rng(0).uniform([-0.5, 1.0], [0.5, 2.5], size=(20, 2))
    return tuple(r for t in seeded.tolist() for r in _eta_relation_residuals(complex(*t), policy))


def eta_functional_residual(tau, policy: TruncationPolicy = _DEFAULT_POLICY) -> float:
    """Largest residual of ``eta(tau+1) = exp(i*pi/12) eta(tau)`` and
    ``eta(-1/tau) = sqrt(-i*tau) eta(tau)`` at 20 seeded points and at
    ``tau`` and ``-1/tau``, each relative to ``|eta|``, which is 4e-11 at
    0.01i: an absolute residual there would pass any eta.  Each point's
    etas are those at ``tau``, ``tau + 1`` and ``-1/tau``, one
    :func:`dedekind_eta` call each; the seeded points' 40 residuals are
    formed once per policy, so a call forms the six etas of its own two
    points."""
    t0 = as_tau(tau)
    res = list(_seeded_eta_residuals(policy))
    for t in (t0.value, as_tau(-1.0 / t0.value).value):
        res.extend(_eta_relation_residuals(t, policy))
    return float(np.max(res))  # np.max, unlike max, keeps a NaN


def character(spec: ThetaSpec, z, tau, policy: TruncationPolicy = _DEFAULT_POLICY):
    """Normalized character ``theta_r^K(z, tau) / eta(tau)``."""
    return theta(spec, z, tau, policy) / dedekind_eta(tau, policy)


def t_transform_residual(spec, z, tau, policy=_DEFAULT_POLICY) -> float:
    """Residual of the character's tau -> tau + 1 transform (even level).

    ``chi_r(z, tau+1) = exp(2*pi*i*(r**2/(2K) - 1/24)) * chi_r(z, tau)``
    holds for even ``K``; odd levels mix in a half-period shift and are
    rejected with :class:`UnsupportedConventionError`.  A spec with a
    tuple of residues is checked row by row, and its residual is the
    largest over its rows.
    """
    if spec.level % 2 != 0:
        raise UnsupportedConventionError(
            "tau -> tau+1 character transform requires an even level, got %d"
            % spec.level
        )
    t = as_tau(tau)
    k = spec.level
    rows, residue = _residue_rows(spec, z)
    lhs = character(rows, z, t.value + 1.0, policy)
    # 2*pi*(r**2/(2K) - 1/24) = pi*(12*r**2 - K)/(12*K)
    phase = np.exp(1j * phase_angle(12 * residue**2 - k, 12 * k))
    rhs = phase * character(rows, z, t.value, policy)
    return float(np.max(np.abs(lhs - rhs)))


def s_transform_residual(spec, z, tau, policy=_DEFAULT_POLICY) -> float:
    """Residual of the character's tau -> -1/tau transform:

        exp(-i*pi*K*z**2/tau) * chi_r(z/tau, -1/tau)
            = K**(-1/2) * sum_{r'} exp(-2*pi*i*r*r'/K) * chi_{r'}(z, tau).

    A spec with a tuple of residues is checked row by row, and its
    residual is the largest over its rows.
    """
    t = as_tau(tau)
    k = spec.level
    zz = np.asarray(z, dtype=complex)
    rows, residue = _residue_rows(spec, zz)
    lhs = np.exp(-1j * math.pi * k * zz**2 / t.value) * character(
        rows, zz / t.value, -1.0 / t.value, policy)
    rhs = np.zeros(lhs.shape, dtype=complex)
    for rp in range(k):
        coeff = np.exp(1j * phase_angle(-2 * residue * rp, k))
        rhs = rhs + coeff * np.asarray(character(ThetaSpec(k, rp), zz, t.value, policy))
    rhs = rhs / math.sqrt(k)
    return float(np.max(np.abs(lhs - rhs)))


def _residue_rows(spec, z):
    """``(rows, residue)``: ``spec`` with its residue or residues as a
    tuple, whose :func:`character` at ``z`` has one row per residue ahead
    of ``z``'s axes, and those residues as an integer array that
    broadcasts against it.  A single residue is one row, so its values are
    those of a row of any tuple, bit for bit."""
    residue = np.atleast_1d(spec.residue)
    return (ThetaSpec(spec.level, tuple(residue.tolist())),
            residue.reshape(residue.shape + (1,) * np.ndim(z)))


@functools.cache
def _cell_sample():
    """The ``x`` and the ``y`` of :func:`quasi_periodicity_residual`'s
    points, shape ``(2, 6, 25)``: each of its six levels' 25 ``x`` then 25
    ``y``, in the levels' order, one draw, drawn once and read-only."""
    sample = np.random.default_rng(0).random((6, 2, 25)).transpose(1, 0, 2)
    sample.setflags(write=False)
    return sample


def quasi_periodicity_residual(level, tau, policy=_DEFAULT_POLICY) -> float:
    """Largest relative residual of the two quasi-periodicities

        theta(z + 1) = theta(z),
        theta(z + tau) = exp(-i*pi*K*tau - 2*pi*i*K*z) * theta(z),

    each over 25 seeded points ``z = x + tau*y`` of the cell, residue
    ``K // 2``, at levels 1, 2, 3, 6, 12 and ``level``.  Every level uses
    the peak-centred series scaled by the inverse envelope
    ``exp(-pi*K*(Im z)**2/Im tau)``, as the ground states do, so the values
    stay in double range at any ``tau`` and the tau-shift factor is the
    pure phase ``exp(-i*pi*K*Re tau - 2*pi*i*K*Re z)``.  A level's points
    ``z``, ``z + 1`` and ``z + tau`` are one :func:`theta` call; each
    point's terms are its own, so the values are those of three calls."""
    t = as_tau(tau)
    b = t.im
    levels = np.array([1, 2, 3, 6, 12, level])[:, None]
    x, y = _cell_sample()
    zs = x + t.value * y
    f, f_1, f_tau = np.empty((3,) + zs.shape, dtype=complex)
    for i, (k, z) in enumerate(zip(levels[:, 0].tolist(), zs)):
        # z, z + 1 and z + tau in one series; at a huge Im tau the scale is -inf
        z = np.concatenate([z, z + 1.0, z + t.value])
        with np.errstate(over="ignore"):
            scale = -math.pi * k * z.imag**2 / b
        f[i], f_1[i], f_tau[i] = theta(ThetaSpec(k, k // 2), z, t, policy,
                                       log_scale=scale).reshape(3, -1)
    rhs = np.exp(-1j * math.pi * levels * t.re - 2j * math.pi * levels * zs.real) * f
    res = [_relative(np.max(np.abs(f_1 - f), axis=1), np.max(np.abs(f), axis=1)),
           _relative(np.max(np.abs(f_tau - rhs), axis=1), np.max(np.abs(rhs), axis=1))]
    return float(np.max(res))  # np.max, unlike max, keeps a NaN


def _relative(residual, size):
    """``residual / size``, elementwise for arrays, NaN where ``size`` is 0:
    a check whose every sample underflowed fails with NaN, and numpy
    writes no warning."""
    residual, size = np.asarray(residual, dtype=float), np.asarray(size, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(size != 0.0, residual / size, math.nan)


def orthogonality_residual(level: int) -> float:
    """Max deviation of (1/K) sum_mu exp(-2 pi i mu' mu / K) exp(2 pi i mu mu'' / K)
    from the identity matrix delta_{mu' mu''}; each root is formed from
    ``mu*mu'`` reduced mod ``K``, as the transforms' are."""
    if level < 1:
        raise ValueError("level must be positive")
    mu = np.arange(level)
    g = np.exp(1j * phase_angle(2 * np.outer(mu, mu), level))
    prod = np.conj(g) @ g / level
    return float(np.max(np.abs(prod - np.eye(level))))
