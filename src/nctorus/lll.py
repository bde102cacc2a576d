r"""Lowest-level Bloch states on the magnetic torus and the elementary
magnetic translations acting on them.

In the rescaled cell coordinate ``w`` (unit cell spanned by ``1`` and
``tau``), the ``K = M*N``-fold degenerate ground space at flux
``kappa = N/M`` is spanned by

    Psi_jk(w, wbar) = exp(G(w, wbar)) * theta_{r_jk}^K(w + gamma, tau),

    G(w, wbar) = pi*K*w*(w - wbar)/(2*Im tau) + i*alpha1*w,
    gamma      = (tau*alpha1 - alpha2)/(2*pi*K),
    r_jk       = (j*N + k*M) mod K,      j in Z_M, k in Z_N,

where ``(alpha1, alpha2)`` are the vacuum angles: the center of the
translation algebra acts as ``D(e1)^M = e^{i*alpha1}`` and
``D(e2)^M = e^{i*alpha2}``.

These fields carry weight ``im_tau_weight = Im tau / (2*pi*K)``, which
makes the generic displacement of the wavefield module reproduce the
elementary magnetic translations: ``D1`` is ``exp(2i*alpha1/M)`` times
the displacement by ``1/M``, ``D2`` the same with ``tau/M``, and the
dual pair uses ``1/N``, ``tau/N`` with ``exp(2i*alpha/N)``.  Their
actions on the basis are exact operator identities:

    D1 Psi_jk = exp(i*(alpha1 - 2*pi*j*N)/M) * Psi_jk
    D2 Psi_jk = exp(i*alpha2/M) * Psi_{j-1,k}
    D1~ Psi_jk = exp(i*(alpha1 - 2*pi*k*M)/N) * Psi_jk
    D2~ Psi_jk = exp(i*alpha2/N) * Psi_{j,k-1}

so the states are a bimodule: ``D1``, ``D2`` act on ``j`` and the dual
pair, their commutant, on ``k``.  The three law rows live here: the
lemma (:func:`lemma_eigenphase_residual`), the centre
(:func:`center_eigen_residual`) and the bimodule check
(:func:`bimodule_consistency`).  Each reads these laws as monomials
(:func:`_predicted_translations`) and compares each measured matrix with
its monomial in :func:`_law_residual`, forming no dense law.

States are stored as exact term families
``sum_t c_t * w^a * wbar^c * exp(G) * theta^{(p)}(w + gamma)`` so that
all derivatives (and the raising operator) stay analytic.

The K states differ only in the residue ``r_jk``, so the basis holds
them as one stacked :class:`ThetaField` (residues in :meth:`LLLBasis.labels`
order) that sums one theta series for all K.  The field is the one owner
of the vacuum angles, of ``gamma`` and of the truncation policy.

The cell rule
-------------
A state's norm integrand ``|Psi_jk(x + tau*y)|^2``, and each product of
the states with each other and with their translates, is periodic on the
cell, so it is integrated by the tensor midpoint rule (the periodic
trapezoid rule): ``n_x`` by ``n_y`` equally weighted nodes
``((i + 1/2)/n_x, (j + 1/2)/n_y)`` (:func:`quadrature_nodes`).  On a
periodic integrand that rule is exact up to the Fourier modes it aliases
onto the mean, and here those are known in closed form: in ``x`` the only
modes of a norm are multiples ``m*K`` of the level, of relative size
``exp(-pi*K*b*m^2/2)`` with ``b = Im tau``; in ``y`` the peaks are
Gaussians of variance ``1/(4*pi*K*b)``, whose mode ``k`` has relative
size ``exp(-pi*k^2/(2*K*b))``.  So

    n_x = ceil(sqrt(2*K*ln(2/eps)/(pi*b))),
    n_y = ceil(sqrt(2*K*b*ln(2/eps)/pi))

bound the relative aliasing error by ``eps``, the truncation ``epsilon``
of the basis, as the theta cutoffs are bounded (:func:`cell_node_counts`).
``n_x*n_y`` is about ``(2/pi)*K*ln(2/eps)`` whatever ``b``.  Each axis is
held to the cap on every certified count, one million
(:class:`~nctorus.theta.TruncationPolicy`): at ``eps = 1e-12`` that
refuses ``K*b`` above about 5.5e10 and ``b/K`` below about 1.8e-11.  Each
axis takes at least the basis's node floor: one node set per basis,
:attr:`LLLBasis.cell_nodes`, which its module, norms and ``Z~`` all read.

The module is measured on the nodes of that rule from the states' window
tables (``theta._grid_exponent``, "Cell grids"), with no value on the grid
formed.  On the ``n_x`` midpoint nodes (the periodic trapezoid rule on a
separable integrand: Trefethen & Weideman, SIAM Rev. 56 (2014)) the comb
``h(d) = sum_i exp(2*pi*i*d*x_i)`` of an integer frequency difference
``d`` is ``(-1)**(d/n_x) * n_x`` if ``n_x`` divides ``d`` and 0
elsewhere, so a product of two families of terms pairs only terms whose
integer frequencies ``F`` and ``F'`` agree mod ``n_x``: one small matrix
product per class (:func:`_grid_overlaps`).  That gives the Gram matrix
``G`` and, for each translation ``T``, ``L = diag(G)^-1 P`` with ``P_rs =
<Psi_r, T Psi_s>``.  A family's own norms are the diagonal of that
product: each term's squared magnitude ``exp(2*Re E)`` plus, for every
pair of terms of one class, ``2*exp(Re E + Re E')*cos(Im E - Im E')``
signed by ``(-1)**(F // n_x)``, every alias of the midpoint rule kept; a
row whose terms do not alias reads no phase.  One routine folds it
(:func:`_alias_fold`), for each image's complex table
(:func:`_grid_exponent_norms`) and for :func:`state_norm` from a real
table.  Every complex table is one of exponents, fresh and its caller's
(:meth:`ThetaField.cell_exponent`).  Each reader divides it by the power
of two above its largest entry ``exp(Re E)`` (:func:`_power_above`),
subtracting its log in two parts (:func:`_less_log2`) before any
exponential (:func:`_scaled_exp`), so a table is measured wherever its
scaled products are in range.

The state norms need only ``|Psi|**2``, so their table is real
(:meth:`ThetaField.cell_norm_exponent`), on the same window geometry.  On
the columns, with ``g = gamma/tau`` and ``v = a + y``, the exponent is
``E = i*pi*K*tau*v*(v + 2*g) + log(coeff)``: ``c/tau = v + g`` for ``c =
tau*y + gamma``, and completing the square leaves ``-i*pi*K*gamma**2/tau``
to cancel the log-scale.  So

    2*Re E = -2*pi*K*v*(Im tau*(v + 2*Re g) + 2*Re tau*Im g) + 2*log|coeff|,
    Im E_m - Im E_{m+d} = pi*K*d*(2*Im tau*Im g - Re tau*(2*(v_m + Re g) + d)),

the second read only by the terms that alias.  ``Im(tau*g) = Im gamma``
makes the first ``-2*pi*K*Im tau*(v - v*)**2`` plus its peak
``2*pi*K*(Im gamma)**2/Im tau + 2*log|coeff|``, ``v* = -Im gamma/Im tau``,
and the peak rides with the power of two, so every entry is at most 0.
Only the phases read ``Re tau``: the norms at ``tau + 1`` share the
table (:func:`state_norms_at`).  No complex number is formed, and
``c/tau``, whose rounding at large ``Im tau`` cost the complex table its
last digits, is not: against 40-digit ``mpmath`` sums of the same
windows the norms read 1.7e-16 at (M, N) = (5, 2), ``tau =
0.336+472.1i`` on 128 nodes a side, and 1.9e-16 at (3, 2), ``0.3+1000i``,
where the complex table read 1.1e-14 and 1.2e-14.

The basis keeps the states' per-class products ``conj(u_c) @ u_c.T``,
and ``G`` is their sum onto the rows (:func:`_class_sums`).  A step along
1 (``D1``, ``D1~`` and ``D1^M``) multiplies each term by one factor
``w(F)`` and keeps its class, so its ``P`` is those products with column
``j`` times ``w_j``, and its image norms are their quadratic form over
each row's slots: no image table is formed.  A step along ``tau`` moves
the columns, and its image builds its own table.  The centre is measured
on the same module: ``D1^M`` and ``D2^M``, each one displacement, project
onto ``e^{i*alpha1} I`` and ``e^{i*alpha2} I``.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .core import Flux, ModularParameter, VacuumAngles, as_tau, gershgorin_full_rank
from .fields import Field, displacement_apply
from .theta import (ThetaSpec, TruncationPolicy, _grid_exponent, _grid_window, dedekind_eta,
                    theta_derivative)

__all__ = [
    "QuadratureSpec",
    "cell_node_counts",
    "quadrature_nodes",
    "state_norm",
    "state_norms_at",
    "LLLBasis",
    "ThetaField",
    "build_basis",
    "unit_cell_grid",
    "boundary_residual",
    "elementary_translation",
    "eigenphase_table",
    "lemma_eigenphase_residual",
    "center_eigen_residual",
    "bimodule_consistency",
    "bimodule_residual",
    "gram_rank",
    "gram_rank_residual",
    "overlap_residual",
    "coefficient_matrix",
    "raise_level",
]

_DEFAULT_POLICY = TruncationPolicy()
# fdlibm's log(2) in two parts: ``k * _LN2_HI`` is exact for ``|k| < 2**20``
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _predicted_translations(basis: LLLBasis) -> dict:
    """The four laws of the module docstring, keyed as
    :attr:`LLLBasis.translations`, as monomials ``(target, phase)``:
    ``T Psi_s = phase[s] * Psi_{target[s]}`` in :meth:`LLLBasis.labels`
    order.  ``j*N mod M`` and ``k*M mod N`` are reduced as integers, so no
    phase argument grows with the label.  Each phase is one exponential of
    ``(alpha1 - 2*pi*(j*N mod M))/M``, the form the law rows compare
    against, so it does not read :func:`nctorus.core.phase_angle`."""
    m, n = basis.flux.denominator, basis.flux.numerator
    a1, a2 = basis.angles.alpha1, basis.angles.alpha2
    s = np.arange(m * n)
    j, k = np.divmod(s, n)
    return {"d1": (s, np.exp(1j * ((a1 - 2.0 * math.pi * (j * n % m)) / m))),
            "dual1": (s, np.exp(1j * ((a1 - 2.0 * math.pi * (k * m % n)) / n))),
            "d2": ((j - 1) % m * n + k, np.full(s.size, cmath.exp(1j * (a2 / m)))),
            "dual2": (j * n + (k - 1) % n, np.full(s.size, cmath.exp(1j * (a2 / n))))}


def _law_deviation(l_mat, target, phase) -> np.ndarray:
    """``|L - P|``, bit for bit, for the monomial ``P[target[s], s] =
    phase[s]``, 0 elsewhere, without forming ``P``."""
    columns = np.arange(l_mat.shape[1])
    dev = np.abs(l_mat)
    dev[target, columns] = np.abs(l_mat[target, columns] - phase)
    return dev


def _eval_terms(terms, level, residue, tau, alpha1, gamma, policy, w, wbar):
    b = tau.imag
    # G rides in each theta series as its log-scale: exp(G) and theta are
    # never formed apart, so neither overflows where their product is tame
    g = math.pi * level * w * (w - wbar) / (2.0 * b) + 1j * alpha1 * w
    spec = ThetaSpec(level, residue)
    th = {p: theta_derivative(spec, w + gamma, tau, policy, order=p, log_scale=g)
          for p in _orders(terms)}
    return _combine(terms, th, w, wbar)


def _orders(terms):
    return sorted({p for (_, _, p) in terms})


def _combine(terms, th, w, wbar):
    """``sum_t c_t * w^a * wbar^c * th[p]`` over the terms ``(a, c, p) -> c_t``."""
    out = None
    for (a, c, p), coeff in sorted(terms.items()):
        # a unit coefficient (every ground state) costs no copy of th[p]
        piece = th[p] if coeff == 1 else coeff * th[p]
        if a:
            piece = piece * w**a
        if c:
            piece = piece * wbar**c
        out = piece if out is None else out + piece
    return out


def _dw_terms(terms, level, b, alpha1):
    """Term transform for d/dw at fixed wbar."""
    coef_w = math.pi * level / b           # from dG/dw, coefficient of w
    coef_wbar = -math.pi * level / (2.0 * b)  # from dG/dw, coefficient of wbar
    out = defaultdict(float)
    for (a, c, p), mu in terms.items():
        if a:
            out[a - 1, c, p] += a * mu
        out[a + 1, c, p] += coef_w * mu
        out[a, c + 1, p] += coef_wbar * mu
        if alpha1:
            out[a, c, p] += 1j * alpha1 * mu
        out[a, c, p + 1] += mu
    return out


def _dwbar_terms(terms, level, b):
    """Term transform for d/dwbar at fixed w."""
    coef = -math.pi * level / (2.0 * b)  # dG/dwbar = coef * w
    out = defaultdict(float)
    for (a, c, p), mu in terms.items():
        if c:
            out[a, c - 1, p] += c * mu
        out[a + 1, c, p] += coef * mu
    return out


def _gamma(tau: complex, angles: VacuumAngles, level: int) -> complex:
    """``gamma`` of a field, and of :func:`state_norms_at`'s points."""
    return (tau * angles.alpha1 - angles.alpha2) / (2.0 * math.pi * level)


class ThetaField(Field):
    """Field in the exact theta-term family (see module docstring).

    ``terms`` maps ``(a, c, p) -> coeff`` for the summand
    ``coeff * w^a * wbar^c * exp(G) * theta^{(p)}_{residue}(w + gamma)``.
    A sequence of residues (as in :class:`~nctorus.theta.ThetaSpec`)
    stacks one field per residue: ``evaluate(w, wbar)`` and both
    derivatives return shape ``(len(residue),) + w.shape``.  The vacuum
    ``angles`` are held once: ``alpha1`` enters ``G``, and ``gamma =
    (tau*alpha1 - alpha2)/(2*pi*K)`` is formed from them here.  The field
    keeps no cell table: each :meth:`cell_exponent` builds a new table of
    exponents for its caller, which scales and exponentiates it in place.
    """

    __slots__ = ("terms", "level", "residue", "spec", "angles", "gamma", "policy")

    def __init__(self, terms, level, residue, tau, angles: VacuumAngles,
                 policy=_DEFAULT_POLICY):
        t = as_tau(tau)
        tv = t.value
        self.terms = dict(terms)
        self.level = int(level)
        self.spec = ThetaSpec(self.level, residue)
        self.residue = self.spec.residue
        self.angles = angles
        self.gamma = _gamma(tv, angles, self.level)
        self.policy = policy

        # the evaluators hold no reference to self: a field is freed as
        # soon as it is unused
        level, residue, alpha1, gamma = self.level, self.residue, angles.alpha1, self.gamma

        def evaluator(terms):
            return lambda w, wbar: _eval_terms(terms, level, residue, tv, alpha1, gamma,
                                               policy, w, wbar)

        super().__init__(evaluator(self.terms), t, t.im / (2.0 * math.pi * self.level),
                         d_z=evaluator(_dw_terms(self.terms, self.level, t.im, alpha1)),
                         d_zbar=evaluator(_dwbar_terms(self.terms, self.level, t.im)))

    def cell_exponent(self, y):
        """The states on the columns ``y`` of the slice ``w = x + tau*y``,
        for the one term ``(0, 0, 0)``, as integer frequencies ``F``, shape
        ``(residue, m)``, and the exponents ``E`` of a window table
        ``W = exp(E)``, shape ``(residue, m, y)``, columns innermost, each
        column keeping its own certified window (``-inf`` outside it):

            Psi_r = exp(i*(pi*K*y_j + alpha1)*x + i*alpha2*y_j)
                    * sum_m W[r, m, j] * exp(2*pi*i*F[r, m]*x).

        On the slice, with ``c = tau*y + gamma`` and ``2*pi*K*gamma =
        tau*alpha1 - alpha2``,

            G = i*(pi*K*y + alpha1)*x + i*alpha2*y
                + i*pi*K*c**2/tau - i*pi*K*gamma**2/tau:

        the first two parts are the phase in front, the third is the scale
        of ``theta._grid_exponent``'s table, and the constant last part,
        plus the log of the term's coefficient, is its log-scale.  No
        exponent is larger than the terms it scales, so none loses digits
        to cancellation.  Both arrays are fresh, and the caller's."""
        if set(self.terms) != {(0, 0, 0)}:
            raise ValueError("a cell window needs the one term (0, 0, 0)")
        tau, k = self.tau, self.level
        a, expo = _grid_exponent(self.spec, tau * y + self.gamma, tau, self.policy,
                                 -1j * math.pi * k * self.gamma**2 / tau
                                 + cmath.log(self.terms[(0, 0, 0)]))
        return _frequencies(k, a), expo

    def cell_norm_exponent(self, y):
        """The squared magnitudes of :meth:`cell_exponent`'s window in
        real arithmetic, on its window geometry (see "The cell rule" in the
        module docstring): the integer frequencies ``F``, shape ``(residue,
        m)``; the table ``2*Re E - 2*power*log 2 = -2*pi*K*Im tau*(v -
        v*)**2 + c``, shape ``(residue, m, y)``, C-contiguous, fresh and the
        caller's, ``-inf`` outside each column's own window; ``pair_phase(d,
        tau=tau, gamma=gamma) = Im E_m - Im E_{m+d} = -pi*K*d*(Re tau*(2*v_m +
        d) + 2*Re gamma)``, shape ``(residue, m - d, y)``, also at a point
        of the same ``Im tau`` and ``Im gamma``; and ``power``, the power of
        two above the peak ``exp(max Re E)``.  ``v``, ``v*`` and the peak
        are those of "The cell rule", and ``c``, the peak less ``2*power*log
        2``, is in ``[-2*log 2, 0)``.  Where ``4**power`` leaves the exponent
        range, ``2*power`` at or past 2098 or a peak of ``+inf``, no table is
        built and the first three are ``None``: any positive double times
        ``2**2098`` is past double range."""
        if set(self.terms) != {(0, 0, 0)}:
            raise ValueError("a cell window needs the one term (0, 0, 0)")
        k, tau, gamma = self.level, self.tau, self.gamma
        log_coeff = math.log(abs(self.terms[(0, 0, 0)]))
        peak = math.pi * k * gamma.imag * gamma.imag / tau.imag + log_coeff  # max Re E
        power = _power_above(peak)
        if peak == math.inf or 2 * power >= 2098:
            return None, None, None, power
        constant = _less_log2(2.0 * peak, 2 * power)
        centre = gamma.imag / tau.imag

        def build(a):
            # v near v* cancels: v is formed first, and v - v* in one more rounding
            table = a[:, :, None] + y
            table += centre
            table *= table
            table *= -2.0 * math.pi * k * tau.imag
            table += constant
            return table

        a, table = _grid_window(self.spec, tau.imag * y + gamma.imag, tau.imag, self.policy, build)

        def pair_phase(d, tau=tau, gamma=gamma):
            return -math.pi * k * d * (tau.real * (2.0 * (a[:, :-d, None] + y) + d)
                                       + 2.0 * gamma.real)

        return _frequencies(k, a), table, pair_phase, power


class _Translated(Field):
    """``scale * D(u) f`` for a field ``f`` of ``basis``, pointwise by
    :func:`~nctorus.fields.displacement_apply` and on the cell rule from
    ``f``'s :meth:`cell_exponent` table, as is every composition of them."""

    __slots__ = ("base", "u", "scale", "basis")

    def __init__(self, base, u, scale, basis):
        g = displacement_apply(u, base)
        ev, dz, dzbar = g.evaluate, g.d_z, g.d_zbar
        super().__init__(lambda w, wbar: scale * ev(w, wbar), base.tau, base.im_tau_weight,
                         d_z=lambda w, wbar: scale * dz(w, wbar),
                         d_zbar=lambda w, wbar: scale * dzbar(w, wbar))
        self.base, self.u, self.scale, self.basis = base, u, scale, basis

    def _shift(self):
        """``(u_x, u_y)`` of the displacement ``u = u_x + tau*u_y``."""
        uy = self.u.imag / self.tau.imag
        return self.u.real - self.tau.real * uy, uy

    def _term_factors(self, freq):
        """``(const, phase)``: on the cell rule each term of the image is
        the base's term of integer frequency ``freq``, read on the columns
        ``y - u_y``, times ``const * exp(phase)``, ``phase =
        -2*pi*i*(u_x*freq - rint(u_x*freq))`` of ``freq``'s shape.  The
        table route (:meth:`cell_exponent`) and the class route of a step
        along 1 (:func:`_project`) both read them, so both form one phase."""
        (ux, uy), angles = self._shift(), self.basis.angles
        # the moved phase of the slice over itself is exp(-i*pi*K*(uy*x + ux*y)
        # + i*(pi*K*ux*uy - alpha1*ux - alpha2*uy)); the prefactor's exponent,
        # at weight Im(tau)/(2*pi*K), is -i*pi*K*uy*x + i*pi*K*ux*y: it cancels
        # the part in y and doubles that in x, a shift of -K*uy in F
        const = self.scale * cmath.exp(1j * (math.pi * self.basis.level * ux * uy
                                             - angles.alpha1 * ux - angles.alpha2 * uy))
        turns = ux * freq
        turns -= np.rint(turns)
        return const, -2j * math.pi * turns

    def cell_exponent(self, y):
        """:meth:`ThetaField.cell_exponent` of the image.  With
        ``u = u_x + tau*u_y``, the base is read on the columns ``y - u_y``
        and each term's exponent gains the logs of :meth:`_term_factors`;
        the prefactor, linear on the slice, and the moved phase of the
        slice shift ``F`` by ``-K*u_y`` and leave the constant."""
        uy = self._shift()[1]
        freq, expo = self.base.cell_exponent(y - uy)
        const, phase = self._term_factors(freq)
        phase += cmath.log(const)
        expo += phase[:, :, None]
        return freq - round(self.basis.level * uy), expo


@dataclass(frozen=True)
class QuadratureSpec:
    """Per-axis floor on the nodes of the cell's tensor midpoint rule,
    which otherwise sizes itself (:func:`cell_node_counts`)."""

    nodes_per_axis: int = 8

    def __post_init__(self):
        try:
            nodes = operator.index(self.nodes_per_axis)
        except TypeError:
            raise ValueError("nodes_per_axis must be an integer, got %r"
                             % (self.nodes_per_axis,)) from None
        if nodes < 8:
            raise ValueError("nodes_per_axis must be at least 8, got %r" % (nodes,))
        object.__setattr__(self, "nodes_per_axis", nodes)


def cell_node_counts(level: int, im_tau: float, epsilon: float,
                     quad: QuadratureSpec = QuadratureSpec()) -> tuple[int, int]:
    """Nodes ``(n_x, n_y)`` of the midpoint rule whose aliasing error on
    a level-``level`` norm integrand at ``Im tau = im_tau`` is below
    ``epsilon`` relative to the integral, each at least
    ``quad.nodes_per_axis``.  An axis whose certified count is past the
    cap of :class:`~nctorus.theta.TruncationPolicy` raises
    :class:`~nctorus.errors.TruncationError`; the floor is never checked."""
    policy = TruncationPolicy(epsilon)
    # 2 / epsilon overflows below an epsilon of about 1.1e-308: log it in parts
    quotient = 2.0 / epsilon
    log = math.log(quotient) if quotient < math.inf else math.log(2.0) - math.log(epsilon)
    k, b = float(level), float(im_tau)
    counts = math.sqrt(2.0 * k * log / (math.pi * b)), math.sqrt(2.0 * k * b * log / math.pi)
    for n in counts:
        policy.check_count(n, "cell rule needs %(count)s nodes on an axis, cap is %(cap)d")
    return tuple(max(math.ceil(n), quad.nodes_per_axis) for n in counts)


def quadrature_nodes(basis: LLLBasis):
    """Midpoint nodes ``x, y`` on [0, 1) of the cell rule of ``basis``,
    :attr:`LLLBasis.cell_nodes` of them; each of the ``x.size * y.size``
    tensor nodes has the same weight."""
    n_x, n_y = basis.cell_nodes
    return (np.arange(n_x) + 0.5) / n_x, (np.arange(n_y) + 0.5) / n_y


def _grid_classes(freq, window, n_x):
    """Terms of integer frequencies ``freq`` ``(row, m)`` and window table
    ``window`` ``(row, m, column)`` by class mod ``n_x``: their windows
    times ``(-1)**(freq // n_x)`` ``(n_x, width, column)``, their rows and
    frequencies ``(n_x, width)``, unused slots 0, and the number of rows.
    A term's columns are one row of the reshaped table: no copy is
    transposed."""
    f = freq.ravel()
    classes = f % n_x
    order = np.argsort(classes, kind="stable")
    counts = np.bincount(classes, minlength=n_x)
    # each term's class and place in it, in the sorted order
    where = classes[order], np.arange(f.size) - np.repeat(np.cumsum(counts) - counts, counts)
    values = np.zeros((n_x, counts.max(), window.shape[2]), dtype=complex)
    values[where] = (window.reshape(f.size, -1) * (1 - 2 * (f // n_x % 2))[:, None])[order]
    rows, freqs = np.zeros((2,) + values.shape[:2], dtype=int)
    rows[where] = order // freq.shape[1]
    freqs[where] = f[order]
    return values, rows, freqs, len(freq)


def _grid_overlaps(classes, other_classes):
    """``sum_{i,j} conj(u_r[i, j]) * v_s[i, j]`` for every pair of rows,
    ``u_r[i, j] = sum_m window[r, j, m] * exp(2*pi*i*freq[r, m]*x_i)`` on
    the ``n_x`` midpoint nodes ``x_i = (i + 1/2)/n_x`` and ``v_s``
    likewise, from their :func:`_grid_classes` (see "The cell rule")."""
    (u, r, _, size), (v, s, _, other_size) = classes, other_classes
    return _class_sums(np.conjugate(u) @ v.transpose(0, 2, 1), r, s, size, other_size)


def _class_sums(products, rows, other_rows, size, other_size):
    """The per-class products ``products[c, i, j]`` of the slots ``i`` of
    one class table and ``j`` of another, summed onto the ``(size,
    other_size)`` pairs of their slots' rows and times the comb's ``n_x``:
    :func:`_grid_overlaps` of the two tables."""
    index = (rows[:, :, None] * other_size + other_rows[:, None, :]).ravel()
    n, sums = size * other_size, products.ravel()
    out = np.empty(n, complex)  # filled and scaled in place: one K x K buffer
    out.real = np.bincount(index, sums.real, n)
    out.imag = np.bincount(index, sums.imag, n)
    out *= len(products)
    return out.reshape(size, other_size)


def _column_major(shape):
    """An empty float buffer ``(row, column, m)`` and its view of
    ``shape``, a window table's ``(row, m, column)``: filled through the
    view, each buffer row sums in (column, m) order, the order that fixes
    the pairwise rounding of every norm."""
    rows, terms, columns = shape
    table = np.empty((rows, columns, terms))
    return table, table.transpose(0, 2, 1)


def _alias_fold(freq, twice, n_x, step, pair_phases):
    """``sum_{i,j} |u_r[i, j]|**2`` for every row, the diagonal of
    :func:`_grid_overlaps`, from a table ``twice`` of ``2*Re E`` and the
    pair phases ``pair_phase(d) = Im E_m - Im E_{m+d}`` alone: one row of
    norms per ``pair_phases`` function, the squares summed once.
    ``|exp(E)|**2 = exp(2*Re E)``, and the fold's only cross terms pair the
    terms ``m`` and ``m + d`` of a row that alias, ``d`` a multiple of the
    period ``p = n_x / gcd(step, n_x)`` of a row whose ``freq`` rise by
    ``step``:

        n_x * [sum_m exp(2*Re E_m)
               + 2 * sum_{d = p, 2p, ...} sum_m s_m * s_{m+d}
                 * exp(Re E_m + Re E_{m+d}) * cos(Im E_m - Im E_{m+d})],

    summed over the columns, with ``s = (-1)**(freq // n_x)``.  ``twice``
    is laid out ``(row, m, column)``, C-contiguous or the view of a
    :func:`_column_major` buffer, and is exponentiated in place; each row
    sums in the buffer's order.  Where a row has no more terms than the
    period the cross sum is empty, and no phase is read."""
    period = n_x // math.gcd(step, n_x)
    crosses = []  # read before twice is exponentiated in place, added after the squares
    if twice.shape[1] > period:  # terms alias onto each other
        sign = 1 - 2 * (freq // n_x % 2)
        for d in range(period, twice.shape[1], period):
            pairs, halves = _column_major(twice[:, d:].shape)
            np.add(twice[:, :-d], twice[:, d:], out=halves)
            halves *= 0.5
            np.exp(pairs, out=pairs)
            halves *= (sign[:, :-d] * sign[:, d:])[:, :, None]  # +-1: exact in any order
            crosses.append([])
            for pair_phase in pair_phases:
                pair_table, cross = _column_major(halves.shape)
                np.multiply(halves, np.cos(pair_phase(d)), out=cross)
                crosses[-1].append(2.0 * pair_table.reshape(len(pair_table), -1).sum(axis=1))
    table = np.exp(twice, out=twice)
    if not table.flags.c_contiguous:
        table = table.transpose(0, 2, 1)  # the (row, column, m) buffer
    norms = np.array([table.reshape(len(table), -1).sum(axis=1)] * len(pair_phases))
    for cross in crosses:
        norms += cross
    return n_x * norms


def _grid_exponent_norms(freq, expo, n_x, step, power=0):
    """:func:`_alias_fold` of the window ``exp(expo) / 2**power`` of a
    complex table of exponents ``expo``, which it reads and does not
    write: ``2*Re E`` less ``2*power*log(2)`` is formed in the fold's own
    real buffer, and the pair phases are differences of ``Im E``."""
    _, twice = _column_major(expo.shape)
    np.multiply(expo.real, 2.0, out=twice)
    _less_log2(twice, 2 * power)
    im = expo.imag
    return _alias_fold(freq, twice, n_x, step, [lambda d: im[:, :-d] - im[:, d:]])[0]


def _frequencies(level, a):
    """The integer frequencies ``rint(K*a)`` of a window's run ``a``;
    ``ArithmeticError`` where one passes 2**53, before the cast.  Every
    row of a run rises by 1 from within 1 of ``a[0, 0]``
    (``theta._grid_window``), so its two corners clear a run far below
    2**53, and only one near it, or NaN, reads every entry."""
    freq = np.rint(level * a)
    if not level * (abs(a[0, 0]) + abs(a[-1, -1]) + 1.0) < 2.0**53:
        top = abs(freq).max()
        if not top <= 2.0**53:  # a NaN is refused too
            raise ArithmeticError("a cell window's integer frequencies pass 2**53, up to %r"
                                  % (float(top),))
    return freq.astype(int)


def _power_above(top) -> int:
    """The power of two above ``exp(top)``, 0 where ``top`` is not finite:
    each reader of a cell table divides it by the power above its largest
    entry ``exp(Re E)`` before it sums or exponentiates."""
    return math.floor(top / _LN2_HI) + 1 if math.isfinite(top) else 0


def _less_log2(x, power):
    """``x - power*log(2)``, in place where ``x`` is an array: ``log 2``
    in two parts, the first exact, so the shift rounds no ``log 2``."""
    x -= power * _LN2_HI
    x -= power * _LN2_LO
    return x


def _scaled_exp(expo, power):
    """``exp(expo) / 2**power``, formed in ``expo`` in place: the shift by
    ``power*log(2)`` is subtracted from the exponents (:func:`_less_log2`)
    before the one exponential, so no entry overflows where its scaled
    value is in range."""
    _less_log2(expo.real, power)
    with np.errstate(invalid="ignore"):  # a NaN exponent reads NaN, which the module reports
        return np.exp(expo, out=expo)


def state_norm(basis: LLLBasis) -> list[float]:
    """Squared cell norms of the K ground states in :meth:`LLLBasis.labels`
    order, the diagonal of :attr:`LLLBasis.gram`, folded from the real
    table of :meth:`ThetaField.cell_norm_exponent` (see "The cell rule")
    and scaled back in one ``np.ldexp``: a norm past double range, or
    every norm where no table is built, reads ``inf``."""
    return state_norms_at(basis, basis.tau)[0]


def state_norms_at(basis: LLLBasis, *taus) -> list[list[float]]:
    """:func:`state_norm` of ``basis`` read at each of ``taus`` of its ``Im
    tau``, such as ``tau + 1``, from its one table: only the pair phases of
    aliasing terms are a point's own (see "The cell rule"), bit for bit a
    basis built there.  ``ValueError`` for a point off that ``Im tau``."""
    taus = [as_tau(tau) for tau in taus]
    if any(tau.im != basis.tau.im for tau in taus):
        raise ValueError("a point off Im tau = %r" % basis.tau.im)
    x, y = quadrature_nodes(basis)
    freq, twice, pair_phase, power = basis.field.cell_norm_exponent(y)
    if twice is None:
        return [[math.inf] * basis.level for _ in taus]
    phases = [functools.partial(pair_phase, tau=tau.value,
                                gamma=_gamma(tau.value, basis.angles, basis.level))
              for tau in taus]
    norms = _alias_fold(freq, twice, x.size, basis.level, phases) / (x.size * y.size)
    with np.errstate(over="ignore"):
        return np.ldexp(norms, 2 * power).tolist()


@dataclass(frozen=True)
class LLLBasis:
    """Ground-space basis at flux N/M on ``tau``: ``field`` is the stacked
    :class:`ThetaField` of the K states, one row per label of
    :meth:`labels`, and ``quad`` the node floor of its cell rule.  The
    states own their parameters: :attr:`angles`, :attr:`gamma` and
    :attr:`policy` are the field's.  The basis keeps its states' class
    table and per-class products on the cell rule (``_cell_states``): the
    Gram matrix sums them, and every step along 1 reads them reweighted
    (:func:`_project`)."""

    flux: Flux
    tau: ModularParameter
    field: ThetaField = dataclass_field(repr=False)
    quad: QuadratureSpec = QuadratureSpec()

    @property
    def level(self) -> int:
        return self.flux.level

    @property
    def angles(self) -> VacuumAngles:
        return self.field.angles

    @property
    def gamma(self) -> complex:
        return self.field.gamma

    @property
    def policy(self) -> TruncationPolicy:
        return self.field.policy

    @functools.cached_property
    def cell_nodes(self) -> tuple[int, int]:
        """``(n_x, n_y)`` of the basis's cell rule (:func:`cell_node_counts`),
        counted once."""
        return cell_node_counts(self.level, self.tau.im, self.policy.epsilon, self.quad)

    @functools.cached_property
    def eta(self) -> complex:
        """``eta(tau)`` at the basis's truncation policy
        (:func:`~nctorus.theta.dedekind_eta`), formed once: each ``Z~`` of
        the basis divides by its ``|eta|^2``."""
        return dedekind_eta(self.tau, self.policy)

    def state(self, j, k) -> ThetaField:
        """The single state Psi_jk (indices mod M and N), built from the
        stacked field's row of that label."""
        m, n = self.flux.denominator, self.flux.numerator
        f = self.field
        return ThetaField(f.terms, f.level, f.residue[(j % m) * n + k % n], self.tau,
                          f.angles, f.policy)

    def labels(self):
        """Index pairs in the fixed flattening order (j major, k minor)."""
        m, n = self.flux.denominator, self.flux.numerator
        return [(j, k) for j in range(m) for k in range(n)]

    @functools.cached_property
    def _cell_states(self):
        """``(n_x, y, power, classes, products)`` of the module: the node
        count in ``x`` and the ``y`` nodes of :func:`quadrature_nodes`,
        ``power``, the power of two above the largest entry ``exp(Re E)``
        of the states' :meth:`ThetaField.cell_exponent` table on those
        columns (:func:`_power_above`), the :func:`_grid_classes` ``u`` of
        that table's :func:`_scaled_exp` by ``2**power``, and their
        per-class products ``conj(u_c) @ u_c.T``, which the Gram matrix and
        every step along 1 read.  The states, up to
        ``exp(Im(tau)*alpha1**2/(4*pi*K))``, are scaled before the
        exponential."""
        x, y = quadrature_nodes(self)
        freq, expo = self.field.cell_exponent(y)
        power = _power_above(float(np.max(expo.real)))
        classes = _grid_classes(freq, _scaled_exp(expo, power), x.size)
        values = classes[0]
        return x.size, y, power, classes, np.conjugate(values) @ values.transpose(0, 2, 1)

    @functools.cached_property
    def gram(self):
        """``G_rs = <Psi_r, Psi_s>`` on the cell rule, per label, over
        ``4**power`` of ``_cell_states`` (all measured is a ratio): its
        per-class products summed onto their rows (:func:`_class_sums`).
        ``LinAlgError`` unless finite with a positive diagonal."""
        n_x, y, _, (_, rows, _, size), products = self._cell_states
        gram = _class_sums(products, rows, rows, size, size)
        gram /= n_x * y.size
        if not (np.isfinite(gram).all() and np.all(gram.diagonal().real > 0)):
            raise np.linalg.LinAlgError("the states' Gram matrix is not finite and positive")
        gram.setflags(write=False)
        return gram

    @functools.cached_property
    def translations(self):
        """:func:`_project` of ``d1``, ``dual1``, ``d2`` and ``dual2``, each
        measured at every flux, read-only: the steps along 1 read the
        states' per-class products, and each step along tau builds its own
        window table."""
        out = {}
        for name, index, dual in (("d1", 1, False), ("dual1", 1, True),
                                  ("d2", 2, False), ("dual2", 2, True)):
            out[name] = _project(self, elementary_translation(self, index, dual=dual)(self.field))
            for arr in out[name]:
                arr.setflags(write=False)
        return out


def build_basis(flux: Flux, tau, angles: VacuumAngles = VacuumAngles(),
                policy: TruncationPolicy = _DEFAULT_POLICY,
                quad: QuadratureSpec = QuadratureSpec()) -> LLLBasis:
    """Construct the MN ground states Psi_jk on ``tau`` with the given
    vacuum angles, as one stacked :class:`ThetaField` that holds the angles
    and ``policy``, measured on the cell rule of node floor ``quad``.  A
    level past the cap of ``policy`` raises :class:`TruncationError`
    before any array is sized by it."""
    t = as_tau(tau)
    k_level, n = flux.level, flux.numerator
    policy.check_count(k_level, "basis needs %(count)s states, cap is %(cap)d")
    j, k = np.divmod(np.arange(k_level), n)  # the labels, j major and k minor
    residues = ((j * n + k * flux.denominator) % k_level).tolist()
    field = ThetaField({(0, 0, 0): 1.0}, k_level, residues, t, angles, policy)
    return LLLBasis(flux=flux, tau=t, field=field, quad=quad)


def unit_cell_grid(tau, n=5):
    """Deterministic sample grid in the unit cell: ``w = x + tau*y`` with
    ``x, y`` on an offset uniform n-by-n lattice in ``[0, 1)``."""
    t = as_tau(tau)
    s = (np.arange(n) + 0.37) / n
    x = s[:, None]
    y = s[None, :]
    w = (x + t.value * y).ravel()
    wbar = (x + t.value.conjugate() * y).ravel()
    return w, wbar


def boundary_residual(basis: LLLBasis, j, k, grid=None, state=None) -> float:
    """Max-grid residual of the two quasi-periodicity conditions

        Psi(w+1, wbar+1)       = e^{i a1} e^{pi K (w-wbar)/(2b)} Psi(w, wbar)
        Psi(w+tau, wbar+taubar) = e^{i a2} e^{pi K (taubar w - tau wbar)/(2b)} Psi(w, wbar)

    for the state ``(j, k)`` (or an explicit ``state`` field built on the
    same basis data, e.g. a raised level)."""
    f = state if state is not None else basis.state(j, k)
    w, wbar = grid if grid is not None else unit_cell_grid(basis.tau)
    tau = basis.tau.value
    b = basis.tau.im
    klev = basis.level
    a1, a2 = basis.angles.alpha1, basis.angles.alpha2
    base = f.evaluate(w, wbar)
    lhs1 = f.evaluate(w + 1.0, wbar + 1.0)
    rhs1 = cmath.exp(1j * a1) * np.exp(math.pi * klev * (w - wbar) / (2.0 * b)) * base
    lhs2 = f.evaluate(w + tau, wbar + tau.conjugate())
    rhs2 = (
        cmath.exp(1j * a2)
        * np.exp(math.pi * klev * (tau.conjugate() * w - tau * wbar) / (2.0 * b))
        * base
    )
    r1 = float(np.max(np.abs(lhs1 - rhs1)))
    r2 = float(np.max(np.abs(lhs2 - rhs2)))
    return float(np.max([r1, r2]))


def elementary_translation(basis: LLLBasis, index, dual=False):
    """Operator (Field -> Field) for the elementary magnetic translation
    ``D1``/``D2`` of the crystal lattice (``index`` 1 or 2), or of the
    dual lattice when ``dual`` is true."""
    if index not in (1, 2):
        raise ValueError("index must be 1 or 2, got %r" % (index,))
    div = basis.flux.numerator if dual else basis.flux.denominator
    step, alpha = ((1.0, basis.angles.alpha1) if index == 1
                   else (basis.tau.value, basis.angles.alpha2))
    u = step / div
    scale = cmath.exp(2j * alpha / div)

    def op(f: Field) -> Field:
        return _Translated(f, u, scale, basis)

    return op


def _project(basis: LLLBasis, image):
    """``L = diag(G)^-1 P``, ``P_rs = <Psi_r, image_s>`` on the cell rule
    of :attr:`LLLBasis.gram`, for the stacked ``image`` of the states, and
    each image's Parseval defect ``|1 - sum_r |L_rs|^2 G_rr /
    ||image_s||^2|``: its share outside the states' span.

    A step along 1 of the states (an image whose base is
    :attr:`LLLBasis.field` and whose displacement has no ``tau`` part:
    ``D1``, ``D1~`` and ``D1^M``) keeps each term's frequency and class
    and multiplies it by one factor ``w`` (:meth:`_Translated._term_factors`),
    so ``P`` is the states' per-class products ``conj(u_i) u_j`` times
    ``w_j``, summed as the Gram matrix is, and each image's norm is their
    quadratic form ``conj(w_i) conj(u_i) u_j w_j`` over the slot pairs of
    its row: no table is formed.  Any other image builds its own
    :meth:`~_Translated.cell_exponent` table, read at the states' power."""
    n_x, y, power, states, products = basis._cell_states
    norms = basis.gram.diagonal().real
    if getattr(image, "base", None) is basis.field and not image.u.imag:
        _, rows, freqs, size = states
        const, phase = image._term_factors(freqs)
        weights = np.exp(phase)
        weights *= const
        weighted = products * weights[:, None, :]
        l_mat = _class_sums(weighted, rows, rows, size, size)
        weighted *= np.conjugate(weights)[:, :, None]
        image_norms = _class_sums(weighted, rows, rows, size, size).diagonal().real
    else:
        freq, expo = image.cell_exponent(y)
        image_norms = _grid_exponent_norms(freq, expo, n_x, basis.level, power)
        l_mat = _grid_overlaps(states, _grid_classes(freq, _scaled_exp(expo, power), n_x))
    l_mat /= n_x * y.size * norms[:, None]
    image_norms = image_norms / (n_x * y.size)
    squares = np.abs(l_mat)
    squares **= 2
    return l_mat, np.abs(1.0 - norms @ squares / image_norms)


def coefficient_matrix(basis: LLLBasis, op) -> np.ndarray:
    """Matrix ``L`` of ``op``, any composition of
    :func:`elementary_translation` operators: ``op(Psi_i) = sum_i' L[i', i]
    Psi_i'`` in :meth:`LLLBasis.labels` order (:func:`_project`)."""
    return _project(basis, op(basis.field))[0]


def eigenphase_table(basis: LLLBasis) -> dict:
    """The action of each of :attr:`LLLBasis.translations` on each state:
    the label its image lands on (the largest entry of its matrix column),
    the phase there, the largest other entry (the leak) and the image's
    defect, each one array reduction over the K states."""
    labels = basis.labels()
    columns = np.arange(len(labels))
    table = {lb: {} for lb in labels}
    for name, (l_mat, defect) in basis.translations.items():
        size = np.abs(l_mat)
        target = np.argmax(size, axis=0)
        phase = l_mat[target, columns]
        size[target, columns] = -np.inf
        leak = np.max(size, axis=0, initial=0.0)  # 0.0 when K is 1
        for i, lb in enumerate(labels):
            table[lb].update({name + "_target": labels[target[i]], name + "_phase": complex(phase[i]),
                              name + "_leak": float(leak[i]), name + "_defect": float(defect[i])})
    return table


def _law_residual(measured, target, phase):
    """``(deviation, defect, flat)`` of one measured ``(L, defect)`` of
    :func:`_project` against its law's monomial ``(target, phase)``: the
    largest :func:`_law_deviation`, at the flat index ``flat`` of ``L``, and
    the largest Parseval defect.  Each law's ``|L - P|`` is reduced before
    the caller forms the next, so a check holds one at a time."""
    l_mat, defect = measured
    dev = _law_deviation(l_mat, target, phase)
    flat = int(np.argmax(dev))  # a NaN is the first argmax, so it is the deviation
    return float(dev.flat[flat]), float(defect.max()), flat


def lemma_eigenphase_residual(basis: LLLBasis) -> float:
    """Largest ``|L - P|`` and Parseval defect of ``d1`` and ``d2`` of
    :attr:`LLLBasis.translations`, ``P`` their laws' monomials
    (:func:`_predicted_translations`, compared by :func:`_law_residual`):
    a wrong target, phase or leak shows in ``|L - P|``."""
    predicted = _predicted_translations(basis)
    res = []
    for name in ("d1", "d2"):
        res += _law_residual(basis.translations[name], *predicted[name])[:2]
    return float(np.max(res))  # np.max, unlike max, keeps a NaN


def center_eigen_residual(basis: LLLBasis):
    """``(residual, note)`` of the central relations D1^M = e^{i*alpha1}
    and D2^M = e^{i*alpha2} on the module: the largest ``|L - e^{i*alpha}
    I|`` and Parseval defect of each power's :func:`_project`
    (:func:`_law_residual`).  The steps along one lattice vector commute,
    so ``D^M`` is one displacement by M steps with the step's scale to the
    M-th power."""
    m = basis.flux.denominator
    res = []
    for index, alpha in ((1, basis.angles.alpha1), (2, basis.angles.alpha2)):
        step = elementary_translation(basis, index)(basis.field)
        power = _Translated(basis.field, m * step.u, step.scale**m, basis)
        res += _law_residual(_project(basis, power), np.arange(basis.level),
                             cmath.exp(1j * alpha))[:2]
    return float(np.max(res)), (  # np.max, unlike max, keeps a NaN
        "largest |L - e^{i alpha} I| and Parseval defect of D1^M and D2^M, each one "
        "displacement, measured on the (n_x, n_y) = (%d, %d) cell rule; D1^M reads the "
        "states' own window, whose integer frequencies make it test only the prefactor "
        "and the angle phases, and D2^M reads the columns y - 1, so it tests theta's "
        "quasi-periodicity there" % basis.cell_nodes)


def bimodule_consistency(basis: LLLBasis) -> dict:
    """Check that the ground states, the M x N array of
    :meth:`LLLBasis.labels`, carry the left action of ``D1``, ``D2`` on
    ``j`` and the right action of the dual pair on ``k``: each matrix of
    :attr:`LLLBasis.translations` against its law's monomial
    (:func:`_predicted_translations`, compared by :func:`_law_residual`).
    The left-right commutator composes those monomials' ``(target,
    phase)`` vectors, so it is 0 by construction.

    Returns a report dict; individual mismatches beyond the tolerance
    1e-6 are listed (measured vs. predicted entries) rather than raised.
    """
    tol = 1e-6
    predicted = _predicted_translations(basis)
    deviations, mismatches = {}, []
    for name, measured in basis.translations.items():
        target, phase = predicted[name]
        deviations[name], _, flat = _law_residual(measured, target, phase)
        if not deviations[name] <= tol:  # a NaN deviation is a mismatch
            row, col = divmod(flat, len(target))
            mismatches.append({"operator": name, "index": (row, col),
                               "measured": complex(measured[0][row, col]),
                               "predicted": complex(phase[col] if target[col] == row else 0.0)})
    # L R and R L of monomials: column s lands on one row with one phase
    # product, formed as left * right in both, since numpy's SIMD complex
    # multiply need not commute bit for bit; apart, each row meets a zero
    commutators = []
    for t_l, p_l in (predicted["d1"], predicted["d2"]):
        for t_r, p_r in (predicted["dual1"], predicted["dual2"]):
            lr, rl = p_l[t_r] * p_r, p_l * p_r[t_l]
            commutators.append(np.max(np.where(t_l[t_r] == t_r[t_l], np.abs(lr - rl),
                                               np.maximum(np.abs(lr), np.abs(rl)))))
    left_right = float(np.max(commutators))  # np.max, unlike max, keeps a NaN
    return {
        "deviations": deviations,
        "mismatches": mismatches,
        "left_right_commutator": left_right,
        "tolerance": tol,
        "pass": not mismatches and left_right == 0.0,
    }


def bimodule_residual(basis: LLLBasis):
    """``(residual, note)``: the largest of the :func:`bimodule_consistency`
    deviations and its left-right commutator."""
    report = bimodule_consistency(basis)
    return float(np.max([*report["deviations"].values(), report["left_right_commutator"]])), (
        "largest |L - P| of D1, D2, D1~ and D2~ against the monomials of their laws, "
        "measured on the (n_x, n_y) = (%d, %d) cell rule; the left-right commutator of "
        "the predicted actions holds by construction" % basis.cell_nodes)


def gram_rank(basis: LLLBasis, discs=None) -> int:
    """Numerical rank of :attr:`LLLBasis.gram`: its singular values (the
    moduli of its eigenvalues) above 1e-8 times the largest eigenvalue of
    ``G``, not of the normalised ``G_rs/sqrt(G_rr G_ss)``.  The two ranks
    agree while the state norms are equal, as the translations make them.

    Where the Gram matrix's Gershgorin discs certify every eigenvalue
    above that threshold (:func:`nctorus.core.gershgorin_full_rank` at
    1e-8), the rank is K without a spectrum; only where they do not does
    ``eigvalsh`` run.  On measured bases from (1,1) to (34,21), ``tau``
    from 1e-3i to 1300i, the discs' margin ``min(d - R)/max(d + R)`` lies
    within 3e-12 of 1 at the default truncation and above 0.999998 at
    ``epsilon`` 1e-6, so the spectrum runs only for a faulty basis.
    ``discs`` is that function's ``(certified, margin)`` where the caller
    has read it."""
    if (discs or gershgorin_full_rank(basis.gram, 1e-8))[0]:
        return basis.level
    s = np.abs(np.linalg.eigvalsh(basis.gram))
    return int(np.sum(s > 1e-8 * s.max()))


def gram_rank_residual(basis: LLLBasis):
    """``(residual, note)``: ``|rank - K|`` of :func:`gram_rank`, 0 when
    the K states are independent; the note names the route that gave the
    rank and the discs' margin."""
    discs = certified, margin = gershgorin_full_rank(basis.gram, 1e-8)
    route = "certified by its Gershgorin discs" if certified else "from eigvalsh"
    return float(abs(gram_rank(basis, discs) - basis.level)), (
        "rank of the Gram matrix of the K states measured on the (n_x, n_y) = (%d, %d) "
        "cell rule, %s; disc margin min(d - R)/max(d + R) = %.15g"
        % (*basis.cell_nodes, route, margin))


def overlap_residual(basis: LLLBasis):
    """``(residual, note)``: the largest ``|G_rs|/sqrt(G_rr G_ss)``,
    ``r != s``, of :attr:`LLLBasis.gram` (0 when K is 1)."""
    norms = np.sqrt(basis.gram.diagonal().real)
    ratio = np.abs(basis.gram) / np.outer(norms, norms)
    np.fill_diagonal(ratio, 0.0)
    return float(np.max(ratio)), (
        "largest |G_rs|/sqrt(G_rr G_ss), r != s, of the Gram matrix of the K states "
        "measured on the (n_x, n_y) = (%d, %d) cell rule" % basis.cell_nodes)


def raise_level(basis: LLLBasis, j, k, n=1) -> ThetaField:
    """Apply the raising operator ``a+`` (at the basis weight) ``n``
    times to Psi_jk, staying in the exact theta-term family."""
    if n < 0:
        raise ValueError("n must be >= 0")
    st = basis.state(j, k)
    klev = basis.level
    b = basis.tau.im
    s = math.sqrt(b / (math.pi * klev))   # sqrt(2 * weight)
    beta = math.pi * klev / (2.0 * b)     # 1/(4 * weight)
    terms = st.terms
    for _ in range(n):
        new = defaultdict(float)
        for key, mu in _dw_terms(terms, klev, b, basis.angles.alpha1).items():
            new[key] += -s * mu
        for (a_pow, c_pow, p), mu in terms.items():
            new[a_pow, c_pow + 1, p] += s * beta * mu
        terms = new
    return ThetaField(terms, klev, st.residue, basis.tau, basis.angles, basis.policy)
