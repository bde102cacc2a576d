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

States are stored as exact term families
``sum_t c_t * w^a * wbar^c * exp(G) * theta^{(p)}(w + gamma)`` so that
all derivatives (and the raising operator) stay analytic.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .core import Flux, ModularParameter, VacuumAngles, as_tau
from .errors import ConventionMismatchError
from .fields import Displacement, Field, displacement_apply
from .theta import ThetaSpec, TruncationPolicy, theta_derivative

__all__ = [
    "LLLBasis",
    "ThetaField",
    "build_basis",
    "unit_cell_grid",
    "boundary_residual",
    "elementary_translation",
    "eigenphase_table",
    "center_eigen_residual",
    "gram_rank",
    "coefficient_matrix",
    "raise_level",
]

_DEFAULT_POLICY = TruncationPolicy()


def _eval_terms(terms, level, residue, tau, alpha1, gamma, policy, w, wbar):
    b = tau.imag
    # G rides in each theta series as its log-scale: exp(G) and theta are
    # never formed apart, so neither overflows where their product is tame
    g = math.pi * level * w * (w - wbar) / (2.0 * b) + 1j * alpha1 * w
    spec = ThetaSpec(level, residue)
    orders = sorted({p for (_, _, p) in terms})
    th = {p: theta_derivative(spec, w + gamma, tau, policy, order=p, log_scale=g)
          for p in orders}
    out = None
    for (a, c, p), coeff in sorted(terms.items()):
        piece = coeff * th[p]
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
    out = {}

    def add(key, val):
        out[key] = out.get(key, 0.0) + val

    for (a, c, p), mu in terms.items():
        if a:
            add((a - 1, c, p), a * mu)
        add((a + 1, c, p), coef_w * mu)
        add((a, c + 1, p), coef_wbar * mu)
        if alpha1:
            add((a, c, p), 1j * alpha1 * mu)
        add((a, c, p + 1), mu)
    return out


def _dwbar_terms(terms, level, b):
    """Term transform for d/dwbar at fixed w."""
    coef = -math.pi * level / (2.0 * b)  # dG/dwbar = coef * w
    out = {}

    def add(key, val):
        out[key] = out.get(key, 0.0) + val

    for (a, c, p), mu in terms.items():
        if c:
            add((a, c - 1, p), c * mu)
        add((a + 1, c, p), coef * mu)
    return out


class ThetaField(Field):
    """Field in the exact theta-term family (see module docstring).

    ``terms`` maps ``(a, c, p) -> coeff`` for the summand
    ``coeff * w^a * wbar^c * exp(G) * theta^{(p)}_{residue}(w + gamma)``.
    """

    __slots__ = ("terms", "level", "residue", "alpha1", "gamma", "policy")

    def __init__(self, terms, level, residue, tau, alpha1, gamma, policy=_DEFAULT_POLICY):
        t = as_tau(tau)
        self.terms = dict(terms)
        self.level = int(level)
        self.residue = int(residue) % int(level)
        self.alpha1 = float(alpha1)
        self.gamma = complex(gamma)
        self.policy = policy
        tv = t.value

        def ev(w, wbar, _terms=self.terms):
            return _eval_terms(_terms, self.level, self.residue, tv,
                               self.alpha1, self.gamma, policy, w, wbar)

        dz_terms = _dw_terms(self.terms, self.level, t.im, self.alpha1)
        dzbar_terms = _dwbar_terms(self.terms, self.level, t.im)

        def dz(w, wbar, _terms=dz_terms):
            return _eval_terms(_terms, self.level, self.residue, tv,
                               self.alpha1, self.gamma, policy, w, wbar)

        def dzbar(w, wbar, _terms=dzbar_terms):
            return _eval_terms(_terms, self.level, self.residue, tv,
                               self.alpha1, self.gamma, policy, w, wbar)

        super().__init__(ev, t, t.im / (2.0 * math.pi * self.level), d_z=dz, d_zbar=dzbar)


@dataclass(frozen=True)
class LLLBasis:
    """Ground-space basis ``states[(j, k)]`` at flux N/M on ``tau``."""

    flux: Flux
    tau: ModularParameter
    angles: VacuumAngles
    gamma: complex
    policy: TruncationPolicy
    states: dict = dataclass_field(repr=False, default=None)

    @property
    def level(self) -> int:
        return self.flux.level

    def state(self, j, k) -> ThetaField:
        m, n = self.flux.denominator, self.flux.numerator
        return self.states[(j % m, k % n)]

    def labels(self):
        """Index pairs in the fixed flattening order (j major, k minor)."""
        m, n = self.flux.denominator, self.flux.numerator
        return [(j, k) for j in range(m) for k in range(n)]

    @functools.cached_property
    def _fit_samples(self):
        """Grid ``(w, wbar)`` and state matrix ``a`` (one row per label) of
        the sampled fits, stacked once per basis and read-only (``states``
        must not change after the first fit).  The grid is the smallest
        n-by-n one with n >= 6 and n*n >= K, so K coefficients fit.

        Raises ``LinAlgError`` when a sample is not finite, before LAPACK
        sees it (LAPACK would print its own complaint on stdout)."""
        n = max(6, math.isqrt(self.level - 1) + 1)
        w, wbar = unit_cell_grid(self.tau, n=n)
        a = np.stack([self.states[lb].evaluate(w, wbar) for lb in self.labels()])
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError("state samples on the fit grid are not finite")
        for arr in (w, wbar, a):
            arr.setflags(write=False)
        return w, wbar, a


def build_basis(flux: Flux, tau, angles: VacuumAngles = VacuumAngles(),
                policy: TruncationPolicy = _DEFAULT_POLICY) -> LLLBasis:
    """Construct the MN ground states Psi_jk on ``tau`` with the given
    vacuum angles."""
    t = as_tau(tau)
    k_level = flux.level
    gamma = (t.value * angles.alpha1 - angles.alpha2) / (2.0 * math.pi * k_level)
    states = {}
    for j in range(flux.denominator):
        for k in range(flux.numerator):
            r = (j * flux.numerator + k * flux.denominator) % k_level
            states[(j, k)] = ThetaField(
                {(0, 0, 0): 1.0}, k_level, r, t, angles.alpha1, gamma, policy
            )
    return LLLBasis(flux=flux, tau=t, angles=angles, gamma=gamma,
                    policy=policy, states=states)


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
    tau = basis.tau.value
    if index == 1:
        u = 1.0 / div
        ubar = 1.0 / div
        scale = cmath.exp(2j * basis.angles.alpha1 / div)
    else:
        u = tau / div
        ubar = tau.conjugate() / div
        scale = cmath.exp(2j * basis.angles.alpha2 / div)
    d = Displacement(u, ubar)

    def op(f: Field) -> Field:
        g = displacement_apply(d, f)
        ev = g.evaluate
        dz = g.d_z
        dzbar = g.d_zbar
        return Field(
            lambda w, wbar: scale * ev(w, wbar),
            f.tau,
            f.im_tau_weight,
            d_z=lambda w, wbar: scale * dz(w, wbar),
            d_zbar=lambda w, wbar: scale * dzbar(w, wbar),
        )

    return op


def _masked_ratio(out, base):
    mask = np.abs(base) >= 0.05 * np.max(np.abs(base))
    phase = complex(np.sum(np.conjugate(base) * out) / np.sum(np.abs(base) ** 2))
    if not mask.any():  # no finite sample to compare against
        return phase, math.nan
    spread = float(np.max(np.abs(out[mask] / base[mask] - phase)))
    return phase, spread


def coefficient_matrix(basis: LLLBasis, op) -> np.ndarray:
    """Matrix ``L`` of an operator in the basis, defined by
    ``op(Psi_i) = sum_i' L[i', i] Psi_i'`` with the flattening order of
    :meth:`LLLBasis.labels` (so composition is an algebra homomorphism:
    L(A B) = L(A) L(B)).

    The K images ``op(Psi_i)``, sampled on the basis's own fit grid, are
    the columns of one right-hand side, so ``L`` is one least-squares
    solve against the state sample matrix."""
    w, wbar, a = basis._fit_samples
    images = np.stack([op(basis.states[lb]).evaluate(w, wbar) for lb in basis.labels()],
                      axis=1)
    return np.linalg.lstsq(a.T, images, rcond=None)[0]


def eigenphase_table(basis: LLLBasis, spread_tol=1e-5) -> dict:
    """Measured action of the four elementary translations on each state,
    sampled on the basis's own fit grid.

    For the diagonal operators (D1 and dual D1) the entry records the
    pointwise-constant eigenphase and its spread; for the cycling
    operators (D2 and dual D2) it records the target state label, the
    transition phase and the largest off-target mixing coefficient of
    its :func:`coefficient_matrix` column (one least-squares solve per
    operator).

    Raises :class:`ConventionMismatchError` when a would-be eigenstate
    ratio has spread beyond ``spread_tol`` or a spread that is NaN.
    """
    w, wbar, a = basis._fit_samples
    labels = basis.labels()
    d1 = elementary_translation(basis, 1)
    d2 = elementary_translation(basis, 2)
    d1d = elementary_translation(basis, 1, dual=True)
    d2d = elementary_translation(basis, 2, dual=True)
    fits = {"d2": coefficient_matrix(basis, d2), "dual2": coefficient_matrix(basis, d2d)}
    table = {}
    for i, lb in enumerate(labels):
        st = basis.states[lb]
        entry = {}
        for name, op in (("d1", d1), ("dual1", d1d)):
            out = op(st).evaluate(w, wbar)
            phase, spread = _masked_ratio(out, a[i])
            if not spread <= spread_tol:  # a NaN spread fails too
                raise ConventionMismatchError(
                    "%s ratio on state %s has spread %.3e > %.1e"
                    % (name, lb, spread, spread_tol)
                )
            entry[name + "_phase"] = phase
            entry[name + "_spread"] = spread
        for name, l_mat in fits.items():
            coeffs = l_mat[:, i]
            tgt = int(np.argmax(np.abs(coeffs)))
            off = np.delete(np.abs(coeffs), tgt)
            entry[name + "_target"] = labels[tgt]
            entry[name + "_phase"] = complex(coeffs[tgt])
            entry[name + "_leak"] = float(off.max()) if off.size else 0.0
        table[lb] = entry
    return table


def center_eigen_residual(basis: LLLBasis, j, k) -> float:
    """Max-grid residual of the central relations
    D1^M Psi = e^{i*alpha1} Psi and D2^M Psi = e^{i*alpha2} Psi on the
    5-by-5 :func:`unit_cell_grid`."""
    w, wbar = unit_cell_grid(basis.tau)
    st = basis.state(j, k)
    base = st.evaluate(w, wbar)
    m = basis.flux.denominator
    res = []
    for index, alpha in ((1, basis.angles.alpha1), (2, basis.angles.alpha2)):
        op = elementary_translation(basis, index)
        f = st
        for _ in range(m):
            f = op(f)
        res.append(np.max(np.abs(f.evaluate(w, wbar) - cmath.exp(1j * alpha) * base)))
    return float(np.max(res))  # np.max, unlike max, keeps a NaN


def gram_rank(basis: LLLBasis) -> int:
    """Numerical rank of the state sample matrix on the basis's own fit
    grid: number of singular values above 1e-8 times the largest."""
    s = np.linalg.svd(basis._fit_samples[2], compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0]))


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
        new = {}

        def add(key, val):
            new[key] = new.get(key, 0.0) + val

        for key, mu in _dw_terms(terms, klev, b, basis.angles.alpha1).items():
            add(key, -s * mu)
        for (a_pow, c_pow, p), mu in terms.items():
            add((a_pow, c_pow + 1, p), s * beta * mu)
        terms = new
    return ThetaField(terms, klev, st.residue, basis.tau, basis.angles.alpha1,
                      basis.gamma, basis.policy)
