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

The K states share the level, ``tau``, ``gamma``, ``G`` and every
translation prefactor, and differ only in the residue ``r_jk``, so the
basis holds them as one stacked :class:`ThetaField` whose residues are
the ``r_jk`` in :meth:`LLLBasis.labels` order: one evaluation sums one
theta series for all K residues and returns the K states on a leading
axis.  The translations act on it unchanged, since their prefactors
broadcast over that axis.
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
from .theta import (ThetaSpec, TruncationPolicy, _theta_grid_norms, _theta_grid_sum,
                    theta_derivative)

__all__ = [
    "LLLBasis",
    "ThetaField",
    "build_basis",
    "unit_cell_grid",
    "boundary_residual",
    "elementary_translation",
    "eigenphase_table",
    "lemma_eigenphase_residual",
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
    A sequence of residues (as in :class:`~nctorus.theta.ThetaSpec`)
    stacks one field per residue: ``evaluate(w, wbar)`` and both
    derivatives return shape ``(len(residue),) + w.shape``.
    """

    __slots__ = ("terms", "level", "residue", "spec", "alpha1", "gamma", "policy")

    def __init__(self, terms, level, residue, tau, alpha1, gamma, policy=_DEFAULT_POLICY):
        t = as_tau(tau)
        self.terms = dict(terms)
        self.level = int(level)
        self.spec = ThetaSpec(self.level, residue)
        self.residue = self.spec.residue
        self.alpha1 = float(alpha1)
        self.gamma = complex(gamma)
        self.policy = policy
        tv = t.value

        def evaluator(terms):
            return lambda w, wbar: _eval_terms(terms, self.level, self.residue, tv,
                                               self.alpha1, self.gamma, policy, w, wbar)

        super().__init__(evaluator(self.terms), t, t.im / (2.0 * math.pi * self.level),
                         d_z=evaluator(_dw_terms(self.terms, self.level, t.im, self.alpha1)),
                         d_zbar=evaluator(_dwbar_terms(self.terms, self.level, t.im)))

    def cell_density(self, x, y):
        """:meth:`Field.cell_density` from the theta series summed on the
        grid (``theta._theta_grid_sum``).  On the slice ``w = x + tau*y``,
        with ``c = tau*y + gamma`` and ``2*pi*K*gamma = tau*alpha1 - alpha2``,

            G = i*(pi*K*y + alpha1)*x + i*alpha2*y
                + i*pi*K*c**2/tau - i*pi*K*gamma**2/tau:

        the first two parts are a phase common to every term, which
        ``|.|^2`` drops, the third is the grid sum's own scale, and the
        constant last part is its log-scale.  One grid sum serves every
        derivative order of the terms, so the unit phase it leaves in its
        values, one per residue and node, is common to every term as well
        and ``|.|^2`` drops it too.  No exponent is larger than the terms
        it scales, so none loses digits to cancellation."""
        tau, k = self.tau, self.level
        log_scale = -1j * math.pi * k * self.gamma**2 / tau
        th = _theta_grid_sum(self.spec, x, tau * y + self.gamma, tau, self.policy,
                             _orders(self.terms), log_scale)
        w = x[:, None] + tau * y
        density = np.abs(_combine(self.terms, th, w, np.conjugate(w)))
        density *= density
        return density

    def cell_norms(self, x, y):
        """:meth:`Field.cell_norms` without the densities
        (``theta._theta_grid_norms``) when every term is ``(0, 0, p)``:
        the terms then differ only in their window factors, which combine
        into one, and the phases :meth:`cell_density` drops are common to
        all of them.  Other families sum :meth:`cell_density`."""
        if any(a or c for (a, c, _) in self.terms):
            return super().cell_norms(x, y)
        tau, k = self.tau, self.level
        return _theta_grid_norms(self.spec, x, tau * y + self.gamma, tau, self.policy,
                                 -1j * math.pi * k * self.gamma**2 / tau,
                                 {p: coeff for (_, _, p), coeff in self.terms.items()})


@dataclass(frozen=True)
class LLLBasis:
    """Ground-space basis at flux N/M on ``tau``: ``field`` is the stacked
    :class:`ThetaField` of the K states, one row per label of
    :meth:`labels`."""

    flux: Flux
    tau: ModularParameter
    angles: VacuumAngles
    gamma: complex
    policy: TruncationPolicy
    field: ThetaField = dataclass_field(repr=False, default=None)

    @property
    def level(self) -> int:
        return self.flux.level

    def state(self, j, k) -> ThetaField:
        """The single state Psi_jk (indices mod M and N), built from the
        stacked field's row of that label."""
        m, n = self.flux.denominator, self.flux.numerator
        f = self.field
        return ThetaField(f.terms, f.level, f.residue[(j % m) * n + k % n], self.tau,
                          f.alpha1, f.gamma, f.policy)

    def labels(self):
        """Index pairs in the fixed flattening order (j major, k minor)."""
        m, n = self.flux.denominator, self.flux.numerator
        return [(j, k) for j in range(m) for k in range(n)]

    @functools.cached_property
    def _fit_samples(self):
        """Grid ``(w, wbar)`` and state matrix ``a`` (one row per label) of
        the sampled fits, evaluated once per basis and read-only (``field``
        must not change after the first fit).  The grid is the smallest
        n-by-n one with n >= 6 and n*n >= K, so K coefficients fit.

        Raises ``LinAlgError`` when a sample is not finite, before LAPACK
        sees it in :attr:`_fit_svd` (LAPACK would print its own complaint
        on stdout)."""
        n = max(6, math.isqrt(self.level - 1) + 1)
        w, wbar = unit_cell_grid(self.tau, n=n)
        a = self.field.evaluate(w, wbar)
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError("state samples on the fit grid are not finite")
        for arr in (w, wbar, a):
            arr.setflags(write=False)
        return w, wbar, a

    @functools.cached_property
    def _fit_svd(self):
        """The one factorization of the fit: the thin SVD ``u, s, vh`` of
        the ``(n*n, K)`` sample matrix ``a.T``, every fit's and
        :func:`gram_rank`'s.  ``s`` holds all K singular values; ``u`` and
        ``vh`` keep only the ``r`` directions with ``s > eps*max(n*n, K)*s[0]``,
        numpy's default least-squares cut, so a rank-deficient basis still
        fits its minimum-norm solution.  Read-only, with the contract
        of :attr:`_fit_samples`."""
        a = self._fit_samples[2].T
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        r = int(np.sum(s > np.finfo(float).eps * max(a.shape) * s[0]))
        out = u[:, :r], s, vh[:r]
        for arr in out:
            arr.setflags(write=False)
        return out

    @functools.cached_property
    def translations(self):
        """The four elementary translations measured once: for each of
        ``d1``, ``d2``, ``dual1`` and ``dual2``, the K images on the fit grid
        (one column per label) and their least-squares matrix, all four
        applied from the one :attr:`_fit_svd`.  Read-only, with the
        contract of ``_fit_samples``."""
        out = {}
        for name, index, dual in (("d1", 1, False), ("d2", 2, False),
                                  ("dual1", 1, True), ("dual2", 2, True)):
            out[name] = _fit(self, elementary_translation(self, index, dual=dual))
            for arr in out[name]:
                arr.setflags(write=False)
        return out


def build_basis(flux: Flux, tau, angles: VacuumAngles = VacuumAngles(),
                policy: TruncationPolicy = _DEFAULT_POLICY) -> LLLBasis:
    """Construct the MN ground states Psi_jk on ``tau`` with the given
    vacuum angles."""
    t = as_tau(tau)
    k_level = flux.level
    gamma = (t.value * angles.alpha1 - angles.alpha2) / (2.0 * math.pi * k_level)
    residues = tuple((j * flux.numerator + k * flux.denominator) % k_level
                     for j in range(flux.denominator) for k in range(flux.numerator))
    field = ThetaField({(0, 0, 0): 1.0}, k_level, residues, t, angles.alpha1, gamma, policy)
    return LLLBasis(flux=flux, tau=t, angles=angles, gamma=gamma,
                    policy=policy, field=field)


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


def _fit(basis: LLLBasis, op):
    """Images ``op(Psi_i)`` on the basis's fit grid (one column per label),
    from one evaluation of the stacked states, and their least-squares
    matrix ``V diag(1/s) U^H images`` from the basis's one
    :attr:`~LLLBasis._fit_svd`: the minimum-norm least-squares
    solution."""
    w, wbar, _ = basis._fit_samples
    u, s, vh = basis._fit_svd
    images = op(basis.field).evaluate(w, wbar).T
    scaled = (np.conjugate(u.T) @ images) / s[:len(vh), None]
    return images, np.conjugate(vh.T) @ scaled


def coefficient_matrix(basis: LLLBasis, op) -> np.ndarray:
    """Matrix ``L`` of an operator in the basis, defined by
    ``op(Psi_i) = sum_i' L[i', i] Psi_i'`` with the flattening order of
    :meth:`LLLBasis.labels` (so composition is an algebra homomorphism:
    L(A B) = L(A) L(B)).

    The K images ``op(Psi_i)``, sampled on the basis's own fit grid, are
    the columns of one right-hand side, so ``L`` is one least-squares
    solve against the state sample matrix, applied from its SVD, which
    the basis factors once for every fit."""
    return _fit(basis, op)[1]


def eigenphase_table(basis: LLLBasis, spread_tol=1e-5) -> dict:
    """Measured action of the four elementary translations on each state,
    read from :attr:`LLLBasis.translations`.

    For the diagonal operators (D1 and dual D1) the entry records the
    eigenphase ``<Psi, D Psi>/<Psi, Psi>`` on the fit grid and its spread,
    the largest deviation of the pointwise ratio ``D Psi / Psi`` from it
    where ``|Psi|`` is at least 0.05 of its largest sample; for the
    cycling operators (D2 and dual D2) it records the target state label,
    the transition phase and the largest off-target mixing coefficient of
    its fitted matrix column.  Every quantity is one array reduction over
    the K states; the loop over labels only assembles the dict.

    Raises :class:`ConventionMismatchError` for the first state, in label
    order and D1 before dual D1, whose would-be eigenstate ratio has
    spread beyond ``spread_tol`` or a spread that is NaN.
    """
    a = basis._fit_samples[2]
    labels = basis.labels()
    measured = basis.translations
    size = np.abs(a)
    # a row's largest sample is in its mask, so no row's mask is empty;
    # the ratio is formed only inside the mask, where |Psi| is not small
    mask = size >= 0.05 * np.max(size, axis=1, keepdims=True)
    norm2 = np.sum(size**2, axis=1)
    diagonal = {}
    for name in ("d1", "dual1"):
        image = measured[name][0].T
        # NaN, without a warning, for a state whose samples all underflowed;
        # subnormal samples overflow the quotients to inf or NaN, which the
        # spread check below fails, so numpy's warning is not wanted either
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.divide(np.sum(np.conjugate(a) * image, axis=1), norm2,
                              out=np.full(norm2.shape, np.nan, dtype=complex), where=norm2 > 0)
            ratio = np.divide(image, a, out=np.full_like(image, np.nan), where=mask & (a != 0))
        spread = np.max(np.where(mask, np.abs(ratio - phase[:, None]), 0.0), axis=1)
        diagonal[name] = phase, spread
    cycling = {}
    columns = np.arange(len(labels))
    for name in ("d2", "dual2"):
        fit = measured[name][1]
        size_l = np.abs(fit)
        target = np.argmax(size_l, axis=0)
        size_l[target, columns] = -np.inf
        leak = np.max(size_l, axis=0, initial=0.0)  # 0.0 when K is 1
        cycling[name] = target, fit[target, columns], leak
    table = {}
    for i, lb in enumerate(labels):
        entry = {}
        for name, (phase, spread) in diagonal.items():
            if not spread[i] <= spread_tol:  # a NaN spread fails too
                raise ConventionMismatchError(
                    "%s ratio on state %s has spread %.3e > %.1e"
                    % (name, lb, spread[i], spread_tol)
                )
            entry[name + "_phase"] = complex(phase[i])
            entry[name + "_spread"] = float(spread[i])
        for name, (target, phase, leak) in cycling.items():
            entry[name + "_target"] = labels[target[i]]
            entry[name + "_phase"] = complex(phase[i])
            entry[name + "_leak"] = float(leak[i])
        table[lb] = entry
    return table


def lemma_eigenphase_residual(basis: LLLBasis) -> float:
    """Largest deviation of :func:`eigenphase_table` from the D1 and D2
    actions of the module docstring: phases, D1 spread, and 1 for a D2
    target other than Psi_{j-1,k}."""
    m, n = basis.flux.denominator, basis.flux.numerator
    angles = basis.angles
    devs = []
    for (j, k), entry in eigenphase_table(basis).items():
        want1 = cmath.exp(1j * (angles.alpha1 - 2 * math.pi * j * n) / m)
        devs += [
            abs(entry["d1_phase"] - want1),
            entry["d1_spread"],
            0.0 if entry["d2_target"] == ((j - 1) % m, k) else 1.0,
            abs(entry["d2_phase"] - cmath.exp(1j * angles.alpha2 / m)),
        ]
    return float(np.max(devs))  # np.max, unlike max, keeps a NaN


def center_eigen_residual(basis: LLLBasis) -> float:
    """Max-grid residual of the central relations
    D1^M Psi = e^{i*alpha1} Psi and D2^M Psi = e^{i*alpha2} Psi on the
    5-by-5 :func:`unit_cell_grid` for the worst of the K states, relative
    to the largest ``|Psi|`` there (hundreds at large ``Im tau``)."""
    w, wbar = unit_cell_grid(basis.tau)
    states = basis.field
    base = states.evaluate(w, wbar)
    m = basis.flux.denominator
    res = []
    for index, alpha in ((1, basis.angles.alpha1), (2, basis.angles.alpha2)):
        op = elementary_translation(basis, index)
        f = states
        for _ in range(m):
            f = op(f)
        res.append(np.max(np.abs(f.evaluate(w, wbar) - cmath.exp(1j * alpha) * base)))
    return float(np.max(res) / np.max(np.abs(base)))  # np.max, unlike max, keeps a NaN


def gram_rank(basis: LLLBasis) -> int:
    """Numerical rank of the state sample matrix on the basis's own fit
    grid: number of singular values above 1e-8 times the largest, read
    from the fits' one :attr:`~LLLBasis._fit_svd`."""
    s = basis._fit_svd[1]
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
