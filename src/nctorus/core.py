"""Geometric value types for the torus: modular parameter, flux data,
complex structure, squeezing, and fundamental-domain reduction.

Conventions
-----------
The torus is the unit cell spanned by ``1`` and ``tau`` (``Im tau > 0``),
with complex coordinate ``z = x + tau*y`` for ``(x, y)`` in ``[0,1)^2``.
The magnetic flux through the cell is the rational ``kappa = N/M`` in
lowest terms, and ``K = M*N`` is the level of the associated theta
functions.  The magnetic length is fixed to 1, which makes the cell edge

    l0 = sqrt(2*pi*kappa / Im(tau)).

A point ``tau`` of the upper half-plane is equivalently described by a
squeeze pair ``(r, phi)`` through

    cosh(2r)            = (1 + |tau|^2) / (2 Im tau)
    sinh(2r) * cos(phi) = (1 - |tau|^2) / (2 Im tau)
    sinh(2r) * sin(phi) = -Re(tau) / Im(tau)

with ``phi := 0`` whenever ``r == 0`` (the point ``tau = i``).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModularParameter",
    "Flux",
    "ComplexStructure",
    "SqueezeParams",
    "VacuumAngles",
    "as_tau",
    "complex_structure_from_tau",
    "squeeze_from_tau",
    "tau_from_squeeze",
    "reduce_to_fundamental_domain",
    "apply_modular_word",
    "in_fundamental_domain",
    "eigenbasis_change",
    "hyperbolic_conjugator",
    "squeeze_roundtrip_residual",
]


@dataclass(frozen=True)
class ModularParameter:
    """Point of the upper half-plane, stored as ``re + i*im``."""

    re: float
    im: float

    def __post_init__(self):
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))
        if not (self.im > 0.0) or not math.isfinite(self.im) or not math.isfinite(self.re):
            raise ValueError(
                "modular parameter must satisfy Im(tau) > 0, got %r + %r i"
                % (self.re, self.im)
            )

    @classmethod
    def from_complex(cls, tau) -> "ModularParameter":
        tau = complex(tau)
        return cls(tau.real, tau.imag)

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @property
    def abs2(self) -> float:
        return self.re * self.re + self.im * self.im


def as_tau(tau) -> ModularParameter:
    """Coerce a complex number or ModularParameter to a ModularParameter."""
    if isinstance(tau, ModularParameter):
        return tau
    return ModularParameter.from_complex(tau)


@dataclass(frozen=True)
class Flux:
    """Rational flux ``kappa = numerator/denominator`` in lowest terms.

    ``numerator`` is written ``N`` and ``denominator`` ``M`` throughout;
    the theta level is ``K = M*N``.
    """

    numerator: int
    denominator: int

    def __post_init__(self):
        try:
            n = operator.index(self.numerator)
            m = operator.index(self.denominator)
        except TypeError:
            raise ValueError("flux must be a pair of integers") from None
        object.__setattr__(self, "numerator", n)
        object.__setattr__(self, "denominator", m)
        if n < 1 or m < 1:
            raise ValueError("flux integers must be positive, got N=%r M=%r" % (n, m))
        if math.gcd(n, m) != 1:
            raise ValueError("flux N/M must be in lowest terms: gcd(%d, %d) != 1" % (n, m))

    @property
    def level(self) -> int:
        return self.numerator * self.denominator

    @property
    def kappa(self) -> float:
        return self.numerator / self.denominator


def _check_square(mat, name):
    mat = np.asarray(mat)
    if mat.shape != (2, 2):
        raise ValueError("%s must be a 2x2 matrix, got shape %s" % (name, mat.shape))
    return mat


@dataclass(frozen=True)
class ComplexStructure:
    """Real 2x2 matrix squaring to minus the identity, unit determinant."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _check_square(self.matrix, "complex structure").astype(float)
        object.__setattr__(self, "matrix", mat)
        with np.errstate(all="ignore"):  # a non-finite entry is rejected below, not warned of
            dev = np.max(np.abs(mat @ mat + np.eye(2)))
            det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        if not dev <= 1e-10:  # NaN entries fail too
            raise ValueError("matrix does not square to -I (deviation %.3e)" % dev)
        if not abs(det - 1.0) <= 1e-10:
            raise ValueError("complex structure must have det 1, got %.17g" % det)


@dataclass(frozen=True)
class SqueezeParams:
    """Squeeze magnitude ``r >= 0`` and angle ``phi`` in ``[0, 2*pi)``."""

    r: float
    phi: float

    def __post_init__(self):
        if not math.isfinite(float(self.phi)):
            raise ValueError("squeeze angle must be finite, got %r" % (self.phi,))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))
        if not self.r >= 0.0:  # NaN fails too
            raise ValueError("squeeze magnitude must be >= 0, got %r" % self.r)


@dataclass(frozen=True)
class VacuumAngles:
    """Pair of boundary phases (defined mod 2*pi).

    The stored representatives are used as-is when fractional phases
    ``exp(i*alpha/M)`` are formed, so callers should pass the
    representative they mean (normally in ``[0, 2*pi)``).
    """

    alpha1: float = 0.0
    alpha2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha1", float(self.alpha1))
        object.__setattr__(self, "alpha2", float(self.alpha2))


def complex_structure_from_tau(tau) -> ComplexStructure:
    """Complex structure of the cell basis (1, tau) in (x, y) coordinates.

    Multiplication by ``i`` on ``z = x + tau*y`` acts on ``(x, y)`` by

        J = (1/Im tau) [[Re tau, |tau|^2], [-1, -Re tau]].
    """
    t = as_tau(tau)
    a, b = t.re, t.im
    mat = np.array([[a, t.abs2], [-1.0, -a]]) / b
    return ComplexStructure(mat)


def squeeze_from_tau(tau) -> SqueezeParams:
    """Squeeze parameters (r, phi) of the modular parameter ``tau``."""
    t = as_tau(tau)
    a, b = t.re, t.im
    cosh2r = (1.0 + t.abs2) / (2.0 * b)
    # cosh2r >= 1 always; clamp against rounding at tau ~ i
    r = 0.5 * math.acosh(max(cosh2r, 1.0))
    if math.sinh(2.0 * r) == 0.0:
        return SqueezeParams(0.0, 0.0)
    # atan2 of (sinh2r*sin(phi), sinh2r*cos(phi)); positive common factor
    # sinh2r drops out.
    phi = math.atan2(-a / b, (1.0 - t.abs2) / (2.0 * b))
    return SqueezeParams(r, phi)


def tau_from_squeeze(params: SqueezeParams) -> ModularParameter:
    """Inverse of :func:`squeeze_from_tau` (exact in exact arithmetic)."""
    r, phi = params.r, params.phi
    c2, s2 = math.cosh(2.0 * r), math.sinh(2.0 * r)
    y = 1.0 / (c2 + s2 * math.cos(phi))
    x = -y * s2 * math.sin(phi)
    return ModularParameter(x, y)


# ---------------------------------------------------------------------------
# fundamental domain of the modular group
# ---------------------------------------------------------------------------

def in_fundamental_domain(tau) -> bool:
    """Membership test for the fundamental domain

        (|tau| > 1 and -1/2 < Re tau < 0)  union
        (|tau| >= 1 and 0 <= Re tau <= 1/2).
    """
    t = as_tau(tau)
    a = t.re
    n2 = t.abs2
    if -0.5 < a < 0.0:
        return n2 > 1.0
    if 0.0 <= a <= 0.5:
        return n2 >= 1.0
    return False


def apply_modular_word(word, tau) -> complex:
    """Apply a word of modular tokens to ``tau``, left-to-right.

    Tokens are strings: ``"S"`` acts as ``tau -> -1/tau`` and ``"T^n"``
    as ``tau -> tau + n`` (``n`` any nonzero integer).
    """
    t = as_tau(tau).value
    for tok in word:
        if tok == "S":
            t = -1.0 / t
        elif tok.startswith("T^"):
            t = t + int(tok[2:])
        else:
            raise ValueError("unknown modular token %r" % (tok,))
    return t


def reduce_to_fundamental_domain(tau):
    """Reduce ``tau`` to the fundamental domain.

    Returns ``(tau_reduced, word)`` where ``word`` is a tuple of tokens
    (see :func:`apply_modular_word`) such that applying the word to
    ``tau_reduced`` recovers ``tau``.  Points already in the domain
    return an empty word (the map is idempotent).
    """
    t = as_tau(tau).value
    steps = []  # operations applied to t, in order
    for _ in range(10_000):
        n = math.floor(t.real + 0.5)  # nearest integer, ties toward +inf
        if n != 0:
            t = t - n
            steps.append(("T", -n))
        if abs(t) < 1.0:
            t = -1.0 / t
            steps.append(("S", 0))
            continue
        break
    else:  # pragma: no cover - |t| grows strictly under the loop
        raise RuntimeError("fundamental-domain reduction did not converge")
    # boundary conventions: Re = -1/2 maps to +1/2; left unit-circle arc
    # maps to the right one.
    if t.real == -0.5:
        t = t + 1.0
        steps.append(("T", 1))
    if t.real < 0.0 and abs(abs(t) - 1.0) < 1e-15:
        t = -1.0 / t
        steps.append(("S", 0))
    word = []
    for kind, n in reversed(steps):
        if kind == "T":
            word.append("T^%d" % (-n))
        else:
            word.append("S")  # S is an involution on the half-plane
    return ModularParameter.from_complex(t), tuple(word)


# ---------------------------------------------------------------------------
# squeeze conjugation round trip
# ---------------------------------------------------------------------------

def eigenbasis_change() -> np.ndarray:
    """Basis change from (x, y) to the pair of complex frame components in
    which the reference complex structure (tau = i) is diag(i, -i)."""
    return np.array([[1.0, -1.0j], [1.0, 1.0j]])


def hyperbolic_conjugator(params: SqueezeParams) -> np.ndarray:
    """Unit-determinant hyperbolic rotation implementing the squeeze.

    Conjugating ``diag(i, -i)`` by this matrix yields the complex
    structure of ``tau(r, phi)`` in the eigenbasis frame.
    """
    r, phi = params.r, params.phi
    ch, sh = math.cosh(r), math.sinh(r)
    e = cmath.exp(1j * phi)
    return np.array([[ch, -e * sh], [-sh / e, ch]])


def squeeze_roundtrip_residual(tau) -> float:
    """Max-entry deviation of the squeeze round trip at ``tau``.

    Route: ``tau -> (r, phi) -> conjugated reference structure`` mapped
    back to (x, y) coordinates, compared against the direct formula of
    :func:`complex_structure_from_tau`.
    """
    t = as_tau(tau)
    params = squeeze_from_tau(t)
    b = hyperbolic_conjugator(params)
    j0 = np.diag([1j, -1j])
    conj = b @ j0 @ np.linalg.inv(b)
    p = eigenbasis_change()
    back = np.linalg.inv(p) @ conj @ p
    direct = complex_structure_from_tau(tau_from_squeeze(params)).matrix
    dev_basis = np.max(np.abs(back - direct))
    # also compare against the structure of the input tau itself
    dev_input = np.max(np.abs(back - complex_structure_from_tau(t).matrix))
    return float(max(dev_basis, dev_input))
