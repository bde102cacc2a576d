import cmath
import math

import mpmath
import numpy as np
import pytest

from nctorus.errors import TruncationError, UnsupportedConventionError
from nctorus.theta import (
    ThetaSpec,
    TruncationPolicy,
    character,
    dedekind_eta,
    _nmax_certified,
    _peak_window,
    orthogonality_residual,
    quasi_periodicity_residual,
    s_transform_residual,
    t_transform_residual,
    theta,
    theta_derivative,
    theta_dz,
    truncation_bound,
)

# value of eta(i), 50-digit oracle via the product (= Gamma(1/4)/(2*pi^(3/4)))
ETA_I = 0.7682254223260566590025942
# eta at a generic interior point, same oracle
ETA_GEN = 0.7477521995829028217942392 + 0.05813720405228364264377134j

TAUS = [1j, 0.3 + 1.1j, 2j]


def naive_theta(level, residue, z, tau, n_range=60, deriv=0):
    """Reference implementation: direct float summation, no vectorization."""
    total = 0.0 + 0.0j
    for n in range(-n_range, n_range + 1):
        a = n + residue / level
        term = cmath.exp(1j * math.pi * tau * level * a * a + 2j * math.pi * level * z * a)
        if deriv:
            term *= (2j * math.pi * level * a) ** deriv
        total += term
    return total


def test_spec_validation():
    assert ThetaSpec(6, 8).residue == 2  # reduced mod level
    assert ThetaSpec(6, -1).residue == 5
    with pytest.raises(ValueError):
        ThetaSpec(0, 0)
    with pytest.raises(ValueError):
        TruncationPolicy(epsilon=2.0)
    with pytest.raises(ValueError):
        TruncationPolicy(epsilon=1e-12, max_terms=1)


def test_worked_truncation_example():
    # eps = 1e-12, K = 1, z = 0, tau = i certifies with 4 terms per side
    assert truncation_bound(1, 0.0, 1j, 1e-12) == 4


def test_truncation_bound_monotone_and_honest():
    n_loose = truncation_bound(2, 0.3 + 0.4j, 0.3 + 1.1j, 1e-6)
    n_tight = truncation_bound(2, 0.3 + 0.4j, 0.3 + 1.1j, 1e-14)
    assert n_tight >= n_loose
    # the certificate is honest: adding more terms moves the value by < eps
    spec = ThetaSpec(2, 1)
    for eps in (1e-6, 1e-10):
        pol = TruncationPolicy(epsilon=eps)
        v = theta(spec, 0.3 + 0.4j, 0.3 + 1.1j, pol)
        v_ref = naive_theta(2, 1, 0.3 + 0.4j, 0.3 + 1.1j, n_range=80)
        assert abs(v - v_ref) < eps


def _closed_form_nmax(level, im_tau, im_z, eps, deriv_order=0):
    """Reference cutoff: closed-form candidates, a bump loop for the
    derivative weight, a walk down and a rounding guard."""
    k, b, h = float(level), float(im_tau), abs(float(im_z))
    c = 2.0 * math.pi * k * h
    pkb = math.pi * k * b
    log_eps = math.log(eps)
    ratio_log = math.log(2.0) if deriv_order == 0 else math.log(4.0 / 3.0)
    tail_factor = 4.0 if deriv_order == 0 else 8.0

    def certified(n):
        decay = pkb * (2 * n + 1) - c
        if deriv_order:
            decay -= deriv_order * math.log((n + 2.0) / (n + 1.0))
        log_term = -pkb * n * n + c * n
        if deriv_order:
            log_term += deriv_order * math.log(2.0 * math.pi * k * (n + 1.0))
        return decay >= ratio_log and math.log(tail_factor) + log_term < log_eps

    n_ratio = (ratio_log + c) / (2.0 * pkb) + 0.5
    disc = c * c + 4.0 * pkb * (math.log(tail_factor) - log_eps)
    n_bound = (c + math.sqrt(disc)) / (2.0 * pkb)
    n = max(1, math.ceil(n_ratio), math.ceil(n_bound))
    if deriv_order:
        for _ in range(64):
            if certified(n):
                break
            n += max(1, n // 8)
    while n > 1 and certified(n - 1):
        n -= 1
    if not certified(n):
        n += 1
    return n


def test_scanned_cutoff_matches_closed_form_reference():
    got, want = [], []
    for level in (1, 2, 3, 6, 35, 77, 300):
        for b in np.geomspace(3e-3, 100.0, 9):
            for h in (0.0, 0.4 * b, 3.0 * b):
                for eps in (0.5, 1e-12, 1e-300):
                    for order in range(4):
                        got.append(_nmax_certified(level, b, h, eps, order))
                        want.append(_closed_form_nmax(level, b, h, eps, order))
    assert got == want
    # a tiny Im tau needs ~1e8 terms: the scan starts next to them
    assert _nmax_certified(1, 1e-9, 0.0, 1e-12) == _closed_form_nmax(1, 1e-9, 0.0, 1e-12)


@pytest.mark.parametrize("im_z", [1e300, math.inf, math.nan])
def test_unbounded_cutoff_raises_truncation_error(im_z):
    with pytest.raises(TruncationError):
        truncation_bound(3, complex(0.0, im_z), 1j, 1e-12)
    with pytest.raises(TruncationError):
        theta(ThetaSpec(3, 0), complex(0.0, im_z), 1j)


def test_truncation_cap_raises():
    pol = TruncationPolicy(epsilon=1e-12, max_terms=5)
    with pytest.raises(TruncationError) as exc:
        theta(ThetaSpec(1, 0), 0.0, 0.01j, pol)
    assert exc.value.required > 5
    assert exc.value.cap == 5


@pytest.mark.parametrize("level,residue", [(1, 0), (2, 1), (3, 2), (6, 2), (12, 7)])
def test_matches_naive_reference(level, residue):
    rng = np.random.default_rng(20)
    for tau in TAUS:
        for _ in range(4):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            ref = naive_theta(level, residue, z, tau)
            got = theta(ThetaSpec(level, residue), z, tau)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
            ref1 = naive_theta(level, residue, z, tau, deriv=1)
            got1 = theta_dz(ThetaSpec(level, residue), z, tau)
            assert abs(got1 - ref1) <= 1e-11 * max(1.0, abs(ref1))


def test_array_evaluation_matches_scalar_loop():
    spec = ThetaSpec(6, 1)
    tau = 0.3 + 1.1j
    zs = np.array([[0.1 + 0.2j, -0.3j], [0.7 - 0.1j, 1.5 + 0.4j]])
    arr = theta(spec, zs, tau)
    assert arr.shape == zs.shape
    for idx in np.ndindex(zs.shape):
        assert abs(arr[idx] - theta(spec, complex(zs[idx]), tau)) == 0.0


def test_frozen_value_at_lattice_point():
    # theta_0^1(0, i) = sqrt(2) * eta(i); both factors from the 50-digit oracle
    val = theta(ThetaSpec(1, 0), 0.0, 1j)
    assert abs(val - math.sqrt(2.0) * ETA_I) < 1e-15
    assert abs(val.imag) < 1e-16


@pytest.mark.parametrize("level", [1, 2, 3, 6, 12])
def test_quasi_periodicity(level):
    rng = np.random.default_rng(21)
    spec = ThetaSpec(level, rng.integers(0, level))
    for tau in TAUS:
        z = np.array([complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6)) for _ in range(10)])
        v = theta(spec, z, tau)
        # z -> z + 1 exact periodicity
        assert np.max(np.abs(theta(spec, z + 1.0, tau) - v)) < 1e-9 * np.max(np.abs(v))
        # z -> z + tau quasi-periodicity
        lhs = theta(spec, z + tau, tau)
        rhs = np.exp(-1j * np.pi * level * tau) * np.exp(-2j * np.pi * level * z) * v
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))


def test_residue_periodicity_is_exact():
    # same reduced spec, bitwise identical values
    tau = 0.3 + 1.1j
    a = theta(ThetaSpec(6, 2), 0.37 - 0.21j, tau)
    b = theta(ThetaSpec(6, 8), 0.37 - 0.21j, tau)
    assert a == b


def test_fractional_index_shifts():
    # the two index shifts behind the magnetic translation operators,
    # at M = 3, N = 2 (level 6); verified at 50 digits externally
    m, n, level = 3, 2, 6
    tau = 0.3 + 1.1j
    rng = np.random.default_rng(22)
    for r in range(level):
        spec = ThetaSpec(level, r)
        for _ in range(3):
            v = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            lhs = theta(spec, v - 1.0 / m, tau)
            rhs = cmath.exp(-2j * math.pi * r / m) * theta(spec, v, tau)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
            lhs = theta(spec, v - tau / m, tau)
            rhs = (
                cmath.exp(-1j * math.pi * tau * n / m)
                * cmath.exp(2j * math.pi * n * v)
                * theta(ThetaSpec(level, r - n), v, tau)
            )
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_theta_derivative_orders():
    spec = ThetaSpec(3, 1)
    tau = 0.3 + 1.1j
    z = 0.21 + 0.13j
    assert theta_derivative(spec, z, tau, order=0) == theta(spec, z, tau)
    ref2 = naive_theta(3, 1, z, tau, deriv=2)
    assert abs(theta_derivative(spec, z, tau, order=2) - ref2) < 1e-10 * abs(ref2)
    # derivative consistency against central differences
    h = 1e-6
    fd = (theta(spec, z + h, tau) - theta(spec, z - h, tau)) / (2 * h)
    assert abs(theta_dz(spec, z, tau) - fd) < 1e-7 * max(1.0, abs(fd))


# --- peak-centred scaled evaluation -------------------------------------------

def mp_scaled_theta(level, residue, z, tau, log_scale, order=0):
    """``exp(log_scale) * theta^(order)(z)`` summed in 30-digit arithmetic
    over the 51 terms around the peak ``a* = -Im z / Im tau``."""
    with mpmath.workdps(30):
        z, tau, log_scale = mpmath.mpc(z), mpmath.mpc(tau), mpmath.mpc(log_scale)
        centre = int(mpmath.nint(-z.imag / tau.imag))
        total = mpmath.mpc(0)
        for n in range(centre - 25, centre + 26):
            a = n + mpmath.mpf(residue) / level
            expo = 1j * mpmath.pi * level * (tau * a * a + 2 * z * a) + log_scale
            total += mpmath.exp(expo) * (2j * mpmath.pi * level * a) ** order
        return complex(total)


def unit_envelope(level, z, tau):
    """A log-scale whose envelope ``exp(Re L + pi*K*(Im z)**2/Im tau)`` is
    1, with a phase so that its imaginary part is exercised too."""
    return -math.pi * level * z.imag**2 / tau.imag + 0.3j * z.real


# K * Im tau of about 2, 50, 200 and 300; the last lies beyond the benchmark
# box (Im tau <= 2, K <= 100), and at y = 2.7 the raw value is exp(6870)
@pytest.mark.parametrize("level, tau", [(1, 0.3 + 2.0j), (25, -0.2 + 2.0j),
                                        (100, 0.45 + 2.0j), (6, 0.1 + 50.0j)])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_scaled_theta_matches_high_precision_series(level, tau, order):
    y = np.array([-2.6, -0.4, 0.0, 0.37, 1.0, 2.7])
    z = np.linspace(-0.8, 0.9, y.size) + tau * y
    log_scale = unit_envelope(level, z, tau)
    spec = ThetaSpec(level, level // 3)
    got = theta_derivative(spec, z, tau, order=order, log_scale=log_scale)
    want = [mp_scaled_theta(level, spec.residue, zi, tau, li, order)
            for zi, li in zip(z, log_scale)]
    weight = (2.0 * math.pi * level * (np.abs(y) + 1.0)) ** order
    assert np.all(np.abs(got - want) <= 1e-11 * weight)
    if order == 0:
        assert np.array_equal(theta(spec, z, tau, log_scale=log_scale), got)


@pytest.mark.parametrize("epsilon", [1e-2, 1e-5, 1e-9])
@pytest.mark.parametrize("level, tau", [(1, 0.2 + 0.7j), (3, -0.4 + 1.3j), (20, 0.1 + 1.1j)])
@pytest.mark.parametrize("order", [0, 2])
def test_peak_window_tail_stays_below_its_stated_bound(epsilon, level, tau, order):
    # the stated bound for the window the kernel picked, relative to
    # (2 pi K)^p times the envelope: 2 p! c^p exp(-pi K b W^2) /
    # (1 - exp(-2 pi K b W))^(p+1), W = T/2, c = max|a*| + W + 1
    b = tau.imag
    rng = np.random.default_rng(3)
    z = rng.uniform(-1.0, 1.0, 12) + tau * rng.uniform(-3.0, 3.0, 12)
    log_scale = unit_envelope(level, z, tau)
    spec = ThetaSpec(level, level // 2)
    got = theta_derivative(spec, z, tau, TruncationPolicy(epsilon=epsilon), order=order,
                           log_scale=log_scale)
    want = [mp_scaled_theta(level, spec.residue, zi, tau, li, order)
            for zi, li in zip(z, log_scale)]
    peak = float(np.max(np.abs(z.imag / b)))
    half = 0.5 * _peak_window(level, b, peak, epsilon, order)
    bound = (2.0 * math.factorial(order) * (peak + half + 1.0) ** order
             * math.exp(-math.pi * level * b * half**2)
             / (1.0 - math.exp(-2.0 * math.pi * level * b * half)) ** (order + 1))
    assert bound < epsilon
    # plus the rounding of exponents up to pi*K*b*(max|a*| + 1)**2, about 600 here
    rounding = 1e-12 * (peak + 1.0) ** order
    assert np.max(np.abs(got - want)) / (2.0 * math.pi * level) ** order <= bound + rounding


def test_peak_window_counts_and_cap():
    # one term per point once K*b >= 37, two once K*b >= 9.1 (eps = 1e-12)
    assert [_peak_window(k, 1.0, 0.5, 1e-12) for k in (37, 36, 10, 9)] == [1, 2, 2, 3]
    with pytest.raises(TruncationError):
        theta(ThetaSpec(1, 0), 0.1j, 0.05j, TruncationPolicy(max_terms=3), log_scale=0.0)


def test_quasi_periodicity_residual_covers_level_k():
    assert quasi_periodicity_residual(6, 0.3 + 1.1j) < 1e-9
    # K * Im tau = 182: the raw level-91 series overflows on the
    # tau-shifted samples, the scaled one does not
    assert quasi_periodicity_residual(91, 0.3 + 2.0j) < 1e-9
    with np.errstate(all="ignore"):
        assert not np.isfinite(theta(ThetaSpec(91, 45), 0.5 + 3.9j, 0.3 + 2.0j))
    # at tau = 50i the scaled series of every level stays in double range
    res = quasi_periodicity_residual(6, 50j)
    assert math.isfinite(res) and res < 1e-9


# --- Dedekind eta ------------------------------------------------------------

def naive_eta(tau, nfactors=400):
    q = cmath.exp(2j * math.pi * tau)
    out = cmath.exp(1j * math.pi * tau / 12.0)
    for n in range(1, nfactors + 1):
        out *= 1.0 - q**n
    return out


def test_eta_frozen_values():
    assert abs(dedekind_eta(1j) - ETA_I) < 1e-15
    assert abs(dedekind_eta(0.3 + 1.1j) - ETA_GEN) < 1e-15


def test_eta_matches_naive_product():
    rng = np.random.default_rng(23)
    for _ in range(10):
        tau = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.5))
        assert abs(dedekind_eta(tau) - naive_eta(tau)) < 1e-13


def test_eta_shift_equation():
    rng = np.random.default_rng(24)
    for _ in range(20):
        tau = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.3, 2.5))
        lhs = dedekind_eta(tau + 1.0)
        rhs = cmath.exp(1j * math.pi / 12.0) * dedekind_eta(tau)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_eta_shift_equation_beyond_principal_strip():
    # regression guard: the leading factor must be exp(i*pi*tau/12), not a
    # principal 24th root of q, or this fails with an O(1) residual
    tau = 1.3 + 1.1j
    lhs = dedekind_eta(tau)
    rhs = cmath.exp(1j * math.pi / 12.0) * dedekind_eta(tau - 1.0)
    assert abs(lhs - rhs) < 1e-13


@pytest.mark.parametrize("tau", [120j, 0.3 + 500j])
def test_eta_where_q_underflows(tau):
    # exp(2*pi*i*tau) underflows to 0 once Im tau > 118.5: the product is 1
    with mpmath.workdps(30):
        want = complex(mpmath.eta(mpmath.mpc(tau)))
    assert abs(dedekind_eta(tau) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("tau", [1e-4j, 3000j])
def test_eta_underflow_raises(tau):
    with pytest.raises(FloatingPointError):
        dedekind_eta(tau)


def test_eta_inversion_equation():
    rng = np.random.default_rng(25)
    for _ in range(20):
        tau = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.5))
        lhs = dedekind_eta(-1.0 / tau)
        rhs = cmath.sqrt(-1j * tau) * dedekind_eta(tau)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


# --- characters and transforms ----------------------------------------------

def test_character_reference_point():
    assert abs(character(ThetaSpec(1, 0), 0.0, 1j) - math.sqrt(2.0)) < 1e-14


@pytest.mark.parametrize("level", [2, 4, 6, 12])
def test_t_transform_even_levels(level):
    rng = np.random.default_rng(26)
    for r in range(0, level, max(1, level // 3)):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        assert t_transform_residual(ThetaSpec(level, r), z, 0.3 + 1.1j) < 1e-12


@pytest.mark.parametrize("level", [1, 3, 5])
def test_t_transform_rejects_odd_levels(level):
    with pytest.raises(UnsupportedConventionError):
        t_transform_residual(ThetaSpec(level, 0), 0.1, 1j)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 6])
def test_s_transform(level):
    rng = np.random.default_rng(27)
    for tau in (1j, 0.3 + 1.1j):
        for r in range(level):
            z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
            assert s_transform_residual(ThetaSpec(level, r), z, tau) < 1e-11


def test_orthogonality_residual():
    for level in range(1, 25):
        assert orthogonality_residual(level) < 1e-12
