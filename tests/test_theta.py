import cmath
import importlib
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus import lll
from nctorus.core import ModularParameter, as_tau
from nctorus.errors import TruncationError, UnsupportedConventionError
from nctorus.theta import (
    ThetaSpec,
    TruncationPolicy,
    character,
    dedekind_eta,
    _nmax_certified,
    _peak_window,
    _theta_residue_norms,
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

# the module, which the package's ``theta`` function shadows
theta_module = importlib.import_module("nctorus.theta")

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
    with pytest.raises(ValueError, match="epsilon must lie in"):
        truncation_bound(1, 0.0, 1j, 2.0)


def test_worked_truncation_example():
    # eps = 1e-12, K = 1, z = 0, tau = i certifies with 4 terms per side
    assert truncation_bound(1, 0.0, 1j, 1e-12) == 4


@pytest.mark.parametrize("level, message", [(0, "a positive"), (-1, "a positive"),
                                            (2.5, "an integer"), ("3", "an integer")])
def test_truncation_bound_checks_its_level_as_the_spec_does(level, message):
    # a bad level is named, not met as a ZeroDivisionError, a math domain
    # error or a cutoff for a level no theta series has
    for make in (lambda: truncation_bound(level, 0.0, 1j, 1e-12), lambda: ThetaSpec(level, 0)):
        with pytest.raises(ValueError, match="level must be " + message):
            make()


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


def test_stacked_residues_equal_the_single_residue_loop():
    # a tuple of residues stacks the series on a leading axis; each row is
    # the single-residue value bit for bit, in both summation modes
    rng = np.random.default_rng(3)
    for level in (1, 6, 35, 99):
        residues = tuple(int(r) for r in rng.permutation(level)) + (level + 1,)
        stacked = ThetaSpec(level, residues)
        assert stacked.residue == residues[:-1] + (1 % level,)
        for tau in (0.3 + 1.1j, -0.2 + 1.7j, 0.01j, 50j):
            # raw values stay in range near the real axis; scaled ones on the cell
            z_raw = rng.random((2, 3)) + 0.01j * rng.random((2, 3))
            z_cell = rng.random(7) + tau * rng.random(7)
            scale = -math.pi * level * z_cell.imag**2 / tau.imag
            for z, log_scale in ((z_raw, None), (z_cell, scale), (0.3 + 0.001j, None)):
                for order in (0, 1, 2):
                    rows = theta_derivative(stacked, z, tau, order=order, log_scale=log_scale)
                    assert rows.shape == (len(residues),) + np.shape(z)
                    for r, row in zip(stacked.residue, rows):
                        single = theta_derivative(ThetaSpec(level, r), z, tau,
                                                  order=order, log_scale=log_scale)
                        assert np.array_equal(row, single)
    with pytest.raises(ValueError):
        ThetaSpec(3, (1, 1.5))


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
    with pytest.raises(ValueError, match="order must be >= 0"):
        theta_derivative(spec, z, tau, order=-1)
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


def relative_scale(level, z, tau, log_scale):
    """``log_scale`` relative to the envelope ``exp(Re L + pi*K*(Im z)**2/Im
    tau)``, the scale that :func:`_theta_residue_norms` takes."""
    return log_scale + math.pi * level * z.imag**2 / tau.imag


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


@pytest.mark.parametrize("level, tau", [(1, 0.3 + 2.0j), (6, -0.4 + 1.3j), (35, 0.01j),
                                        (12, 0.1 + 5.0j)])
@pytest.mark.parametrize("order", [0])
def test_grid_sum_is_the_pointwise_series_on_a_tensor_grid(level, tau, order):
    # the window table, summed against its phases exp(2*pi*i*K*a*x), is
    # the pointwise series; columns reach past the cell, so each residue's
    # window union spans two peaks, and every residue rides in one call
    x = np.random.default_rng(5).uniform(0.0, 1.0, 7)
    c = tau * np.linspace(-0.3, 1.6, 5) + (0.05 - 0.02j)
    z = x[:, None] + c
    log_scale = unit_envelope(level, c, tau)
    spec = ThetaSpec(level, tuple(range(level)))
    a, expo = theta_module._grid_exponent(spec, c, tau, TruncationPolicy(),
                                          log_scale - 1j * math.pi * level * c**2 / tau)
    window = np.exp(expo)
    phase = np.exp(2j * math.pi * level * a[:, None, :] * x[:, None]) \
        * (2j * math.pi * level * a[:, None, :]) ** order
    got = np.einsum("rmc,rxm->rxc", window, phase)
    want = theta_derivative(spec, z, tau, order=order,
                            log_scale=np.broadcast_to(log_scale, z.shape))
    assert got.shape == want.shape == (level, 7, 5)
    scale = (2.0 * math.pi * level) ** order
    bound = 1e-12 * (np.max(np.abs(c.imag)) / tau.imag + 1.0) ** order
    assert np.max(np.abs(got - want)) / scale <= bound


@pytest.mark.parametrize("level, tau, n_x", [(1, 0.3 + 2.0j, 8), (6, -0.4 + 0.3j, 8),
                                             (6, 0.1j, 6), (12, 0.1 + 0.2j, 9), (35, 0.01j, 8)])
def test_grid_norms_fold_the_grid_values_on_midpoint_nodes(level, tau, n_x):
    # a row's terms alias onto their classes of frequency mod n_x: the
    # norms of the window table, read from its exponents over the table's
    # power of two, are the sum of |value|**2 over the pointwise series on
    # the midpoint nodes, where the terms of one class (all of them at
    # n_x = K = 6) cancel or add
    x = (np.arange(n_x) + 0.5) / n_x
    c = tau * np.linspace(-0.3, 1.6, 5) + (0.05 - 0.02j)
    spec = ThetaSpec(level, tuple(range(level)))
    log_scale = unit_envelope(level, c, tau)
    a, expo = theta_module._grid_exponent(spec, c, tau, TruncationPolicy(),
                                          log_scale - 1j * math.pi * level * c**2 / tau)
    power = lll._scale_power(expo)
    got = lll._grid_exponent_norms(np.rint(level * a).astype(int), expo, n_x, level, power)
    got *= 4.0**power
    z = x[:, None] + c
    values = theta(spec, z, tau, log_scale=np.broadcast_to(log_scale, z.shape))
    want = np.sum(np.abs(values) ** 2, axis=(1, 2))
    assert got.shape == want.shape == (level,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


@pytest.mark.parametrize("level, tau, n_x", [(1, 0.3 + 2.0j, 8), (6, -0.4 + 0.3j, 8),
                                             (6, 0.1j, 6), (12, 0.1 + 0.2j, 9), (35, 0.01j, 8),
                                             (8, 0.17 + 0.8j, 16), (8, 0.8j, 16)])
def test_grid_exponent_norms_are_the_fold_of_the_window(level, tau, n_x):
    # |exp(E)|**2 = exp(2*Re E), and the fold's cross terms are the products
    # of the terms that alias: at level 8 on 16 nodes a row's terms repeat
    # their class every 2 terms, at K = n_x = 6 every term; only the row of
    # level 1 has no aliases.  The norms are the diagonal of the class
    # products of the exponentiated table, which the Gram matrix sums
    x = (np.arange(n_x) + 0.5) / n_x
    c = tau * np.linspace(-0.3, 1.6, 5) + (0.05 - 0.02j)
    spec = ThetaSpec(level, tuple(range(level)))
    log_scale = unit_envelope(level, c, tau)
    a, expo = theta_module._grid_exponent(spec, c, tau, TruncationPolicy(),
                                          log_scale - 1j * math.pi * level * c**2 / tau)
    freq = np.rint(level * a).astype(int)
    period = n_x // math.gcd(level, n_x)
    assert (expo.shape[1] > period) == (level > 1)
    got = lll._grid_exponent_norms(freq, expo, n_x, level)
    classes = lll._grid_classes(freq, np.exp(expo), n_x)
    fold = lll._grid_overlaps(classes, classes).diagonal().real
    assert np.max(np.abs(got - fold) / fold) <= 1e-15
    z = x[:, None] + c
    values = theta(spec, z, tau, log_scale=np.broadcast_to(log_scale, z.shape))
    want = np.sum(np.abs(values) ** 2, axis=(1, 2))
    assert got.shape == want.shape == (level,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
    # a NaN exponent is a NaN norm of its row alone
    expo[-1, expo.shape[1] // 2, 2] = np.nan
    got = lll._grid_exponent_norms(freq, expo, n_x, level)
    assert np.isnan(got[-1]) and np.isfinite(got[:-1]).all()


@st.composite
def _window_columns(draw):
    level = draw(st.integers(1, 40))
    residues = tuple(draw(st.lists(st.integers(0, level - 1), min_size=1, max_size=6)))
    tau = complex(draw(st.floats(-0.5, 0.5)), 10.0 ** draw(st.floats(-2.0, 2.0)))
    ys = draw(st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=12))
    gamma = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    epsilon = 10.0 ** -draw(st.floats(2.0, 15.0))
    return ThetaSpec(level, residues), tau, tau * np.array(ys) + gamma, epsilon


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_window_columns())
def test_window_runs_span_the_columns_own_windows(case):
    # each residue's run starts at the least first term over its columns
    # and ends at the largest's window, read off the least and the largest
    # a* alone; each column keeps exactly its own terms
    spec, tau, c, epsilon = case
    a, expo = theta_module._grid_exponent(spec, c, tau, TruncationPolicy(epsilon), 0.0)
    a_star = -c.imag / tau.imag
    own = _peak_window(spec.level, tau.imag, np.max(np.abs(a_star)), epsilon)
    r_k = np.array(spec.residue)[:, None] / spec.level
    start = np.ceil(a_star - r_k - 0.5 * own)
    low, high = start.min(axis=1), start.max(axis=1)
    count = own + int(np.max(high - low))
    assert a.shape == (len(spec.residue), count) and expo.shape == a.shape + c.shape
    assert np.array_equal(a, (low[:, None] + np.arange(count, dtype=float)) + r_k)
    m = np.arange(count)[:, None] - (start - low[:, None])[:, None, :]
    assert np.array_equal(expo.real > -np.inf, (m >= 0) & (m < own))


@pytest.mark.parametrize("level", [1, 2, 6, 35, 77])
@pytest.mark.parametrize("tau", [0.3 + 1.1j, -0.5 + 2.0j, 0.45 + 0.3j, 0.003j, 0.01j,
                                 50j, 1e3j])
@pytest.mark.parametrize("epsilon", [1e-6, 1e-12, 1e-15])
def test_residue_norms_are_the_per_residue_loop(level, tau, epsilon):
    # points a little beyond the cell; each residue's terms have modulus
    # sum ``size[r]``, the series at (i Im z, i Im tau) with log-scale Re L
    rng = np.random.default_rng(level)
    z = rng.uniform(0.0, 1.0, 24) + 0.05 + tau * rng.uniform(-0.3, 1.3, 24)
    log_scale = unit_envelope(level, z, tau)
    policy = TruncationPolicy(epsilon=epsilon)
    specs = [ThetaSpec(level, r) for r in range(level)]
    want = sum(np.abs(theta(s, z, tau, policy, log_scale=log_scale)) ** 2 for s in specs)
    size = np.array([theta(s, 1j * z.imag, 1j * tau.imag, policy, log_scale=log_scale.real).real
                     for s in specs])
    got = _theta_residue_norms(level, [0.0], z, tau, policy,
                               relative_scale(level, z, tau, log_scale))[0]
    # each side leaves out terms of modulus sum below epsilon (the envelope
    # is 1), the same terms or fewer on the kernel's side; and each term's
    # exponent, up to ``expo`` in size, rounds to an ulp of it on both sides
    reach = np.abs(z.imag / tau.imag) + 0.5 * _peak_window(level, tau.imag, 0.0, epsilon) + 1.0
    expo = (math.pi * level * abs(tau) * reach**2 + 2.0 * math.pi * level * np.abs(z) * reach
            + np.abs(log_scale))
    truncation = 2.0 * epsilon * size.sum(axis=0) + level * epsilon**2
    rounding = 2.0 * np.finfo(float).eps * expo * np.sum(size**2, axis=0)
    assert got.shape == z.shape
    assert np.all(np.abs(got - want) <= truncation + rounding)


def test_residue_norms_blocks_keep_each_column(monkeypatch):
    # the points of a 30-point line as columns under four rows: a NaN scale
    # spoils its own column only, and is not summed to 0, and every node
    # reads the same bits at any block of columns (exp warns of the NaN, as
    # theta's does)
    tau = 0.1 + 1.3j
    x = np.array([0.0, 0.25, 0.6, 0.93])
    c = np.linspace(0.0, 1.0, 30) + tau * np.linspace(0.0, 1.0, 30)
    log_scale = relative_scale(6, c, tau, unit_envelope(6, c, tau))
    log_scale[7] = np.nan
    with np.errstate(invalid="ignore"):
        whole = _theta_residue_norms(6, x, c, tau, TruncationPolicy(), log_scale)
        assert whole.shape == (4, 30)
        assert np.all(np.isnan(whole[:, 7]))
        assert np.all(np.isfinite(np.delete(whole, 7, axis=1)))
        for elements in (1, 40, 100):
            monkeypatch.setattr(theta_module, "_RESIDUE_BLOCK_ELEMENTS", elements)
            blocked = _theta_residue_norms(6, x, c, tau, TruncationPolicy(), log_scale)
            assert np.array_equal(blocked, whole, equal_nan=True)


@pytest.mark.parametrize("level, tau, epsilon", [(72, 0.3 + 1.1j, 1e-12),
                                                 (24, -0.2 + 1.2j, 1e-12),
                                                 (2, -0.1 + 241j, 5e-324),
                                                 (6, 0.001j, 1e-12)])
def test_residue_norms_on_a_tensor_grid_are_the_per_residue_loop(level, tau, epsilon):
    # every node x_i + c_j of a 9 x 7 grid, one window n = 1, a split
    # window n = 3, the one-exponential steps and a window of n = 79, each
    # against the sum of |theta|**2 over the residues at that node, to the
    # bound of the pointwise test
    policy = TruncationPolicy(epsilon=epsilon)
    x = (np.arange(9) + 0.5) / 9
    c = tau * np.linspace(-0.3, 1.3, 7) + (0.05 - 0.02j)
    log_scale = unit_envelope(level, c, tau)
    z = x[:, None] + c
    specs = [ThetaSpec(level, r) for r in range(level)]
    want = sum(np.abs(theta(s, z, tau, policy, log_scale=np.broadcast_to(log_scale, z.shape))) ** 2
               for s in specs)
    size = np.array([theta(s, 1j * c.imag, 1j * tau.imag, policy, log_scale=log_scale.real).real
                     for s in specs])
    got = _theta_residue_norms(level, x, c, tau, policy, relative_scale(level, c, tau, log_scale))
    reach = np.abs(c.imag / tau.imag) + 0.5 * _peak_window(level, tau.imag, 0.0, epsilon) + 1.0
    expo = (math.pi * level * abs(tau) * reach**2 + 2.0 * math.pi * level * np.abs(z) * reach
            + np.abs(log_scale))
    truncation = 2.0 * epsilon * size.sum(axis=0) + level * epsilon**2
    rounding = 2.0 * np.finfo(float).eps * expo * np.sum(size**2, axis=0)
    assert got.shape == z.shape == (9, 7)
    assert np.all(np.abs(got - want) <= truncation + rounding)


@pytest.mark.parametrize("level", [1, 6, 77])
def test_residue_norms_stay_in_range_at_large_im_tau(level):
    # the partition integrand's scale at 1e3i, with the raw series near
    # exp(pi K 1e3): every magnitude is taken relative to the envelope,
    # so nothing overflows and no 0 * inf appears
    tau = 0.2 + 1e3j
    rng = np.random.default_rng(2)
    x, y = rng.uniform(0.0, 1.0, (2, 64))
    z = x + tau * y + 0.01
    half = -math.pi * level * tau.imag * y**2 - 0.7 * tau.imag * y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _theta_residue_norms(level, [0.0], z, tau, TruncationPolicy(),
                                   relative_scale(level, z, tau, half))
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)


@pytest.mark.parametrize("level, tau, epsilon, count", [(72, 0.3 + 1.1j, 1e-12, 1),
                                                        (24, -0.2 + 1.2j, 1e-12, 2),
                                                        (2, 0.1 + 0.8j, 1e-12, 5),
                                                        (6, 0.001j, 1e-12, 78),
                                                        (1, 0.3 + 241j, 1e-100, 2),
                                                        (2, -0.1 + 241j, 5e-324, 2),
                                                        (4, 0.2 + 233j, 5e-324, 2)])
def test_residue_norms_are_the_brute_force_sum(level, tau, epsilon, count):
    # the K*n integers m nearest each point's peak K*a*, n the peak window
    # rounded up to odd, summed by class m mod K in 40 digits: the kernel
    # sums the same terms, to round-off of sum_m |term_m|**2; the last three
    # windows take the one-exponential steps, pi*Im(tau)*(n//2) > 700;
    # the last two points' peaks lie next to a class's edge, where |V**s|
    # is largest
    assert _peak_window(level, tau.imag, 0.0, epsilon) == count
    n = count | 1
    rng = np.random.default_rng(count)
    y = np.append(rng.uniform(-0.2, 1.2, 5), (-0.5 + 1e-9, 0.5 - 1e-9))
    z = rng.uniform(0.0, 1.0, y.size) + tau * y + 0.01
    scale = rng.normal(0.0, 0.5, y.size)
    got = _theta_residue_norms(level, [0.0], z, tau, TruncationPolicy(epsilon=epsilon), scale)[0]
    with mpmath.workdps(40):
        t = mpmath.mpc(tau.real, tau.imag)
        for point, scale_i, value in zip(z, scale, got):
            m0 = math.ceil(-level * point.imag / tau.imag - 0.5 * level * n)
            # the relative scale less the envelope's exponent
            log_scale = mpmath.mpf(scale_i) - mpmath.pi * level * mpmath.mpf(point.imag)**2 / t.imag
            terms = [mpmath.exp(1j * mpmath.pi * t * m * m / level
                                + 2j * mpmath.pi * mpmath.mpc(point.real, point.imag) * m
                                + log_scale)
                     for m in range(m0, m0 + level * n)]
            want = sum(abs(sum(terms[j::level]))**2 for j in range(level))
            size = sum(abs(term)**2 for term in terms)
            assert abs(value - want) <= 1e-13 * size


@pytest.mark.parametrize("epsilon, levels", [(1e-12, (1, 2, 6, 35, 91)),
                                             (1e-60, (1, 2, 6, 35)),
                                             (1e-100, (1, 2)),
                                             (5e-324, (1, 2, 3, 5, 6, 35))])
def test_residue_norms_stay_in_range_at_every_window(epsilon, levels):
    # from the window of 1e-3i to one term: |V**s| <= exp(pi*b*|s|) and
    # D <= exp(-pi*b*|s|) stay in double range while pi*b*(n//2) < 700,
    # at every level for epsilon >= 1e-60 and from K = 5 at any epsilon;
    # beyond, at K <= 4 and Im tau above 230, the steps are one exponential
    # (of these points, at K = 1 from 258i at 1e-100 and K <= 3 at 5e-324);
    # the last two points' peaks lie next to a class's edge
    rng = np.random.default_rng(3)
    policy = TruncationPolicy(epsilon=epsilon)
    for level in levels:
        for b in np.geomspace(1e-3, 3e3, 80):
            tau = complex(0.3, b)
            y = np.append(rng.uniform(-0.3, 1.3, 16), (-0.5 + 1e-9, 0.5 - 1e-9))
            z = rng.uniform(-0.2, 1.2, y.size) + tau * y
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _theta_residue_norms(level, [0.0], z, tau, policy,
                                           rng.uniform(-1.0, 1.0, y.size))
            assert np.all(np.isfinite(got)) and np.all(got >= 0.0)


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


def _quasi_periodicity_loop(level, tau, policy=TruncationPolicy()):
    """:func:`quasi_periodicity_residual` as 18 theta calls: each level's
    points, their shift by 1 and their shift by tau, one call each."""
    t = as_tau(tau)
    rng = np.random.default_rng(0)
    res = []
    for k in (1, 2, 3, 6, 12, level):
        spec = ThetaSpec(k, k // 2)
        zs = rng.random(25) + t.value * rng.random(25)

        def ev(z):
            return theta(spec, z, t, policy, log_scale=-math.pi * k * z.imag**2 / t.im)

        f = ev(zs)
        res.append(theta_module._relative(np.max(np.abs(ev(zs + 1.0) - f)), np.max(np.abs(f))))
        rhs = np.exp(-1j * math.pi * k * t.re - 2j * math.pi * k * zs.real) * f
        res.append(theta_module._relative(np.max(np.abs(ev(zs + t.value) - rhs)),
                                          np.max(np.abs(rhs))))
    return float(np.max(res))


@pytest.mark.parametrize("level, tau", [(24, 0.2 + 1.4j), (2, 0.01j), (35, -0.3 + 0.85j),
                                        (77, 50j), (6, 1e5j)])
def test_quasi_periodicity_is_one_theta_call_per_level(monkeypatch, level, tau):
    # the three point sets of a level share one series, and the residual
    # is the 18-call loop's bit for bit (NaN at 1e5i, where all underflow)
    want = _quasi_periodicity_loop(level, tau)
    sizes, series = [], theta_module.theta

    def counting(spec, z, *args, **kwargs):
        sizes.append(np.size(z))
        return series(spec, z, *args, **kwargs)

    monkeypatch.setattr(theta_module, "theta", counting)
    got = quasi_periodicity_residual(level, tau)
    assert sizes == [75] * 6
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


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


def _eta_check_points(tau):
    """The 66 moduli of ``eta_functional_residual`` at ``tau``, as a loop
    over its points built them: each point, its shift by 1, its inverse."""
    rng = np.random.default_rng(0)
    seeded = [ModularParameter(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.5))
              for _ in range(20)]
    t0 = as_tau(tau)
    return [z for t in seeded + [t0, as_tau(-1.0 / t0.value)]
            for z in (t.value, ModularParameter(t.re + 1.0, t.im).value,
                      as_tau(-1.0 / t.value).value)]


def _eta_factor_count(tau, epsilon=1e-12):
    aq = abs(cmath.exp(2j * math.pi * tau))
    return 0 if aq == 0.0 else max(1, math.ceil(math.log(0.5 * epsilon * (1.0 - aq)) / math.log(aq)))


def _one_point_eta(tau):
    """The one-point product: leading factor times ``np.prod`` of the
    certified factors."""
    q = cmath.exp(2j * math.pi * tau)
    factors = 1.0 - q ** np.arange(1, _eta_factor_count(tau) + 1)
    return cmath.exp(1j * math.pi * tau / 12.0) * complex(np.prod(factors))


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("tau, longest", [(0.2 + 1.4j, 12), (0.01j, 496), (1e-3j, 5316)])
def test_eta_array_is_the_one_point_product_bit_for_bit(tau, longest):
    # the eta check's 66 moduli; their runs of factors differ in length,
    # from a handful up to the run's own tau
    points = _eta_check_points(tau)
    assert max(map(_eta_factor_count, points)) == longest
    values = dedekind_eta(points)
    assert values.shape == (66,)
    np.testing.assert_array_equal(_bits(values), _bits([_one_point_eta(t) for t in points]))
    np.testing.assert_array_equal(_bits(values), _bits([dedekind_eta(t) for t in points]))
    stacked = dedekind_eta(np.reshape(points, (22, 3)))
    assert stacked.shape == (22, 3)
    np.testing.assert_array_equal(_bits(stacked.ravel()), _bits(values))


def test_eta_array_where_q_underflows():
    # at 120i and 0.3+500i the product has no factor, between points that have
    points = [0.3 + 1.1j, 120j, 1j, 0.3 + 500j]
    assert [_eta_factor_count(t) for t in points][1::2] == [0, 0]
    np.testing.assert_array_equal(_bits(dedekind_eta(points)),
                                  _bits([_one_point_eta(t) for t in points]))


def test_eta_array_raises_as_its_first_failing_point():
    # 3000i underflows; at a cap of 100 factors 0.01i, ahead of it, is too long
    batch = [1j, 0.01j, 3000j]
    with pytest.raises(FloatingPointError, match=re.escape("eta(3000j) underflows")):
        dedekind_eta(batch)
    with pytest.raises(TruncationError, match="needs 496 factors, cap is 100"):
        dedekind_eta(batch, TruncationPolicy(max_terms=100))
    with pytest.raises(ValueError, match="Im"):
        dedekind_eta([1j, -1j])


def test_eta_check_is_one_array_call(monkeypatch):
    shapes, eta = [], theta_module.dedekind_eta

    def counting(tau, *args):
        shapes.append(np.shape(tau))
        return eta(tau, *args)

    monkeypatch.setattr(theta_module, "dedekind_eta", counting)
    theta_module.eta_functional_residual(0.2 + 1.4j)
    assert shapes == [(22, 3)]


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
    with pytest.raises(ValueError, match="level must be positive"):
        orthogonality_residual(0)
