import math

import numpy as np
import pytest

from nctorus.core import (
    ComplexStructure,
    Flux,
    ModularParameter,
    SqueezeParams,
    VacuumAngles,
    apply_modular_word,
    complex_structure_from_tau,
    eigenbasis_change,
    hyperbolic_conjugator,
    in_fundamental_domain,
    reduce_to_fundamental_domain,
    squeeze_from_tau,
    squeeze_roundtrip_residual,
    tau_from_squeeze,
)

OMEGA0 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_modular_parameter_validation():
    ModularParameter(0.3, 1.1)
    with pytest.raises(ValueError):
        ModularParameter(0.0, 0.0)
    with pytest.raises(ValueError):
        ModularParameter(1.0, -2.0)
    with pytest.raises(ValueError):
        ModularParameter(math.nan, 1.0)
    assert ModularParameter.from_complex(2j).value == 2j


def test_flux_validation():
    f = Flux(2, 3)
    assert f.level == 6
    assert f.kappa == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        Flux(2, 4)  # not coprime
    with pytest.raises(ValueError):
        Flux(0, 3)
    with pytest.raises(ValueError):
        Flux(-1, 2)


def test_complex_structure_known_value():
    j = complex_structure_from_tau(1 + 1j).matrix
    assert np.allclose(j, [[1.0, 2.0], [-1.0, -1.0]], atol=1e-15)


def test_complex_structure_invariants():
    rng = np.random.default_rng(7)
    for _ in range(25):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        j = complex_structure_from_tau(tau).matrix
        assert np.max(np.abs(j @ j + np.eye(2))) < 1e-12
        assert abs(np.linalg.det(j) - 1.0) < 1e-12
        # orientation convention: on z = x + tau*y the matrix realizes
        # multiplication by -i (fixed by the normative value at tau = 1+i)
        x, y = j @ np.array([1.0, 0.0])
        assert abs((x + tau * y) + 1j) < 1e-12
        x, y = j @ np.array([0.0, 1.0])
        assert abs((x + tau * y) + 1j * tau) < 1e-12


def test_metric_and_compatibility():
    # J pairs with the symplectic form into a flat unit-volume metric g
    rng = np.random.default_rng(8)
    for _ in range(25):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        j = complex_structure_from_tau(tau).matrix
        g = j.T @ OMEGA0
        assert np.max(np.abs(g - g.T)) < 1e-12
        assert np.all(np.linalg.eigvalsh(g) > 0.0)
        assert abs(np.linalg.det(g) - 1.0) < 1e-12
        # J is an isometry of g
        assert np.max(np.abs(j.T @ g @ j - g)) < 1e-12
    j = complex_structure_from_tau(1 + 1j).matrix
    assert np.allclose(j.T @ OMEGA0, [[1.0, 1.0], [1.0, 2.0]])


def test_squeeze_frozen_oracle():
    # 50-digit solve of the defining scalar relations at tau = 0.5 + 2i
    s = squeeze_from_tau(0.5 + 2j)
    assert s.r == pytest.approx(0.385653729586628326850469, abs=1e-15)
    assert s.phi == pytest.approx(3.440091585175972516397771, abs=1e-15)


def test_squeeze_special_points():
    s = squeeze_from_tau(1j)
    assert s.r == 0.0 and s.phi == 0.0
    # pure-imaginary tau = exp(-2 r0) * i sits on the phi = 0 ray
    s = squeeze_from_tau(0.25j)
    assert s.phi == 0.0
    assert s.r == pytest.approx(math.log(2.0), abs=1e-14)
    s = squeeze_from_tau(4j)
    assert s.phi == pytest.approx(math.pi, abs=1e-14)
    assert s.r == pytest.approx(math.log(2.0), abs=1e-14)


def test_squeeze_inversion_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(50):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.1, 4))
        back = tau_from_squeeze(squeeze_from_tau(tau)).value
        assert abs(back - tau) < 1e-12 * max(1.0, abs(tau))
    for _ in range(50):
        p = SqueezeParams(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi))
        q = squeeze_from_tau(tau_from_squeeze(p))
        assert abs(q.r - p.r) < 1e-12
        if p.r > 1e-8:
            assert abs((q.phi - p.phi + math.pi) % (2 * math.pi) - math.pi) < 1e-10


@pytest.mark.parametrize("make, message", [
    (lambda: Flux(1.5, 2), "flux must be a pair of integers"),
    (lambda: ComplexStructure(np.eye(3)), "must be a 2x2 matrix"),
    (lambda: ComplexStructure(np.eye(2)), "does not square to -I"),
    (lambda: ComplexStructure(np.full((2, 2), np.nan)), r"does not square to -I \(deviation nan"),
    (lambda: ComplexStructure([[0.0, math.inf], [-1e-300, 0.0]]), "does not square to -I"),
    (lambda: SqueezeParams(math.nan, 0.0), "magnitude must be >= 0, got nan"),
    (lambda: SqueezeParams(0.5, math.nan), "angle must be finite, got nan"),
    (lambda: SqueezeParams(0.5, math.inf), "angle must be finite, got inf"),
    (lambda: apply_modular_word(["X"], 1j), "unknown modular token 'X'"),
], ids=["flux-float", "cs-3x3", "cs-identity", "cs-nan", "cs-inf", "squeeze-nan-r",
        "squeeze-nan-phi", "squeeze-inf-phi", "modular-token"])
def test_values_reject_what_they_cannot_hold(make, message):
    # NaN fails every comparison, so each check is written to fail on it,
    # and a non-finite matrix is rejected without a numpy warning
    with pytest.raises(ValueError, match=message):
        make()


def test_squeeze_params_normalization():
    p = SqueezeParams(0.5, 7.0)
    assert 0.0 <= p.phi < 2 * math.pi
    with pytest.raises(ValueError):
        SqueezeParams(-0.1, 0.0)


def test_hyperbolic_conjugator_properties():
    b = hyperbolic_conjugator(SqueezeParams(0.0, 0.0))
    assert np.allclose(b, np.eye(2))
    b = hyperbolic_conjugator(SqueezeParams(0.7, 1.3))
    assert abs(np.linalg.det(b) - 1.0) < 1e-14


def test_eigenbasis_diagonalizes_reference_point():
    p = eigenbasis_change()
    j = complex_structure_from_tau(1j).matrix
    assert np.max(np.abs(p @ j @ np.linalg.inv(p) - np.diag([1j, -1j]))) < 1e-14
    # the change-of-basis matrix is invertible with det 2i
    assert abs(np.linalg.det(p) - 2j) < 1e-15


def test_squeeze_roundtrip_residual():
    rng = np.random.default_rng(10)
    for _ in range(20):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.1, 4))
        assert squeeze_roundtrip_residual(tau) < 1e-12


def test_vacuum_angles_defaults():
    a = VacuumAngles()
    assert a.alpha1 == 0.0 and a.alpha2 == 0.0
    assert VacuumAngles(1.25, 2.5).alpha2 == 2.5


# --- fundamental domain -----------------------------------------------------

def test_in_fundamental_domain_boundaries():
    assert in_fundamental_domain(1j)
    assert in_fundamental_domain(0.5 + 0.9j)        # |tau| > 1, Re = +1/2 kept
    assert not in_fundamental_domain(-0.5 + 2j)     # Re = -1/2 excluded
    assert not in_fundamental_domain(-0.5 + 0.87j)
    assert not in_fundamental_domain(0.2 + 0.9j)    # inside the unit circle
    assert in_fundamental_domain(-0.2 + 1.1j)


def test_reduction_is_idempotent_and_words_recover():
    rng = np.random.default_rng(11)
    for _ in range(60):
        tau = complex(rng.uniform(-4, 4), rng.uniform(0.05, 3))
        red, word = reduce_to_fundamental_domain(tau)
        assert in_fundamental_domain(red)
        red2, word2 = reduce_to_fundamental_domain(red)
        assert red2.value == red.value and word2 == ()
        assert abs(apply_modular_word(word, red) - tau) < 1e-11 * max(1.0, abs(tau))


def test_reduction_boundary_conventions():
    red, _ = reduce_to_fundamental_domain(-0.5 + 2j)
    assert red.value == 0.5 + 2j
    # left unit-circle arc maps to the right arc
    t = complex(math.cos(2.0), math.sin(2.0))  # angle 2 rad, Re < 0, |t| = 1
    red, word = reduce_to_fundamental_domain(t)
    assert red.re >= 0.0
    assert abs(apply_modular_word(word, red) - t) < 1e-12


def _bfs_reduce(tau, max_depth=12):
    """Brute-force oracle: breadth-first search over SL(2, Z) words in
    T, T^-1, S until the image lands in the fundamental domain."""
    from collections import deque

    start = (1, 0, 0, 1)
    seen = {start}
    queue = deque([(start, 0)])
    gens = {
        "T": (1, 1, 0, 1),
        "T^-1": (1, -1, 0, 1),
        "S": (0, -1, 1, 0),
    }
    while queue:
        (a, b, c, d), depth = queue.popleft()
        img = (a * tau + b) / (c * tau + d)
        if in_fundamental_domain(img):
            return img
        if depth >= max_depth:
            continue
        for ga, gb, gc, gd in gens.values():
            nxt = (ga * a + gb * c, ga * b + gb * d, gc * a + gd * c, gc * b + gd * d)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, depth + 1))
    raise AssertionError("BFS oracle found no reduction within depth %d" % max_depth)


@pytest.mark.parametrize("tau", [2.3 + 0.4j, -1.7 + 0.13j, 0.49 + 0.51j, 3.6 + 2.2j])
def test_reduction_against_bfs_oracle(tau):
    red, _ = reduce_to_fundamental_domain(tau)
    oracle = _bfs_reduce(tau)
    # interior points have a unique representative
    assert abs(red.value - oracle) < 1e-9
