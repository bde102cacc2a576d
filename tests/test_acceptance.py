"""Acceptance battery: one test per release criterion.

Every test prints a single ``[criterion NN] label: PASS/FAIL`` line with
the measured worst-case number next to its tolerance (run ``pytest -s``
to see the lines for passing tests), then asserts.  Tolerances and
runtime budgets are fixed here on purpose -- editing them is a release
decision, not a test fix.
"""

import cmath
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import nctorus
from nctorus import (
    Flux,
    TruncationPolicy,
    VacuumAngles,
    build_basis,
    bimodule_consistency,
    clock_matrix,
    commutant_dimension,
    dedekind_eta,
    displacement_cocycle_residual,
    eigenphase_table,
    gram_rank,
    holonomy_residual,
    in_fundamental_domain,
    modular_invariance_report,
    orthogonality_residual,
    plaquette_phase,
    q_commutation_residual,
    shift_matrix,
    sine_bracket_residual,
    sine_structure_residual,
    squeeze_roundtrip_residual,
    theta,
    uq_sl2_generators,
    weyl_cocycle_residual,
    weyl_span_dimension,
)
from nctorus.errors import DegenerateDeformationError
from nctorus.fields import (
    displacement_apply,
    gaussian_field,
    lattice_displacement,
    plane_sample_grid,
)
from nctorus.lll import QuadratureSpec
from nctorus.matrices import WeylAlgebra, WeylWord
from nctorus.theta import ThetaSpec

TAU_GRID = (1j, 0.3 + 1.1j, 2j)


def _coprime_pairs(max_level):
    out = []
    for m in range(1, max_level + 1):
        for n in range(1, max_level + 1):
            if m * n <= max_level and math.gcd(m, n) == 1:
                out.append((m, n))
    return out


def _report(num, label, ok, detail):
    line = "[criterion %02d] %s: %s  (%s)" % (
        num, label, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_01_theta_quasi_periodicity():
    policy = TruncationPolicy(epsilon=1e-12)
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for tau in TAU_GRID:
        xy = rng.random((100, 2))
        z = xy[:, 0] + tau * xy[:, 1]
        for level in (1, 2, 3, 6, 12):
            spec = ThetaSpec(level, level - 1)
            base = theta(spec, z, tau, policy)
            lhs = theta(spec, z + 1.0, tau, policy)
            rel = np.abs(lhs - base) / np.maximum(1.0, np.abs(base))
            worst = max(worst, float(rel.max()))
            fac = np.exp(-1j * math.pi * level * tau - 2j * math.pi * level * z)
            lhs = theta(spec, z + tau, tau, policy)
            rel = np.abs(lhs - fac * base) / np.maximum(1.0, np.abs(fac * base))
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    _report(1, "theta quasi-periodicity", worst < 1e-9 and elapsed < 5.0,
            "worst=%.3e tol=1e-09, %.2fs < 5s" % (worst, elapsed))


def test_criterion_02_eta_functional_equations():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.01, 2.5))
        assert in_fundamental_domain(tau)
        e = dedekind_eta(tau)
        worst = max(worst, abs(dedekind_eta(tau + 1.0)
                               - cmath.exp(1j * math.pi / 12.0) * e))
        worst = max(worst, abs(dedekind_eta(-1.0 / tau)
                               - cmath.sqrt(-1j * tau) * e))
    elapsed = time.perf_counter() - start
    _report(2, "eta functional equations", worst < 1e-10 and elapsed < 1.0,
            "worst=%.3e tol=1e-10, %.2fs < 1s" % (worst, elapsed))


def test_criterion_03_quantum_torus_relations():
    start = time.perf_counter()
    word_pairs = (
        (WeylWord(1, 0), WeylWord(0, 1)),
        (WeylWord(1, 1), WeylWord(-1, 2)),
        (WeylWord(2, -1), WeylWord(1, 2)),
    )
    matrix_worst = 0.0
    for m, n in _coprime_pairs(12):
        algebra = WeylAlgebra(m, n)
        matrix_worst = max(matrix_worst, q_commutation_residual(algebra),
                           weyl_cocycle_residual(algebra))
        for wa, wb in word_pairs:
            matrix_worst = max(matrix_worst, sine_structure_residual(algebra, wa, wb))
    tau = 0.3 + 1.1j
    grid = plane_sample_grid(tau)
    field_worst = 0.0
    for m, n in _coprime_pairs(12):
        flux = Flux(n, m)
        f = gaussian_field(tau)
        d1 = lattice_displacement(flux, tau, (1, 0))
        d2 = lattice_displacement(flux, tau, (0, 1))
        lhs = displacement_apply(d1, displacement_apply(d2, f)).evaluate(*grid)
        rhs = displacement_apply(d2, displacement_apply(d1, f)).evaluate(*grid)
        q = cmath.exp(2j * math.pi * flux.kappa)
        field_worst = max(field_worst, float(np.max(np.abs(lhs - q * rhs))))
        field_worst = max(field_worst,
                          displacement_cocycle_residual((1, 0), (0, 1), flux, tau),
                          displacement_cocycle_residual((1, 1), (-1, 1), flux, tau),
                          sine_bracket_residual((1, 0), (0, 1), flux, tau),
                          sine_bracket_residual((1, 1), (2, -1), flux, tau))
    elapsed = time.perf_counter() - start
    ok = matrix_worst < 1e-12 and field_worst < 1e-9 and elapsed < 10.0
    _report(3, "quantum-torus relations", ok,
            "matrix=%.3e tol=1e-12, field=%.3e tol=1e-09, %.2fs < 10s"
            % (matrix_worst, field_worst, elapsed))


def test_criterion_04_plaquette_holonomy():
    worst = 0.0
    for m, n in ((2, 1), (3, 2), (5, 3)):
        flux = Flux(n, m)
        q = cmath.exp(2j * math.pi * n / m)
        for tau in (1j, 0.3 + 1.1j):
            phase, spread = plaquette_phase(flux, tau)
            worst = max(worst, abs(phase - q), spread)
        worst = max(worst, holonomy_residual(WeylAlgebra(m, n)))
    _report(4, "plaquette holonomy e^{2 pi i N/M}", worst < 1e-10,
            "worst=%.3e tol=1e-10" % worst)


def test_criterion_05_gram_rank_is_degeneracy():
    start = time.perf_counter()
    bad = []
    for m, n in _coprime_pairs(12):
        for tau in (1j, 0.3 + 1.1j):
            rank = gram_rank(build_basis(Flux(n, m), tau))
            if rank != m * n:
                bad.append((m, n, tau, rank))
    elapsed = time.perf_counter() - start
    _report(5, "Gram rank equals M*N", not bad and elapsed < 20.0,
            "29 flux pairs x 2 tau, threshold 1e-08, %.2fs < 20s%s"
            % (elapsed, ", bad=%r" % bad if bad else ""))


def _match_multiset(measured, expected, tol):
    left = list(measured)
    worst = 0.0
    for want in expected:
        dist = [abs(got - want) for got in left]
        pos = dist.index(min(dist))
        worst = max(worst, dist[pos])
        del left[pos]
    return worst


def test_criterion_06_translation_module_structure():
    angles = VacuumAngles(0.7, -1.3)
    tau = 0.3 + 1.1j
    worst = 0.0
    for m, n in ((3, 2), (2, 5)):
        basis = build_basis(Flux(n, m), tau, angles)
        table = eigenphase_table(basis)
        d1_phases = []
        for (j, k), entry in table.items():
            worst = max(worst, *(entry[name + "_defect"] for name in ("d1", "d2", "dual1", "dual2")))
            assert entry["d1_target"] == entry["dual1_target"] == (j, k)
            d1_phases.append(entry["d1_phase"])
            worst = max(worst, abs(entry["d1_phase"]
                                   - cmath.exp(1j * (angles.alpha1 - 2 * math.pi * j * n) / m)))
            worst = max(worst, abs(entry["dual1_phase"]
                                   - cmath.exp(1j * (angles.alpha1 - 2 * math.pi * k * m) / n)))
            assert entry["d2_target"] == ((j - 1) % m, k)
            assert entry["dual2_target"] == (j, (k - 1) % n)
            worst = max(worst, entry["d2_leak"], entry["dual2_leak"])
            worst = max(worst, abs(entry["d2_phase"] - cmath.exp(1j * angles.alpha2 / m)))
            worst = max(worst, abs(entry["dual2_phase"] - cmath.exp(1j * angles.alpha2 / n)))
        expected = [cmath.exp(1j * (angles.alpha1 + 2 * math.pi * s * n) / m)
                    for s in range(m) for _ in range(n)]
        worst = max(worst, _match_multiset(d1_phases, expected, 1e-7))
    _report(6, "translation module structure", worst < 1e-7,
            "(3,2) and (2,5): image defects, eigenphase multiset, cycle targets; "
            "worst=%.3e tol=1e-07" % worst)


def test_criterion_07_commutant_and_bimodule():
    bad = []
    for m in range(1, 8):
        for n in range(1, m + 1):
            if math.gcd(m, n) != 1:
                continue
            pair = [clock_matrix(m, n), shift_matrix(m)]
            if commutant_dimension(pair) != 1:
                bad.append(("commutant", m, n))
            if weyl_span_dimension(WeylAlgebra(m, n)) != m * m:
                bad.append(("span", m, n))
    rep = bimodule_consistency(build_basis(Flux(2, 3), 0.3 + 1.1j))
    exact = rep["left_right_commutator"] == 0.0
    _report(7, "commutant dim 1, span M^2, bimodule actions", not bad and rep["pass"] and exact,
            "M <= 7 sweep%s; left/right commutator=%r (exact), deviations=%.3e"
            % (", bad=%r" % bad if bad else "",
               rep["left_right_commutator"], max(rep["deviations"].values())))


def test_criterion_08_uq_sl2_relations():
    worst = 0.0
    for m, n in ((3, 1), (5, 2)):
        worst = max(worst, max(uq_sl2_generators(WeylAlgebra(m, n)).residuals.values()))
    # The reciprocal-parameter copy is non-degenerate only when the
    # squared parameter differs from 1: for flux 2/5 it lives on the 5x5
    # pair at e^{2 pi i 2/5}, while flux 2/5 itself degenerates.
    with pytest.raises(DegenerateDeformationError):
        uq_sl2_generators(WeylAlgebra(2, 5))
    worst = max(worst, max(uq_sl2_generators(WeylAlgebra(5, 2)).residuals.values()))
    _report(8, "U_q(sl2) defining relations", worst < 1e-11,
            "(3,1), (5,2) and the reciprocal copy; worst=%.3e tol=1e-11" % worst)


def test_criterion_09_partition_modular_invariance():
    start = time.perf_counter()
    angles = VacuumAngles()
    worst_t = worst_s = 0.0
    for m, n in _coprime_pairs(6):
        for tau in (0.3 + 1.1j, 2j):
            rep = modular_invariance_report(build_basis(Flux(n, m), tau, angles))
            worst_t = max(worst_t, rep.t_residual)
            worst_s = max(worst_s, rep.s_residual)
    history = []
    for nodes in (12, 24, 48):
        rep = modular_invariance_report(
            build_basis(Flux(1, 1), 2j, angles, quad=QuadratureSpec(nodes_per_axis=nodes)))
        history.append(rep.s_residual)
    monotone = all(b <= a + 1e-10 for a, b in zip(history, history[1:]))
    elapsed = time.perf_counter() - start
    ok = worst_t < 1e-5 and worst_s < 1e-3 and monotone and elapsed < 60.0
    _report(9, "partition-sum modular invariance", ok,
            "t=%.3e tol=1e-05, s=%.3e tol=1e-03, refinement %s, %.2fs < 60s"
            % (worst_t, worst_s,
               "monotone" if monotone else "NOT monotone %r" % history, elapsed))


def test_criterion_10_squeeze_roundtrip():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 4.0))
        worst = max(worst, squeeze_roundtrip_residual(tau))
    _report(10, "squeeze parameter roundtrip", worst < 1e-10,
            "50 random tau; worst=%.3e tol=1e-10" % worst)


def test_criterion_11_character_orthogonality():
    worst = max(orthogonality_residual(level) for level in range(1, 25))
    _report(11, "character orthogonality", worst < 1e-12,
            "levels 1..24; worst=%.3e tol=1e-12" % worst)


def _child_env():
    """Environment in which a child ``python`` imports the nctorus under test.

    The directory holding the imported package goes first on
    ``PYTHONPATH``, and inherited entries are made absolute, so the child
    finds this same tree from any working directory: a relative
    ``PYTHONPATH=src`` would not resolve there, and an older installed copy
    must not stand in for the code under test.
    """
    root = str(Path(nctorus.__file__).resolve().parents[1])
    inherited = [os.path.abspath(entry)
                 for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if entry]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([root] + inherited)
    return env


def _stderr_head(proc, lines=5):
    head = proc.stderr.strip().splitlines()[:lines]
    return " | ".join(head) if head else "<empty>"


def test_criterion_12_verify_battery(tmp_path):
    label = "verify battery end-to-end"
    command = [sys.executable, "-m", "nctorus.cli", "verify"]
    env = _child_env()
    start = time.perf_counter()
    good = subprocess.run(command, capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    elapsed = time.perf_counter() - start
    if good.returncode != 0 or not good.stdout.strip():
        _report(12, label, False, "exit %d, %d bytes of stdout; stderr: %s"
                % (good.returncode, len(good.stdout), _stderr_head(good)))
    report = json.loads(good.stdout)
    bad = subprocess.run(command + ["--inject-fault"], capture_output=True,
                         text=True, cwd=tmp_path, env=env)
    # An import error also exits 1, so the fault run must show its report.
    if not bad.stdout.strip():
        _report(12, label, False, "fault exit %d, empty stdout; stderr: %s"
                % (bad.returncode, _stderr_head(bad)))
    fault = json.loads(bad.stdout)
    failing = [c["name"] for c in fault["checks"] if not c["pass"]]
    if fault["pass"] is not False or failing != ["q_commutation_matrix"]:
        _report(12, label, False,
                "fault run pass=%r, failing checks %r, want ['q_commutation_matrix']"
                % (fault["pass"], failing))
    ok = (good.returncode == 0 and bad.returncode == 1
          and report["pass"] and all(c["pass"] for c in report["checks"])
          and elapsed < 120.0)
    _report(12, label, ok,
            "%d checks, exit %d, fault exit %d, %.1fs < 120s"
            % (len(report["checks"]), good.returncode, bad.returncode, elapsed))
