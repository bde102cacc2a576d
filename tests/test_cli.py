import cmath
import contextlib
import importlib
import inspect
import io
import json
import math
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

from nctorus import cli, fields, matrices, partition
from nctorus.cli import RunConfig, UsageError, emit_json, main, parse_complex
from nctorus.core import Flux, VacuumAngles, as_tau
from nctorus.fields import (
    dual_commutation_residual,
    plaquette_residual,
    sine_bracket_residual,
)
from nctorus import lll
from nctorus.lll import (
    bimodule_residual,
    build_basis,
    center_eigen_residual,
    gram_rank_residual,
    lemma_eigenphase_residual,
    overlap_residual,
)
from nctorus.matrices import (
    WeylAlgebra,
    WeylWord,
    commutant_and_span_residual,
    holonomy_residual,
    q_commutation_residual,
    sine_algebra_residual,
    sine_structure_residual,
    uq_sl2_residual,
    weyl_cocycle_residual,
)
from nctorus.partition import (
    modular_invariance_report,
    s_invariance_residual,
    t_invariance_residual,
    z_tilde,
)
from nctorus.theta import eta_functional_residual, quasi_periodicity_residual
from state_faults import VERIFY_FAULTS, faulty_states, nan_states
from test_acceptance import _child_env

# by module path: the package namespace re-exports a function named theta
theta_module = importlib.import_module("nctorus.theta")

ETA_I = 0.7682254223260566590025942  # 50-digit oracle
THETA_1_0_AT_I = 1.0864348112133080145  # sqrt(2) * eta(i)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_complex():
    assert parse_complex("i") == 1j
    assert parse_complex("0.3+1.1i") == 0.3 + 1.1j
    assert parse_complex("2i") == 2j
    assert parse_complex("1") == 1.0 + 0j
    assert parse_complex("-1.5-0.25i") == -1.5 - 0.25j
    assert (parse_complex("-i"), parse_complex("2.5I"), parse_complex("1e3i")) == (-1j, 2.5j, 1e3j)
    # only a trailing i or I is the imaginary unit: the spelled-out
    # infinities read as complex() reads them
    assert parse_complex("inf") == parse_complex("Infinity") == complex(math.inf, 0.0)
    assert parse_complex("-inf+2i") == complex(-math.inf, 2.0)
    assert parse_complex("infi") == complex(0.0, math.inf)
    with pytest.raises(UsageError):
        parse_complex("nope")
    with pytest.raises(UsageError):
        parse_complex("")


def test_run_config_validation():
    cfg = RunConfig()
    assert (cfg.m, cfg.n) == (3, 2)
    with pytest.raises(ValueError):
        RunConfig(m=4, n=2)
    with pytest.raises(UsageError):
        RunConfig(grid=1)
    with pytest.raises(ValueError):
        RunConfig(tau=1.0 + 0j)


def test_run_config_rejects_non_finite_angles(capsys):
    for flag in ("--alpha1", "--alpha2"):
        with pytest.raises(UsageError, match=flag):
            RunConfig(**{flag[2:]: math.nan})
        assert main(["matrices", "--M", "2", "--N", "1", flag, "inf"]) == 2
        assert flag in capsys.readouterr().err


def test_theta_subcommand(capsys):
    code, rep = run_json(
        capsys, ["theta", "--level", "1", "--residue", "0", "--z", "0", "--tau", "i"]
    )
    assert code == 0
    assert abs(rep["value"]["re"] - THETA_1_0_AT_I) < 1e-12
    assert abs(rep["value"]["im"]) < 1e-15
    # worked truncation example: eps 1e-12, K=1, z=0, tau=i
    assert rep["certificate"]["n_max"] == 4
    assert rep["certificate"]["epsilon"] == 1e-12


def test_theta_usage_errors(capsys):
    assert main(["theta", "--level", "2", "--residue", "2", "--tau", "i"]) == 2
    assert main(["theta", "--level", "0", "--tau", "i"]) == 2
    assert main(["theta", "--level", "1", "--tau", "1"]) == 2
    assert main(["theta", "--level", "1", "--tau", "what"]) == 2
    capsys.readouterr()
    # a flag after --tau is no complex literal, so --tau is left without its value
    assert main(["theta", "--level", "1", "--tau", "--z", "0"]) == 2
    assert "--tau: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("tau, error", [
    ("1e300i", "FloatingPointError: squeeze at tau=1e+300j leaves double range: "
               "matrix does not square to -I (deviation nan)"),
    ("1e-300i", "FloatingPointError: squeeze at tau=1e-300j leaves double range: "
                "matrix does not square to -I (deviation 1.000e+00)"),
    ("1e308i", "FloatingPointError: squeeze at tau=1e+308j leaves double range: "
               "squeeze angle must be finite, got nan"),
    ("-4.437226654450582e-303+1.2427344271963375e-20i",
     "FloatingPointError: squeeze at tau=(-4.437226654450582e-303+1.2427344271963375e-20j) "
     "leaves double range"),
    ("1e150i", "LinAlgError: Singular matrix"),
])
def test_squeeze_past_double_range_fails_with_one_error_line(capsys, tau, error):
    # each tau is valid, so no value rounded out of range is a usage error:
    # in process, where a RuntimeWarning is an error, the command names
    # what left range and exits 1
    assert main(["squeeze", "--tau=" + tau]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % error


def test_render_names_a_type_it_cannot_render():
    with pytest.raises(TypeError, match="cannot render <class 'set'>"):
        cli._render({1})


@pytest.mark.parametrize("argv", [
    ["theta", "--level", "1", "--tau=1e-9i"],
    ["theta", "--level", "3", "--tau=1i", "--z=1e300i"],
    ["eta", "--tau=1e-9i"],
    ["partition", "--tau=1e-7i"],
    ["eta", "--tau=1e-300i"],
    ["partition", "--tau=1e-300i"],
    ["lll", "--tau=1e300i", "--out", "{out}"],
    # valid fluxes whose level, or matrices' dimension, is past the cap
    ["verify", "--M", "5", "--N", "4611686018427387907"],
    ["partition", "--M", "3", "--N", "4611686018427387904"],
    ["lll", "--M", "3", "--N", "4611686018427387904", "--out", "{out}"],
    ["matrices", "--M", "5", "--N", "4611686018427387907"],
])
def test_computations_that_cannot_finish_fail_with_one_error_line(capsys, tmp_path, argv):
    assert main([str(tmp_path) if arg == "{out}" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: TruncationError: ")


def test_an_allocation_past_memory_fails_with_one_error_line(capsys, monkeypatch):
    # a MemoryError is a computation that cannot finish, not a usage error
    def no_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the basis")

    monkeypatch.setattr(cli, "build_basis", no_memory)
    assert main(["partition"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: MemoryError: cannot allocate the basis\n"


def test_verify_past_every_cap_fails_its_rows_with_nan(capsys):
    # at 1e-300i the theta window, eta's |q| and the cell rule's x axis
    # each need more than the cap: their rows fail with the error as a
    # note, the rest still run, and nothing is a usage error
    assert main(["verify", "--tau=1e-300i"]) == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    failing = [c for c in json.loads(captured.out)["checks"] if not c["pass"]]
    assert len(failing) == 9
    for check in failing:
        assert math.isnan(check["residual"]), check["name"]
        assert check["note"].startswith("TruncationError: ") and "cap is 1000000" in check["note"]


def test_verify_at_1e300i_writes_nothing_to_stderr(capfd):
    # theta's scale z.imag**2 and the plane probes' Gaussian exponents leave
    # double range there; no row fails on a numpy warning, and none is printed
    assert main(["verify", "--tau=1e300i"]) == 1
    out, err = capfd.readouterr()
    assert err == ""
    assert json.loads(out)["pass"] is False  # one JSON document and nothing else
    assert "Warning" not in out


@pytest.mark.parametrize("tau", ["1e-4i", "3000i"])
def test_eta_underflow_fails_with_one_error_line(capsys, tau):
    assert main(["eta", "--tau=" + tau]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: FloatingPointError: ")


def test_q_underflow_computes(capsys):
    # exp(2*pi*i*tau) underflows to 0 at Im tau = 120: the eta product is 1
    code, rep = run_json(capsys, ["eta", "--tau=120i"])
    assert code == 0
    value = complex(rep["value"]["re"], rep["value"]["im"])
    assert abs(value - math.exp(-10 * math.pi)) < 1e-27
    code, rep = run_json(capsys, ["partition", "--tau=120i"])
    assert code == 0
    values = [rep[key] for key in ("z_tilde", "z_tilde_character_route", "s_residual", "t_residual")]
    assert all(map(math.isfinite, values))


_UNDERFLOW_VERIFY = ["verify", "--M", "3", "--N", "2", "--tau=1e5i", "--alpha1", "0.7"]
# at 1e5i every quasi-periodicity value underflows to 0 and eta leaves
# range; the states reach exp(650), and the module, measured over their
# largest window entry, stays in range
_UNDERFLOW_FAILING = {"theta_quasi_periodicity", "eta_functional_equations",
                      "partition_t_invariance", "partition_s_invariance"}


_MODULE_ROWS = ("center_eigenvalues", "lemma_eigenphases", "gram_rank", "bimodule_consistency",
                "orthogonality")


@pytest.mark.parametrize("m, n, tau", [("1", "1", "300i"), ("3", "1", "1000i"),
                                       ("2", "1", "1300i")])
def test_module_rows_pass_where_the_unscaled_window_overflows(capsys, m, n, tau):
    # the states reach exp(Im(tau)*alpha1**2/(4*pi*K)), past double range
    # here; their table is scaled by its power of two before it is
    # exponentiated, so every module row measures and passes, in process,
    # where a RuntimeWarning is an error.  Only Z~ itself leaves range
    code = main(["verify", "--M", m, "--N", n, "--tau=" + tau, "--alpha1", "6"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    rep = json.loads(captured.out)
    checks = {c["name"]: c for c in rep["checks"]}
    for name in _MODULE_ROWS:
        assert checks[name]["pass"], (name, checks[name])
    failing = {name for name, check in checks.items() if not check["pass"]}
    assert failing == {"partition_t_invariance", "partition_s_invariance"}
    # the state norms read inf, so both rows fail with NaN and their usual notes
    assert checks["partition_t_invariance"]["note"].startswith("holds by construction")
    assert checks["partition_s_invariance"]["note"].startswith("s_residual nan against")
    for name in failing:
        assert math.isnan(checks[name]["residual"]), name


def test_partition_past_double_range_reads_infinity_silently(capsys):
    # both routes read the state norms past double range as inf, without a
    # numpy warning, which in process is an error; the command prints its
    # report and exits 1, as it does for any non-finite value
    code = main(["partition", "--M", "1", "--N", "1", "--tau=300i", "--alpha1", "6"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    rep = json.loads(captured.out)
    for key in ("z_tilde", "z_tilde_character_route", "z_tilde_closed_form"):
        assert rep[key] == math.inf, key
    assert math.isnan(rep["s_residual"]) and math.isnan(rep["t_residual"])


def test_partition_character_route_reads_infinity_past_double_range(capsys):
    # its lag products met inf * 0 here and printed NaN next to an infinite z_tilde
    code = main(["partition", "--M", "1", "--N", "1", "--tau=0.2+1i", "--alpha1", "100",
                 "--alpha2", "0.3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert '"z_tilde":Infinity,"z_tilde_character_route":Infinity,' in captured.out


def test_lll_csv_past_double_range_fails_with_one_error_line(capsys, tmp_path):
    # at K = 1 and 1e5i the module measures, but the states' pointwise
    # values on the CSV grid leave double range: the command names that,
    # in process, where a RuntimeWarning is an error, and writes no file
    out = tmp_path / "out"
    assert main(["lll", "--M", "1", "--N", "1", "--tau=1e5i", "--alpha1", "0.7",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: FloatingPointError: a state's value on the 6 x 6 CSV grid "
                            "leaves double range\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--level", "1", "--tau=i", "--z=0+30i"],
                                  ["--level", "3", "--tau=0.5+1e-3i", "--z=0.2+5i"]])
def test_theta_past_double_range_fails_with_one_error_line(capsys, argv):
    # the first value overflows to Infinity, the second to NaN: neither is
    # printed as a success, and numpy warns of neither
    assert main(["theta", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: FloatingPointError: theta at z=")
    assert lines[0].endswith("leaves double range")


def test_checks_whose_samples_underflow_fail_with_nan(capsys):
    # in process, where a RuntimeWarning is an error: the ratios of zero
    # samples read NaN without numpy's warning
    code, rep = run_json(capsys, _UNDERFLOW_VERIFY)
    assert code == 1
    checks = {c["name"]: c for c in rep["checks"]}
    assert {name for name, c in checks.items() if not c["pass"]} == _UNDERFLOW_FAILING
    assert math.isnan(checks["theta_quasi_periodicity"]["residual"])
    assert "note" not in checks["theta_quasi_periodicity"]
    assert checks["lemma_eigenphases"]["residual"] < 1e-12


def test_underflowed_verify_leaves_stderr_empty(tmp_path):
    # as a command, where numpy's warnings would print
    proc = subprocess.run([sys.executable, "-m", "nctorus.cli"] + _UNDERFLOW_VERIFY,
                          capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr == ""
    failing = {c["name"] for c in json.loads(proc.stdout)["checks"] if not c["pass"]}
    assert failing == _UNDERFLOW_FAILING


def test_subnormal_verify_leaves_stderr_empty(capsys, tmp_path):
    # at (7,5), 1e3i the union of the columns' peak windows reaches
    # subnormal range; the measurement keeps each column's own window, and
    # the run passes in process (where a RuntimeWarning is an error) and as
    # a command (where numpy's warnings would print) alike
    argv = ["verify", "--M", "7", "--N", "5", "--tau=1e3i"]
    code, rep = run_json(capsys, argv)
    proc = subprocess.run([sys.executable, "-m", "nctorus.cli"] + argv,
                          capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert code == proc.returncode == 0
    assert proc.stderr == ""
    for report in (rep, json.loads(proc.stdout)):
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["lemma_eigenphases"]["residual"] < 1e-12


def _verify_rows():
    return [name for name, _, _ in cli._verify_checks(RunConfig(), False)]


# where verify passes.  At (3,2): at 0.01i the cell integrand has x-modes
# up to about 100, at 1e3i with alpha1 = 0.7 the states reach 235 on the
# centre grid, and at 1e-3i the S-transformed Z~ needs eta at 1000i, where
# q underflows.  sine_algebra_operator and
# dual_commutation_operator take absolute sup-norms on a fixed plane grid
# that ignores tau, and their words' peaks there fall below the rows' 1e-9
# bound outside about 0.01i to 18i (0.02i to 18i at Re tau = 0.3): at
# 1e-3i, 3e-3i, 20i, 30i, 50i, 200i and 1e3i these two rows pass
# vacuously, and those points are no evidence for them
_RANGE = [("7", "5", tau) for tau in ("1e-3i", "0.02i", "30i", "200i", "1e3i")] + [
    ("13", "7", "30i"), ("13", "3", "0.3+1.1i")] + [
    ("3", "2", tau) for tau in ("1e-3i", "3e-3i", "0.01i", "0.3+1.1i", "20i", "50i", "1e3i")]


@pytest.mark.parametrize("m, n, tau", _RANGE, ids=["%s,%s-%s" % point for point in _RANGE])
@pytest.mark.parametrize("alpha1, alpha2", [("0", "0"), ("0.7", "-1.3")], ids=["0", "angles"])
def test_verify_passes_over_the_range(capfd, m, n, tau, alpha1, alpha2):
    # capfd reads file descriptors 1 and 2, and every warning is an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--M", m, "--N", n, "--tau=" + tau,
                     "--alpha1", alpha1, "--alpha2", alpha2])
    out, err = capfd.readouterr()
    rep = json.loads(out)
    assert code == 0, [c for c in rep["checks"] if not c["pass"]]
    assert err == "" and rep["pass"] is True
    assert [c["name"] for c in rep["checks"]] == _verify_rows()
    for check in rep["checks"]:
        assert {"name", "residual", "tolerance", "pass", "wall_time"} <= set(check)


# (3,2) at 50i, where the raw theta row once failed alone, keeps its own
# three tests beside its _RANGE row
@pytest.mark.parametrize("tau, alpha1", [("50i", "0")], ids=["50i"])
def test_verify_passes_at_small_and_large_im_tau(capsys, tau, alpha1):
    code, rep = run_json(capsys, ["verify", "--tau=" + tau, "--alpha1", alpha1])
    assert code == 0, [c for c in rep["checks"] if not c["pass"]]


def test_verify_at_large_im_tau_fails_only_the_raw_theta_check(capsys):
    code, rep = run_json(capsys, ["verify", "--M", "3", "--N", "2", "--tau=50i"])
    assert code == 0
    assert [c for c in rep["checks"] if not c["pass"]] == []
    theta = {c["name"]: c for c in rep["checks"]}["theta_quasi_periodicity"]
    assert math.isfinite(theta["residual"]) and theta["residual"] <= theta["tolerance"]


@pytest.mark.parametrize("tau", ["50i"])
def test_verify_at_large_im_tau_passes_silently(capsys, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--M", "3", "--N", "2", "--tau=" + tau])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert json.loads(captured.out)["pass"] is True


@pytest.mark.parametrize("fault", VERIFY_FAULTS.values(), ids=list(VERIFY_FAULTS))
def test_named_fault_fails_exactly_its_rows(capsys, monkeypatch, fault):
    code, rep = run_json(capsys, ["verify", *fault.argv, *(fault.inject(monkeypatch) or [])])
    assert (code, rep["pass"]) == (1, False)
    assert {c["name"] for c in rep["checks"] if not c["pass"]} == fault.failing


def test_every_named_fault_fails_rows_that_verify_has():
    # a renamed or deleted row leaves no stale seed behind
    rows = set(_verify_rows())
    for name, fault in VERIFY_FAULTS.items():
        assert fault.failing and fault.failing <= rows, name


def test_verify_at_1e5i_writes_nothing_to_stderr(capfd):
    # every state sample underflows there; the centre, measured on the
    # module, still passes, and the theta, eta and partition checks fail
    code = main(["verify", "--M", "7", "--N", "5", "--tau=1e5i"])
    out, err = capfd.readouterr()
    assert code == 1
    assert err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["center_eigenvalues"]["pass"]
    assert checks["center_eigenvalues"]["residual"] <= 1e-12


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    builds = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            if kwargs.get("prog") == "nctorus":  # the top level, not a subparser
                builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["matrices", "--M", "24", "--N", "7"]) == 0
    finally:
        cli.build_parser.cache_clear()
    capsys.readouterr()
    assert builds == [1]


def test_parse_state_does_not_leak_between_calls(capsys):
    # the parser is shared between calls: a flag given once is not set on
    # the next call's arguments
    code, rep = run_json(capsys, ["verify", "--M", "2", "--N", "1", "--inject-fault"])
    assert (code, rep["pass"]) == (1, False)
    code, rep = run_json(capsys, ["verify", "--M", "2", "--N", "1"])
    assert (code, rep["pass"]) == (0, True)


@pytest.mark.parametrize("command", ["lll", "matrices", "partition", "verify"])
def test_flag_defaults_are_the_run_config_defaults(command):
    assert cli._config_from(cli.build_parser().parse_args([command])) == RunConfig()


@pytest.mark.parametrize("z", ["nan", "nani", "1e400i", "inf", "-inf+2i", "Infinity", "infi"])
def test_theta_rejects_non_finite_z(capsys, z):
    # "--z -inf+2i" is joined into "--z=-inf+2i" like any complex value
    # that starts with a minus, so every value reaches theta's own check
    assert main(["theta", "--level", "3", "--tau=1i", "--z", z]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --z must be finite, got %r\n" % (parse_complex(z),)


def test_eta_subcommand(capsys):
    code, rep = run_json(capsys, ["eta", "--tau", "i"])
    assert code == 0
    assert abs(rep["value"]["re"] - ETA_I) < 1e-13
    assert abs(rep["value"]["im"]) < 1e-15


def test_squeeze_subcommand(capsys):
    code, rep = run_json(capsys, ["squeeze", "--tau", "i"])
    assert code == 0
    assert rep["r"] == 0.0
    assert rep["complex_structure"][0][1] == 1.0
    assert rep["roundtrip_residual"] < 1e-12


def test_matrices_subcommand(capsys):
    code, rep = run_json(capsys, ["matrices", "--M", "2", "--N", "1"])
    assert code == 0
    clock = rep["clock"]
    assert abs(clock[0][0]["re"] - 1.0) < 1e-14
    assert abs(clock[1][1]["re"] + 1.0) < 1e-14
    shift = rep["shift"]
    assert abs(shift[1][0]["re"] - 1.0) < 1e-14
    assert abs(shift[0][1]["re"] - 1.0) < 1e-14
    assert rep["commutant_dimension"] == 1
    assert rep["weyl_span_dimension"] == 4
    assert max(rep["residuals"].values()) < 1e-12


def test_partition_subcommand(capsys):
    code, rep = run_json(
        capsys, ["partition", "--M", "1", "--N", "1", "--tau", "0.3+1.1i"]
    )
    assert code == 0
    assert abs(rep["z_tilde"] - 1.1985492230536032894) < 1e-12
    assert abs(rep["z_tilde"] - rep["z_tilde_character_route"]) < 1e-12
    assert rep["t_residual"] < 1e-5
    assert rep["s_residual"] < 1e-3


def test_partition_computes_each_z_tilde_once(capsys, monkeypatch):
    # the per-state route runs at tau, tau+1 and -1/tau only: one call
    # for the K state norms each, and the printed z_tilde is the one at tau
    calls = []
    state_norm = partition.state_norm
    monkeypatch.setattr(partition, "state_norm", lambda *a, **kw: calls.append(a) or state_norm(*a, **kw))
    code, rep = run_json(capsys, ["partition", "--M", "3", "--N", "2"])
    assert code == 0
    assert len(calls) == 3
    monkeypatch.undo()
    assert rep["z_tilde"] == z_tilde(build_basis(Flux(2, 3), 0.3 + 1.1j))


def test_partition_where_the_state_norms_alias(capsys, monkeypatch):
    # on 16 x 16 nodes at level 8 a row's terms repeat their class mod n_x
    # every 2 terms, and the windows at tau, tau+1 and -1/tau hold 4, 4 and
    # 3: the per-state route sums the products of the aliasing terms, there
    # at round-off, and meets the closed form to the last digit
    rows = []
    fold = lll._alias_fold

    def recorded(freq, twice, n_x, step, pair_phase):
        rows.append((twice.shape[1], n_x // math.gcd(step, n_x)))
        return fold(freq, twice, n_x, step, pair_phase)

    monkeypatch.setattr(lll, "_alias_fold", recorded)
    code, rep = run_json(capsys, ["partition", "--M", "1", "--N", "8", "--tau=0.17+0.8i",
                                  "--alpha1", "0.4", "--alpha2", "1.1", "--quad", "16"])
    assert code == 0
    assert rows == [(4, 2), (4, 2), (3, 2)]
    assert rep["cell_nodes"] == {"tau": [16, 16], "-1/tau": [16, 16]}
    want = rep["z_tilde_closed_form"]
    assert abs(rep["z_tilde"] - want) <= 2.0**-52 * want
    assert abs(rep["z_tilde_character_route"] - want) <= 1e-14 * want
    # at eps 1e-4 the rule takes n_x = K = 8 nodes, every term of a row
    # aliases onto its neighbours, and the products move Z~ 2.5e-5 off the
    # closed form: the per-state route still meets the character route,
    # which sums the value at every node
    rows.clear()
    code, rep = run_json(capsys, ["partition", "--M", "1", "--N", "8", "--tau=0.17+0.8i",
                                  "--alpha1", "0.4", "--alpha2", "1.1", "--eps", "1e-4"])
    assert code == 0
    assert rep["cell_nodes"]["tau"] == [8, 8] and [period for _, period in rows] == [1, 1, 1]
    assert abs(rep["z_tilde"] - rep["z_tilde_closed_form"]) > 1e-5 * rep["z_tilde"]
    assert abs(rep["z_tilde"] - rep["z_tilde_character_route"]) <= 1e-9 * rep["z_tilde"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_partition_fails_on_non_finite_values(capsys, monkeypatch):
    # with NaN states the per-state quadratures are NaN: the report is
    # still written, and the run fails like a failed verify check
    nan_states(monkeypatch)
    assert main(["partition", "--M", "3", "--N", "2"]) == 1
    assert math.isnan(json.loads(capsys.readouterr().out)["z_tilde"])
    monkeypatch.undo()
    # one non-finite value is enough
    monkeypatch.setattr(cli, "z_tilde_character_route", lambda *args: math.inf)
    assert main(["partition", "--M", "1", "--N", "1"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["z_tilde_character_route"] == math.inf and math.isfinite(rep["z_tilde"])


def test_partition_at_large_im_tau_is_finite(capsys):
    # K * Im tau = 300: the raw theta values on the cell leave double
    # range, the Gaussian-scaled series do not; the peaks are 0.023 wide
    # in y, and the default floor leaves the rule to size itself (8 x 74)
    code, rep = run_json(capsys, ["partition", "--M", "3", "--N", "2", "--tau=50i"])
    assert code == 0
    values = [rep[key] for key in ("z_tilde", "z_tilde_character_route", "s_residual", "t_residual")]
    assert all(map(math.isfinite, values))
    assert abs(rep["z_tilde_character_route"] - rep["z_tilde"]) <= 1e-12 * rep["z_tilde"]
    want = math.sqrt(6 / 100.0) / float(abs(mpmath.eta(mpmath.mpc(0, 50)))) ** 2
    for key in ("z_tilde", "z_tilde_character_route", "z_tilde_closed_form"):
        assert abs(rep[key] - want) <= 1e-11 * want, key
    assert rep["cell_nodes"] == {"tau": [8, 74], "-1/tau": [74, 8]}


def test_partition_at_a_tight_epsilon_and_large_im_tau_is_finite(capsys):
    # pi*Im(tau) = 757 at a window of three terms per class: the character
    # route sums each class's neighbours as one exponential there, since
    # the split V**s D[s, j] leaves double range; nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_json(capsys, ["partition", "--M", "1", "--N", "1", "--tau=241i",
                                      "--eps", "1e-100"])
    assert code == 0
    want = rep["z_tilde_closed_form"]
    assert math.isfinite(want)
    for key in ("z_tilde", "z_tilde_character_route"):
        assert abs(rep[key] - want) <= 1e-13 * want, key


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_partition_reports_an_overflowing_closed_form(capsys):
    # exp(b*alpha1**2/(2*pi*K)) = exp(1108): Z~ leaves double range, and
    # the report still says so next to the two routes
    assert main(["partition", "--M", "1", "--N", "1", "--tau=200i", "--alpha1", "5.9"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["z_tilde_closed_form"] == math.inf
    assert not math.isfinite(rep["z_tilde"])


@pytest.mark.parametrize("tau", ["1430i", "2000i"])
def test_partition_reports_infinity_where_eta_squared_underflows(capsys, tau):
    # |eta|^2 = exp(-pi*Im tau/6) underflows to 0 above Im tau ~ 1420 while
    # eta is still normal: every Z~ reads Infinity and the residuals NaN,
    # as at 1415i, and the run fails; nothing raises or warns
    code, rep = run_json(capsys, ["partition", "--M", "3", "--N", "2", "--tau=" + tau])
    assert code == 1
    for key in ("z_tilde", "z_tilde_character_route", "z_tilde_closed_form"):
        assert rep[key] == math.inf, key
    assert math.isnan(rep["s_residual"]) and math.isnan(rep["t_residual"])
    code, rep = run_json(capsys, ["verify", "--M", "3", "--N", "2", "--tau=" + tau])
    assert code == 1
    for check in rep["checks"]:
        if check["name"].startswith("partition_"):
            assert not check["pass"] and math.isnan(check["residual"]), check["name"]


def test_partition_reports_closed_form_and_cell_nodes(capsys):
    argv = ["--M", "3", "--N", "2", "--tau", "0.3+1.1i", "--alpha1", "0.7"]
    code, rep = run_json(capsys, ["partition", *argv])
    assert code == 0
    want = (math.sqrt(6 / 2.2) * math.exp(1.1 * 0.49 / (12 * math.pi))
            / float(abs(mpmath.eta(mpmath.mpc(0.3, 1.1)))) ** 2)
    assert abs(rep["z_tilde_closed_form"] - want) <= 1e-13 * want
    for key in ("z_tilde", "z_tilde_character_route"):
        assert abs(rep[key] - rep["z_tilde_closed_form"]) <= 1e-12 * want
    assert rep["cell_nodes"] == {"tau": [10, 11], "-1/tau": [12, 10]}
    code, rep = run_json(capsys, ["partition", *argv, "--quad", "16"])
    assert code == 0
    assert rep["cell_nodes"] == {"tau": [16, 16], "-1/tau": [16, 16]}
    code, ver = run_json(capsys, ["verify", *argv])
    assert code == 0
    notes = {c["name"]: c.get("note") for c in ver["checks"]}
    assert notes["partition_t_invariance"].endswith("(n_x, n_y) = (10, 11) at tau and tau+1")
    assert notes["partition_s_invariance"].endswith(
        "(n_x, n_y) = (10, 11) at tau, (12, 10) at -1/tau")


def test_eta_check_sees_the_run_tau(capsys, monkeypatch, fresh_eta_sample):
    # a relative eta fault of 1e-6 confined to Im tau < 0.05 misses the 20
    # seeded points (Im tau in [1, 2.5], their -1/tau above 0.15), and at
    # 0.01i, where |eta| is 4e-11, it is 4e-17 in absolute terms: only a
    # residual relative to |eta| at the run's own tau and -1/tau sees it
    eta = theta_module.dedekind_eta

    def faulty(tau, *args, **kwargs):
        value = eta(tau, *args, **kwargs)
        return value * (1.0 + 1e-6) if tau.imag < 0.05 else value

    monkeypatch.setattr(theta_module, "dedekind_eta", faulty)
    code, rep = run_json(capsys, ["verify", "--tau=0.01i"])
    assert code == 1
    failing = {c["name"]: c["residual"] for c in rep["checks"] if not c["pass"]}
    assert list(failing) == ["eta_functional_equations"]
    assert failing["eta_functional_equations"] > 9e-7
    # the true eta passes at the run's tau, relative to |eta|
    monkeypatch.undo()
    code, rep = run_json(capsys, ["verify", "--tau=0.01i"])
    check = next(c for c in rep["checks"] if c["name"] == "eta_functional_equations")
    assert code == 0 and check["residual"] < 1e-12


@pytest.mark.parametrize("argv", [
    ["theta", "--level", "3", "--z", "-0.2-0.1i", "--tau", "-0.3+1.1i"],
    ["eta", "--tau", "-0.4+2i"],
    ["lll", "--M", "2", "--N", "1", "--grid", "3", "--tau", "-0.4+2i"],
    ["matrices", "--M", "2", "--N", "1", "--tau", "-0.4+2i"],
    ["partition", "--M", "2", "--N", "1", "--tau", "-0.2+1.7i"],
    ["squeeze", "--tau", "-0.4+2i"],
    ["verify", "--M", "2", "--N", "1", "--tau", "-0.2+1.7i"],
], ids=lambda argv: argv[0])
def test_complex_flag_values_may_start_with_a_minus(tmp_path, capsys, argv):
    # "--tau -0.4+2i" is the same run as "--tau=-0.4+2i"
    joined = []
    for arg in argv:
        if joined and joined[-1] in ("--tau", "--z"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    outputs = []
    for args in (argv, joined):
        if args[0] == "lll":
            args = args + ["--out", str(tmp_path / "dump")]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(re.sub(r'"wall_time":[^,}]*', "", captured.out))
    assert outputs[0] == outputs[1]


def test_lll_subcommand_writes_grids(tmp_path, capsys):
    out = tmp_path / "dump"
    argv = [
        "lll", "--M", "2", "--N", "1", "--tau", "i", "--grid", "4",
        "--out", str(out),
    ]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert sorted(rep["files"]) == ["eigenphases.json", "psi_0_0.csv", "psi_1_0.csv"]
    csv = (out / "psi_0_0.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == "x,y,re,im,abs2"
    assert len(lines) == 1 + 16
    table = json.loads((out / "eigenphases.json").read_text())
    entry = table["eigenphases"]["0,0"]
    assert abs(entry["d1_phase"]["re"] - 1.0) < 1e-12  # alpha = 0, j = 0
    assert entry["d2_target"] == [1, 0]

    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 0
    capsys.readouterr()
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_lll_csv_rows_hold_the_states_values_bit_for_bit(tmp_path, capsys):
    out, n, tau = tmp_path / "dump", 5, complex(-0.2, 1.4)
    code, rep = run_json(capsys, ["lll", "--M", "3", "--N", "2", "--tau=-0.2+1.4i",
                                  "--alpha1", "0.7", "--alpha2", "-1.3", "--grid", str(n),
                                  "--out", str(out)])
    assert code == 0
    basis = build_basis(Flux(2, 3), tau, VacuumAngles(0.7, -1.3))
    s = np.arange(n) / n
    x, y = np.repeat(s, n), np.tile(s, n)
    w = x + tau * y
    states = basis.field.evaluate(w, np.conjugate(w))
    assert len(rep["files"]) == len(states) + 1
    for (j, k), values in zip(basis.labels(), states.tolist()):
        lines = (out / ("psi_%d_%d.csv" % (j, k))).read_text().splitlines()
        assert lines[0] == "x,y,re,im,abs2" and len(lines) == 1 + n * n
        for i, (line, v) in enumerate(zip(lines[1:], values)):
            expected = [s[i // n], s[i % n], v.real, v.imag, abs(v) ** 2]
            assert [float(t).hex() for t in line.split(",")] == list(map(float.hex, expected))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lll_failed_measurement_writes_nothing(tmp_path, capsys, monkeypatch):
    # with NaN states the Gram matrix is not finite: the measurement cannot
    # compute, which is a failed run (exit 1), not bad arguments, and no
    # file is written
    out = tmp_path / "dump"
    nan_states(monkeypatch)
    assert main(["lll", "--M", "3", "--N", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: LinAlgError: ")
    assert not out.exists()
    monkeypatch.undo()
    # the same run at the default tau writes all seven files
    code, rep = run_json(capsys, ["lll", "--M", "3", "--N", "2", "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(rep["files"])
    assert len(rep["files"]) == 3 * 2 + 1


def test_lll_unwritable_output_dir(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    code = main(["lll", "--M", "2", "--N", "1", "--out", str(blocker / "sub")])
    capsys.readouterr()
    assert code == 3


def test_verify_fails_checks_that_cannot_compute(capsys, monkeypatch):
    # with NaN states the module checks, the centre among them, raise
    # LinAlgError from G, the quadratures return NaN, and the theta
    # residual is made NaN; each of these is its own check's failure rather
    # than a usage error or a pass
    nan_states(monkeypatch)
    monkeypatch.setattr(cli, "quasi_periodicity_residual", lambda *args: math.nan)
    code = main(["verify", "--M", "3", "--N", "2", "--tau=50i"])
    out = capsys.readouterr().out
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    checks = {c["name"]: c for c in rep["checks"]}
    failing = {name for name, c in checks.items() if not c["pass"]}
    raising = {"lemma_eigenphases": 1e-7, "gram_rank": 0.5, "bimodule_consistency": 1e-6}
    assert failing >= set(raising) | {
        "center_eigenvalues", "partition_t_invariance", "partition_s_invariance"
    }
    assert math.isnan(checks["center_eigenvalues"]["residual"])
    for name, tol in raising.items():
        assert checks[name]["tolerance"] == tol
        assert checks[name]["note"].startswith("LinAlgError: ")
    # a NaN theta residual must not fold into a pass
    assert not checks["theta_quasi_periodicity"]["pass"]
    assert math.isnan(checks["theta_quasi_periodicity"]["residual"])


def test_partition_s_check_compares_with_the_closed_form_factor(capsys):
    argv = ["--M", "3", "--N", "2", "--tau", "0.3+1.1i", "--alpha1", "2.0", "--alpha2", "-1.3"]
    _, part = run_json(capsys, ["partition", *argv])
    code, rep = run_json(capsys, ["verify", *argv])
    assert code == 0
    check = {c["name"]: c for c in rep["checks"]}["partition_s_invariance"]
    tau = 0.3 + 1.1j
    exponent = ((-1.0 / tau).imag - tau.imag) * 2.0**2 / (2 * math.pi * 6)
    predicted = abs(math.expm1(exponent))
    assert predicted > check["tolerance"]  # the raw s_residual would fail
    assert check["residual"] == abs(part["s_residual"] - predicted)


def test_partition_checks_report_their_angles(capsys):
    code, rep = run_json(capsys, ["verify", "--alpha1", "0.7", "--alpha2", "-1.3"])
    assert code == 0
    notes = {c["name"]: c.get("note") for c in rep["checks"]}
    for name in ("partition_t_invariance", "partition_s_invariance"):
        assert "alpha1 = alpha2 = 0" not in notes[name]
    assert notes["theta_quasi_periodicity"] is None


def test_checks_that_hold_by_construction_say_so(capsys):
    code, rep = run_json(capsys, ["verify"])
    assert code == 0
    notes = {c["name"]: c.get("note") or "" for c in rep["checks"]}
    assert notes["orthogonality"].startswith("largest |G_rs|/sqrt(G_rr G_ss)")
    assert notes["orthogonality"].endswith("(n_x, n_y) = (10, 11) cell rule")
    assert "ideal clock/shift matrices" in notes["commutant_and_span"]
    t_note = notes["partition_t_invariance"]
    assert t_note.startswith("holds by construction where the quadrature resolves")
    assert "only through Im tau and |eta|" in t_note
    # the bimodule's deviations are measured; only its commutator is not
    assert notes["bimodule_consistency"].startswith("largest |L - P| of D1, D2, D1~ and D2~")
    assert "(n_x, n_y) = (10, 11) cell rule" in notes["bimodule_consistency"]
    held = [name for name, note in notes.items() if "holds by construction" in note]
    assert sorted(held) == ["bimodule_consistency", "commutant_and_span", "partition_t_invariance"]


def test_failed_measurements_print_nothing_but_json(tmp_path, capfd, monkeypatch):
    # capfd reads file descriptors 1 and 2, so it also sees text that
    # LAPACK prints on non-finite input, which sys.stdout never carries
    nan_states(monkeypatch)
    assert main(["verify", "--M", "3", "--N", "2", "--tau=50i"]) == 1
    out, _ = capfd.readouterr()
    assert json.loads(out)["pass"] is False  # one JSON document and nothing else
    out_dir = tmp_path / "dump"
    assert main(["lll", "--M", "3", "--N", "2", "--tau=50i", "--out", str(out_dir)]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: LinAlgError: ")


def test_non_finite_floats_render_as_json_reads_them(capsys):
    text = emit_json({"a": [math.nan, math.inf, -math.inf, 0.5]})
    assert text == '{"a":[NaN,Infinity,-Infinity,0.5]}\n'
    assert capsys.readouterr().out == text
    values = json.loads(text)["a"]
    assert math.isnan(values[0]) and values[1:] == [math.inf, -math.inf, 0.5]


def test_render_covers_numpy_complex_and_non_finite_values(capsys):
    obj = {
        "f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7),
        "neg_zero": -0.0, "nan": math.nan, "inf": math.inf, "ninf": -math.inf,
        "z": complex(1.5, -math.inf), "z64": np.complex128(complex(-0.0, 2.0)),
        "tuple": (1, 2.5, None, True, False, "\u00e9"),
        "array": np.array([[1 + 2j, -0.0 + 0j], [complex(math.nan, 1.0), 3 - 1j]]),
        3: "int key", 2.5: [], (1, 2): {}, "k\u00e9": np.float64(math.nan),
    }
    emit_json(obj)
    assert capsys.readouterr().out == (
        '{"(1, 2)":{},"2.5":[],"3":"int key",'
        '"array":[[{"im":2,"re":1},{"im":0,"re":0}],[{"im":1,"re":NaN},{"im":-1,"re":3}]],'
        '"f32":0.10000000149011612,"f64":0.10000000000000001,"i64":-7,"inf":Infinity,'
        '"k\\u00e9":NaN,"nan":NaN,"neg_zero":-0,"ninf":-Infinity,'
        '"tuple":[1,2.5,null,true,false,"\u00e9"],'
        '"z":{"im":-Infinity,"re":1.5},"z64":{"im":2,"re":-0}}\n'
    )


@pytest.mark.parametrize("text", ["", "plain", 'quote " back \\ slash /',
                                  "tab\t nl\n nul\x00 us\x1f del\x7f",
                                  "\u00e9 \u2028 \U0001f600", "\ud83d lone"])
def test_strings_render_as_json_writes_them(text):
    # a value keeps its non-ASCII text and a key escapes it, as json.dumps does
    assert cli._render(text) == json.dumps(text, ensure_ascii=False)
    assert cli._render({text: 1}) == "{%s:1}" % json.dumps(text)


def _as_lists(obj):
    """``obj`` with every array replaced by its ``tolist()``, which
    :func:`cli._render` renders value by value."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


@pytest.mark.parametrize("array", [
    np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 1.0 / 3.0, -2.5e-310, 5e-324]),
    np.array([[complex(-0.0, -0.0), complex(math.nan, -math.inf)],
              [complex(math.inf, -0.0), complex(0.1, -1e-300)]]),
    np.arange(24.0).reshape(2, 3, 4) - 5.5,
    (np.arange(12.0) - 0.5j).reshape(2, 3, 2),
    np.float32([1.1, -0.0, math.nan]),
    np.zeros((2, 0)),
    np.array([[1, -2], [3, 4]]),
])
def test_arrays_render_as_their_lists(array):
    assert cli._render(array) == cli._render(array.tolist())


@pytest.mark.parametrize("m, n", [(23, 2), (13, 4)])
def test_matrices_json_renders_as_its_lists(monkeypatch, m, n):
    reports = []
    render = cli.emit_json
    monkeypatch.setattr(cli, "emit_json", lambda obj: reports.append(obj) or render(obj))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["matrices", "--M", str(m), "--N", str(n)]) == 0
    [report] = reports
    assert isinstance(report["clock"], np.ndarray) and report["clock"].shape == (m, m)
    assert out.getvalue() == cli._render(_as_lists(report)) + "\n"


_RUN = ["--M", "5", "--N", "3", "--alpha1", "0.7", "--alpha2", "-1.3"]
_FLUX, _ANGLES, _TAU = Flux(3, 5), VacuumAngles(0.7, -1.3), as_tau(RunConfig.tau)


def _basis():
    return build_basis(_FLUX, _TAU, _ANGLES)


def _s_invariance():
    basis = _basis()
    return s_invariance_residual(basis, modular_invariance_report(basis))


# every residual that matrices and verify report for _RUN, from the library
_LIBRARY = [
    ("matrices", "dual_q_commutation", lambda: q_commutation_residual(WeylAlgebra(3, 5, _ANGLES))),
    ("matrices", "q_commutation", lambda: q_commutation_residual(WeylAlgebra(5, 3, _ANGLES))),
    ("matrices", "sine_structure",
     lambda: sine_structure_residual(WeylAlgebra(5, 3), WeylWord(1, 0), WeylWord(0, 1))),
    ("matrices", "weyl_cocycle", lambda: weyl_cocycle_residual(WeylAlgebra(5, 3))),
    ("verify", "theta_quasi_periodicity", lambda: quasi_periodicity_residual(15, _TAU)),
    ("verify", "eta_functional_equations", lambda: eta_functional_residual(_TAU)),
    ("verify", "q_commutation_matrix", lambda: q_commutation_residual(WeylAlgebra(5, 3, _ANGLES))),
    ("verify", "weyl_cocycle_matrix", lambda: weyl_cocycle_residual(WeylAlgebra(5, 3))),
    ("verify", "sine_algebra_matrix", lambda: sine_algebra_residual(WeylAlgebra(5, 3))),
    ("verify", "sine_algebra_operator",
     lambda: sine_bracket_residual((1, 0), (0, 1), _FLUX, _TAU)),
    ("verify", "dual_commutation_operator",
     lambda: dual_commutation_residual((1, 0), (0, 1), _FLUX, _TAU)),
    ("verify", "holonomy_operator", lambda: plaquette_residual(_FLUX, _TAU)),
    ("verify", "holonomy_matrix", lambda: holonomy_residual(WeylAlgebra(5, 3, _ANGLES))),
    ("verify", "center_eigenvalues", lambda: center_eigen_residual(_basis())),
    ("verify", "lemma_eigenphases", lambda: lemma_eigenphase_residual(_basis())),
    ("verify", "gram_rank", lambda: gram_rank_residual(_basis())),
    ("verify", "bimodule_consistency", lambda: bimodule_residual(_basis())),
    ("verify", "commutant_and_span",
     lambda: commutant_and_span_residual(WeylAlgebra(5, 3, _ANGLES))),
    ("verify", "uq_sl2_relations", lambda: uq_sl2_residual(WeylAlgebra(5, 3))),
    ("verify", "orthogonality", lambda: overlap_residual(_basis())),
    ("verify", "partition_t_invariance",
     lambda: t_invariance_residual(modular_invariance_report(_basis()))),
    ("verify", "partition_s_invariance", _s_invariance),
]


@pytest.fixture(scope="module")
def reported():
    """``(command, name) -> (residual, note)`` of one matrices and one
    verify run at _RUN."""
    out = {}
    for command in ("matrices", "verify"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([command, *_RUN]) == 0
        rep = json.loads(buf.getvalue())
        if command == "matrices":
            out.update({(command, k): (v, None) for k, v in rep["residuals"].items()})
        else:
            out.update({(command, c["name"]): (c["residual"], c.get("note"))
                        for c in rep["checks"]})
    return out


@pytest.mark.parametrize("command, name, library", _LIBRARY,
                         ids=["%s.%s" % row[:2] for row in _LIBRARY])
def test_reported_residuals_are_the_library_values(reported, command, name, library):
    assert sorted(reported) == sorted(row[:2] for row in _LIBRARY)
    want = library()
    residual, note = want if isinstance(want, tuple) else (want, None)
    assert reported[command, name][0] == residual
    if note is not None:  # a bare library residual may get its note from the CLI
        assert reported[command, name][1] == note


def _nan_eta_at_the_first_point(monkeypatch):
    # the first eta the check forms is the first seeded point's; the
    # test's fixture empties the cache of the seeded residuals
    eta, calls = theta_module.dedekind_eta, []

    def first_nan(*args):
        calls.append(args)
        return complex("nan") if len(calls) == 1 else eta(*args)

    monkeypatch.setattr(theta_module, "dedekind_eta", first_nan)


def _nan_plaquette_spread(monkeypatch):
    flux = RunConfig().flux
    exact = cmath.exp(2j * math.pi * flux.numerator / flux.denominator)
    monkeypatch.setattr(fields, "plaquette_phase", lambda *args, **kwargs: (exact, math.nan))


def _nan_second_sine_word(monkeypatch):
    residual = matrices.sine_structure_residual
    monkeypatch.setattr(matrices, "sine_structure_residual", lambda algebra, a, b: (
        math.nan if a == WeylWord(1, 1) else residual(algebra, a, b)))


def _nan_one_overlap(monkeypatch):
    def nan_overlap(basis):
        gram = basis.gram.copy()
        gram[0, -1] = np.nan
        basis.__dict__["gram"] = gram  # where the cached property keeps it
        return basis

    faulty_states(monkeypatch, nan_overlap)


def _nan_last_uq_relation(monkeypatch):
    generators = matrices.uq_sl2_generators

    def last_nan(algebra):
        gens = generators(algebra)
        return gens._replace(residuals={**gens.residuals, list(gens.residuals)[-1]: math.nan})

    monkeypatch.setattr(matrices, "uq_sl2_generators", last_nan)


@pytest.mark.parametrize("name, inject", [
    ("eta_functional_equations", _nan_eta_at_the_first_point),
    ("holonomy_operator", _nan_plaquette_spread),
    ("sine_algebra_matrix", _nan_second_sine_word),
    ("orthogonality", _nan_one_overlap),
    ("uq_sl2_relations", _nan_last_uq_relation),
])
def test_one_nan_fails_its_verify_check(monkeypatch, fresh_eta_sample, name, inject):
    # a builtin max(x, nan) returns x: each of these folds once passed a NaN
    inject(monkeypatch)
    [(run, tol)] = [(fn, tol) for row, fn, tol in cli._verify_checks(RunConfig(), False)
                    if row == name]
    out = run()
    residual = out[0] if isinstance(out, tuple) else out
    assert math.isnan(residual) and not residual <= tol


def test_verify_rejects_non_coprime(capsys):
    assert main(["verify", "--M", "4", "--N", "2"]) == 2
    capsys.readouterr()


def test_stdout_is_deterministic(capsys):
    argv = ["theta", "--level", "3", "--residue", "1", "--z", "0.2+0.1i", "--tau", "0.3+1.1i"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


def test_verify_reports_deterministic_up_to_wall_time(capsys):
    def scrubbed():
        code, rep = run_json(capsys, ["verify", "--quad", "16"])
        assert code == 0
        for check in rep["checks"]:
            check.pop("wall_time")
        return rep

    assert scrubbed() == scrubbed()


def test_one_basis_has_one_node_set(capsys, monkeypatch):
    # every cell rule of a run reads the nodes of its basis: the module
    # once, and the state norms of the three Z~ of the invariance report
    nodes, calls = lll.quadrature_nodes, []

    def spy(basis):
        x, y = nodes(basis)
        calls.append((basis, (x.size, y.size)))
        return x, y

    for module in (lll, partition):
        monkeypatch.setattr(module, "quadrature_nodes", spy)
    code, rep = run_json(capsys, ["verify", "--quad", "16"])
    assert code == 0
    assert [size for _, size in calls] == [(16, 16)] * 4
    assert all(basis.cell_nodes == size for basis, size in calls)
    notes = {c["name"]: c.get("note", "") for c in rep["checks"]}
    for name in ("center_eigenvalues", "orthogonality", "bimodule_consistency"):
        assert "(n_x, n_y) = (16, 16)" in notes[name], name
    assert "(16, 16) at tau and tau+1" in notes["partition_t_invariance"]
    assert "(16, 16) at tau, (16, 16) at -1/tau" in notes["partition_s_invariance"]
    # and no cell-rule computation takes a node floor of its own
    for fn in (nodes, lll.state_norm, partition.z_tilde, partition.z_tilde_character_route,
               partition.modular_invariance_report):
        assert list(inspect.signature(fn).parameters) == ["basis"], fn.__name__


_RAISED_FLOOR_POINTS = [["--M", "7", "--N", "5", "--tau=-0.2+1.4i", "--alpha1", "0.7",
                         "--alpha2", "-1.3"],
                        ["--M", "13", "--N", "7", "--tau=0.02i"]]


@pytest.mark.parametrize("quad", ["16", "64"])
@pytest.mark.parametrize("point", _RAISED_FLOOR_POINTS, ids=["7,5-angles", "13,7-0.02i"])
def test_verify_passes_on_the_module_at_a_raised_floor(capsys, point, quad):
    code, rep = run_json(capsys, ["verify", *point, "--quad", quad])
    assert code == 0, [c for c in rep["checks"] if not c["pass"]]
    for check in rep["checks"]:
        if check["name"] in _MODULE_ROWS and "note" in check:
            n_x, n_y = re.search(r"\(n_x, n_y\) = \((\d+), (\d+)\)", check["note"]).groups()
            assert min(int(n_x), int(n_y)) >= int(quad), check["name"]


def test_lll_measures_its_eigenphases_at_its_floor(capsys, tmp_path):
    tables = {}
    for quad in ("8", "16"):
        out = tmp_path / quad
        assert main(["lll", "--M", "3", "--N", "2", "--alpha1", "0.7", "--quad", quad,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        tables[quad] = json.loads((out / "eigenphases.json").read_text())["eigenphases"]
    assert tables["8"] != tables["16"]
