import io
import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from nctorus import cli, partition
from nctorus.cli import RunConfig, UsageError, emit_json, main, parse_complex
from nctorus.core import Flux, VacuumAngles
from nctorus.fields import Field
from nctorus.lll import build_basis
from nctorus.matrices import holonomy_residual, q_commutation_residual, weyl_cocycle_residual
from nctorus.partition import z_tilde

ETA_I = 0.7682254223260566590025942  # 50-digit oracle
THETA_1_0_AT_I = 1.0864348112133080145  # sqrt(2) * eta(i)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def nan_states(monkeypatch):
    """Every basis the CLI builds holds ground states that evaluate to
    NaN, so each sample, fit and quadrature of them is non-finite."""
    build = cli.build_basis

    def build_nan(*args, **kwargs):
        basis = build(*args, **kwargs)
        for label, state in basis.states.items():
            basis.states[label] = Field(
                lambda w, wbar: np.full(np.shape(w), np.nan, dtype=complex),
                state.tau, state.im_tau_weight,
            )
        return basis

    monkeypatch.setattr(cli, "build_basis", build_nan)


def test_parse_complex():
    assert parse_complex("i") == 1j
    assert parse_complex("0.3+1.1i") == 0.3 + 1.1j
    assert parse_complex("2i") == 2j
    assert parse_complex("1") == 1.0 + 0j
    assert parse_complex("-1.5-0.25i") == -1.5 - 0.25j
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


@pytest.mark.parametrize("argv", [
    ["theta", "--level", "1", "--tau=1e-9i"],
    ["theta", "--level", "3", "--tau=1i", "--z=1e300i"],
    ["eta", "--tau=1e-9i"],
    ["partition", "--tau=1e-7i"],
])
def test_computations_that_cannot_finish_fail_with_one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: TruncationError: ")


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


def test_verify_reaches_eta_beyond_q_underflow(capsys):
    # -1/tau = 1000i: the S-transformed Z~ needs eta where q underflows;
    # the run reports every check and fails only the small-Im-tau ones
    code, rep = run_json(capsys, ["verify", "--tau=1e-3i"])
    assert code == 1
    failing = {c["name"] for c in rep["checks"] if not c["pass"]}
    assert "partition_s_invariance" not in failing
    assert failing <= {"lemma_eigenphases", "bimodule_consistency", "partition_t_invariance"}


@pytest.mark.parametrize("command", ["lll", "matrices", "partition", "verify"])
def test_flag_defaults_are_the_run_config_defaults(command):
    assert cli._config_from(cli.build_parser().parse_args([command])) == RunConfig()


@pytest.mark.parametrize("z", ["nan", "nani", "1e400i"])
def test_theta_rejects_non_finite_z(capsys, z):
    assert main(["theta", "--level", "3", "--tau=1i", "--z=" + z]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--z" in captured.err


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
    # the per-state route runs at tau, tau+1 and -1/tau only: K state
    # norms each, and the printed z_tilde is the one at tau
    calls = []
    state_norm = partition.state_norm
    monkeypatch.setattr(partition, "state_norm", lambda *a, **kw: calls.append(a) or state_norm(*a, **kw))
    code, rep = run_json(capsys, ["partition", "--M", "3", "--N", "2"])
    assert code == 0
    assert len(calls) == 3 * 6
    monkeypatch.undo()
    assert rep["z_tilde"] == z_tilde(build_basis(Flux(2, 3), 0.3 + 1.1j))


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_partition_reports_an_overflowing_closed_form(capsys):
    # exp(b*alpha1**2/(2*pi*K)) = exp(1108): Z~ leaves double range, and
    # the report still says so next to the two routes
    assert main(["partition", "--M", "1", "--N", "1", "--tau=200i", "--alpha1", "5.9"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["z_tilde_closed_form"] == math.inf
    assert not math.isfinite(rep["z_tilde"])


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


@pytest.mark.parametrize("tau", ["0.01i", "50i"])
def test_verify_passes_at_small_and_large_im_tau(capsys, tau):
    # at 0.01i the cell integrand has x-modes up to about 100: a fixed
    # 64-node axis left Z~ 8.8e-3 off and failed partition_t_invariance
    code, rep = run_json(capsys, ["verify", "--tau=" + tau])
    assert code == 0, [c for c in rep["checks"] if not c["pass"]]


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lll_failed_fit_writes_nothing(tmp_path, capsys, monkeypatch):
    # with NaN states the fit samples are not finite: the fit cannot
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


def test_verify_defaults_pass(capsys):
    code, rep = run_json(capsys, ["verify"])
    assert code == 0
    assert rep["pass"] is True
    names = [c["name"] for c in rep["checks"]]
    assert "q_commutation_matrix" in names
    assert "partition_s_invariance" in names
    for check in rep["checks"]:
        assert {"name", "residual", "tolerance", "pass", "wall_time"} <= set(check)
        assert check["pass"] is True


@pytest.mark.parametrize("m, n", [(3, 2), (2, 1), (1, 1)])
def test_verify_injected_fault_fails(capsys, m, n):
    # M <= 2 makes q = e^{2 pi i N/M} real, so the fault must not be a
    # complex conjugation
    code, rep = run_json(capsys, ["verify", "--inject-fault", "--M", str(m), "--N", str(n)])
    assert code == 1
    assert rep["pass"] is False
    failing = [c["name"] for c in rep["checks"] if not c["pass"]]
    assert failing == ["q_commutation_matrix"]


def test_verify_passes_beyond_the_six_by_six_grid(capsys):
    # K = 39 > 36: the fits must size their own sample grid
    code, rep = run_json(capsys, ["verify", "--M", "13", "--N", "3"])
    assert code == 0
    assert rep["pass"] is True


def test_verify_fails_checks_that_cannot_compute(capsys, monkeypatch):
    # with NaN states the fits raise LinAlgError, the center relations and
    # the quadratures return NaN, and the theta residual is made NaN; each
    # of these is its own check's failure rather than a usage error or a pass
    nan_states(monkeypatch)
    monkeypatch.setattr(cli, "quasi_periodicity_residual", lambda *args: math.nan)
    code = main(["verify", "--M", "3", "--N", "2", "--tau=50i"])
    out = capsys.readouterr().out
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    checks = {c["name"]: c for c in rep["checks"]}
    failing = {name for name, c in checks.items() if not c["pass"]}
    fits = {"lemma_eigenphases": 1e-7, "gram_rank": 0.5, "bimodule_consistency": 1e-6}
    assert failing >= set(fits) | {
        "center_eigenvalues", "partition_t_invariance", "partition_s_invariance"
    }
    assert math.isnan(checks["center_eigenvalues"]["residual"])
    for name, tol in fits.items():
        assert checks[name]["tolerance"] == tol
        assert checks[name]["note"].startswith("LinAlgError: ")
    # a NaN theta residual must not fold into a pass
    assert not checks["theta_quasi_periodicity"]["pass"]
    assert math.isnan(checks["theta_quasi_periodicity"]["residual"])


def test_verify_at_large_im_tau_fails_only_the_raw_theta_check(capsys):
    code, rep = run_json(capsys, ["verify", "--M", "3", "--N", "2", "--tau=50i"])
    assert code == 0
    failing = [c for c in rep["checks"] if not c["pass"]]
    assert failing == []


@pytest.mark.parametrize("tau", ["20i", "50i"])
def test_verify_at_large_im_tau_passes_silently(capsys, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--M", "3", "--N", "2", "--tau=" + tau])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert json.loads(captured.out)["pass"] is True


def test_partition_checks_catch_a_wrong_angle_map(capsys, monkeypatch):
    # the transformed bases drop alpha1: Z~ at tau + 1 and at -1/tau then
    # misses the Gaussian factor exp(Im tau*alpha1**2/(2*pi*K)) of the run
    build = partition.build_basis

    def build_without_alpha1(flux, tau, angles, policy):
        return build(flux, tau, VacuumAngles(0.0, angles.alpha2), policy)

    monkeypatch.setattr(partition, "build_basis", build_without_alpha1)
    code, rep = run_json(capsys, ["verify", "--alpha1", "2.0"])
    assert code == 1
    failing = [c["name"] for c in rep["checks"] if not c["pass"]]
    assert failing == ["partition_t_invariance", "partition_s_invariance"]


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
    assert "DFT matrix is unitary" in notes["orthogonality"]
    assert "ideal clock/shift matrices" in notes["commutant_and_span"]
    t_note = notes["partition_t_invariance"]
    assert t_note.startswith("holds by construction where the quadrature resolves")
    assert "only through Im tau and |eta|" in t_note
    held = [name for name, note in notes.items() if "holds by construction" in note]
    assert sorted(held) == ["commutant_and_span", "orthogonality", "partition_t_invariance"]


def test_failed_fits_print_nothing_but_json(tmp_path, capfd, monkeypatch):
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


def test_non_finite_floats_render_as_json_reads_them():
    stream = io.StringIO()
    text = emit_json({"a": [math.nan, math.inf, -math.inf, 0.5]}, stream)
    assert text == '{"a":[NaN,Infinity,-Infinity,0.5]}\n'
    assert stream.getvalue() == text
    values = json.loads(text)["a"]
    assert math.isnan(values[0]) and values[1:] == [math.inf, -math.inf, 0.5]


def test_render_covers_numpy_complex_and_non_finite_values():
    obj = {
        "f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7),
        "neg_zero": -0.0, "nan": math.nan, "inf": math.inf, "ninf": -math.inf,
        "z": complex(1.5, -math.inf), "z64": np.complex128(complex(-0.0, 2.0)),
        "tuple": (1, 2.5, None, True, False, "\u00e9"),
        "array": np.array([[1 + 2j, -0.0 + 0j], [complex(math.nan, 1.0), 3 - 1j]]),
        3: "int key", 2.5: [], (1, 2): {}, "k\u00e9": np.float64(math.nan),
    }
    assert emit_json(obj, io.StringIO()) == (
        '{"(1, 2)":{},"2.5":[],"3":"int key",'
        '"array":[[{"im":2,"re":1},{"im":0,"re":0}],[{"im":1,"re":NaN},{"im":-1,"re":3}]],'
        '"f32":0.10000000149011612,"f64":0.10000000000000001,"i64":-7,"inf":Infinity,'
        '"k\\u00e9":NaN,"nan":NaN,"neg_zero":-0,"ninf":-Infinity,'
        '"tuple":[1,2.5,null,true,false,"\u00e9"],'
        '"z":{"im":-Infinity,"re":1.5},"z64":{"im":2,"re":-0}}\n'
    )


def test_reported_residuals_are_the_library_values(capsys):
    m, n, angles = 5, 3, VacuumAngles(0.7, -1.3)
    flags = ["--M", str(m), "--N", str(n), "--alpha1", "0.7", "--alpha2", "-1.3"]
    _, mat = run_json(capsys, ["matrices"] + flags)
    assert mat["residuals"]["weyl_cocycle"] == weyl_cocycle_residual(m, n)
    assert mat["residuals"]["q_commutation"] == q_commutation_residual(m, n, angles)
    _, ver = run_json(capsys, ["verify"] + flags)
    residual = {c["name"]: c["residual"] for c in ver["checks"]}
    assert residual["weyl_cocycle_matrix"] == weyl_cocycle_residual(m, n)
    assert residual["holonomy_matrix"] == holonomy_residual(m, n, angles)
    assert residual["q_commutation_matrix"] == q_commutation_residual(m, n, angles)


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
