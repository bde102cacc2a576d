import json

import pytest

from nctorus.cli import RunConfig, UsageError, main, parse_complex
from nctorus.core import VacuumAngles
from nctorus.matrices import holonomy_residual, q_commutation_residual, weyl_cocycle_residual

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
