"""The output comparison tool, ``tools/compare_outputs.py``, on the tree
under test against itself."""

import importlib.util
import json
from pathlib import Path

import nctorus

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tree_under_test_matches_itself(capsys):
    # a sweep op, a verify run (its wall times masked), a usage error and an
    # lll run (its output directory masked, its files read) of the built
    # list, each tree in its own child process
    tool = _tool()
    cases = tool.build_cases()
    picked = [cases[0], next(c for c in cases if c[:1] == ["verify"]),
              next(c for c in cases if c[:1] == ["bogus"]),
              next(c for c in cases if c[:1] == ["lll"] and "--M" in c)]
    src = Path(nctorus.__file__).resolve().parents[1]
    old, new = (tool.run_tree(src, picked, timeout=300) for _ in range(2))
    assert tool.compare(picked, old, new) == 0
    assert capsys.readouterr().out == "4 of 4 cases identical\n"
    assert [r["code"] for r in new] == [0, 0, 2, 0]
    assert '"wall_time":0}' in new[1]["stdout"]
    assert '"output_dir":"{out}"' in new[3]["stdout"] and "eigenphases.json" in new[3]["files"]


def test_moved_residuals_and_flipped_passes_are_reported():
    tool = _tool()

    def result(code, residual, ok, stderr=""):
        report = {"checks": [{"name": "gram_rank", "pass": ok, "residual": residual}],
                  "pass": ok}
        return {"code": code, "stdout": json.dumps(report), "stderr": stderr, "files": {}}

    assert tool.diff_case(result(0, 0.0, True), result(0, 0.0, True)) == []
    assert tool.diff_case(result(0, 0.0, True), result(1, 0.75, False, "late")) == [
        "exit code 0 -> 1", "stderr '' -> 'late'", "/checks/gram_rank/pass flipped True -> False",
        "/pass flipped True -> False", "/checks/gram_rank/residual moved 0.75 (0.0 -> 0.75)"]


def test_the_report_ends_with_the_largest_move_per_key(capsys):
    # one line per moved key, in stdout and in a JSON file: its largest
    # move over the differing cases, how many it moved in, and which case
    tool = _tool()

    def result(residual, phase=0.5):
        report = {"checks": [{"name": "gram_rank", "pass": True, "residual": residual}],
                  "pass": True}
        return {"code": 0, "stdout": json.dumps(report), "stderr": "",
                "files": {"eigenphases.json": json.dumps({"phase": [1.0, phase]})}}

    cases = [["verify", "--M", "1"], ["verify", "--M", "2"], ["theta"]]
    old = [result(0.0)] * 3
    new = [result(1e-16), result(3e-16, 0.5 + 2e-16), result(0.0)]
    assert tool.compare(cases, old, new) == 2
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "1 of 3 cases identical",
        "largest move per key over the 2 differing cases:",
        "    /checks/gram_rank/residual moved 3e-16 (0.0 -> 3e-16) in 2 cases, "
        "largest in: verify --M 2",
        "    eigenphases.json:/phase/* moved 2.22e-16 (0.5 -> 0.5000000000000002) in 1 cases, "
        "largest in: verify --M 2"]


def test_a_nan_move_stays_the_largest(capsys):
    # a residual that stops being NaN is the largest move of its key, and
    # no later, smaller move takes its place, in a case or over the cases
    tool = _tool()

    def result(*residuals):
        return {"code": 0, "stdout": json.dumps({"residual": residuals}), "stderr": "",
                "files": {}}

    cases = [["verify", "--M", "1"], ["verify", "--M", "2"], ["verify", "--M", "3"]]
    old = [result(0.0, 0.0), result(float("nan"), 0.0), result(0.0, 0.0)]
    new = [result(5e-13, 0.0), result(0.0, 1e-16), result(1e-15, 0.0)]
    assert tool.diff_case(old[1], new[1]) == ["/residual/* moved nan (nan -> 0.0)"]
    assert tool.compare(cases, old, new) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "    /residual/* moved nan (nan -> 0.0) in 3 cases, largest in: verify --M 2")
