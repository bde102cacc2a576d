"""The timing comparison tool, ``tools/compare_timings.py``, on the tree
under test against itself: the report's shape, not any ratio."""

import importlib.util
from pathlib import Path

import nctorus

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("compare_timings",
                                                  ROOT / "tools" / "compare_timings.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_report_has_one_row_per_workload():
    tool = _tool()
    names = ["matrices --M 13 --N 7", "commutant_dimension(WeylAlgebra(24, 7).clock, .shift)"]
    assert set(names) <= set(tool.WORKLOADS)
    src = Path(nctorus.__file__).resolve().parents[1]
    rows = tool.compare(src, src, rounds=3, warmup=1, names=names)
    assert [row["name"] for row in rows] == names
    for row in rows:
        assert row["pairs"] == 3 and row["children"] == 1  # one child pair below 25 rounds
        assert 0 < row["low"] <= row["high"] and row["median"] > 0
        assert row["child_low"] == row["child_high"] == row["median"]
        assert row["peak_old"] > 0 and row["peak_new"] > 0
    lines = tool.report(rows, "HEAD").splitlines()
    assert len(lines) == len(names) + 2
    assert lines[0].split()[:2] == ["workload", "ratio"]
    assert "child medians" in lines[0]
    assert [line.startswith(name) for line, name in zip(lines[1:], names)] == [True, True]
    for line, row in zip(lines[1:], rows):  # the child medians follow the 95% interval
        assert line.count("[") == 2
        assert line.split("[")[2].startswith("%.3f, %.3f]" % (row["child_low"], row["child_high"]))
    assert lines[-1] == ("ratio: median of 3 pairs, the working tree's time over HEAD's; "
                         "child medians: least and largest median of 1 child pairs")


def test_every_layer_has_a_workload():
    # aim 1's layers, each timed in a child of the tree under test
    tool = _tool()
    assert list(tool.LAYERS) == ["theta series", "eta", "eta, one point", "cell table", "module",
                                 "state norms", "Weyl products", "JSON rendering"]
    names = [name for name, _ in tool.LAYERS.values()]
    assert set(tool.LAYERS.values()) <= set(tool.WORKLOADS.items())
    src = Path(nctorus.__file__).resolve().parents[1]
    rows = tool.compare(src, src, rounds=1, warmup=0, names=names)
    assert [row["name"] for row in rows] == names
    for row in rows:
        assert row["median"] > 0 and row["peak_old"] > 0 and row["peak_new"] > 0
