"""The benchmark's tracer wraps nctorus functions by name: each name it
lists must exist, a traced ``verify`` run must record the module checks
and the theta series through the names the tracer wraps, and a traced
``partition`` run must record both partition routes.  ``BENCHMARK.json``
counts failures per ``verify`` check under the check's name."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np

from nctorus import cli

TRACING = Path(__file__).parents[1] / "benchmarks" / "tracing.py"
BENCHMARK = Path(__file__).parents[1] / "BENCHMARK.json"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("nctorus_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_listed_function():
    tracing = _load_tracing()
    modules = {layer: importlib.import_module("nctorus." + layer) for layer in tracing.LAYERS}
    originals = {(layer, name): getattr(modules[layer], name)
                 for layer, names in tracing._FUNCTIONS.items() for name in names}
    lstsq = np.linalg.lstsq
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--M", "2", "--N", "1"]) == 0
        spans = tracer.summary()
        # the translations, the module checks, the centre among them, and the theta check
        for name in ("lll.center_eigen_residual", "lll.elementary_translation", "lll.gram_rank",
                     "theta.theta"):
            assert spans[name][0] > 0, name
    finally:
        uninstall()
    assert np.linalg.lstsq is lstsq
    for (layer, name), fn in originals.items():
        assert getattr(modules[layer], name) is fn


def test_traced_partition_records_states_and_series():
    tracing = _load_tracing()

    def traced(argv):
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        finally:
            uninstall()
        return tracer

    # both partition routes sum their series in private theta routines the
    # tracer does not wrap: the states on the cell grid, the character
    # route all K residues in one run
    spans = traced(["partition", "--M", "3", "--N", "2"]).summary()
    for name in ("partition.state_norm", "partition.z_tilde_character_route"):
        assert spans[name][0] > 0, name
    # verify's theta check calls theta, counted through theta.truncation_bound
    tracer = traced(["verify", "--M", "3", "--N", "2"])
    assert tracer.summary()["theta.theta"][0] > 0
    assert tracer.counters["theta.series_terms"] > tracer.counters["theta.points"] > 0


def test_verify_checks_are_the_benchmark_failure_counters():
    # the benchmark counts failures per check under these names, in this order
    prefix = "cli.checks_failed."
    per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
    counted = [m["name"][len(prefix):] for m in per_layer if m["name"].startswith(prefix)]
    assert [name for name, _, _ in cli._verify_checks(cli.RunConfig(), False)] == counted
