"""The benchmark's tracer wraps nctorus functions by name: each name it
lists must exist, a traced ``verify`` run must record the fits, and a
traced ``partition`` run must record state evaluation and the theta
series through the names the tracer wraps."""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np

from nctorus import cli

TRACING = Path(__file__).parents[1] / "benchmarks" / "tracing.py"


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
        assert tracer.summary()["lll.fit"][0] > 0
    finally:
        uninstall()
    assert np.linalg.lstsq is lstsq
    for (layer, name), fn in originals.items():
        assert getattr(modules[layer], name) is fn


def test_traced_partition_records_states_and_series():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["partition", "--M", "3", "--N", "2"]) == 0
    finally:
        uninstall()
    spans = tracer.summary()
    for name in ("lll._eval_terms", "theta.theta_derivative", "theta.theta",
                 "partition.state_norm", "partition.z_tilde_character_route"):
        assert spans[name][0] > 0, name
    # counted through theta.truncation_bound
    assert tracer.counters["theta.series_terms"] > tracer.counters["theta.points"] > 0
