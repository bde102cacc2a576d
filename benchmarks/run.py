#!/usr/bin/env python3
"""nctorus benchmark: seeded, closed-loop, single-process sweeps of the
``nctorus`` command through its entry point ``nctorus.cli.main(argv)``.

Usage, from the repository root::

    python3 benchmarks/run.py --workload partition-sweep --seed 1 --seconds 30 --trace 0

One client sends the next op when the previous one returns.  Every op's
stdout is captured and checked against oracles independent of nctorus
(see ``oracles.py``); failures are counted by reason and never stop the
run.  A run is a fixed number of whole cycles of ops (see
``workloads.py``), sized to take about ``--seconds`` on a 2-core x86 box.
With ``--trace 0`` it runs the cycles in ``PASSES`` passes, each pass
over twins of the same ops (same flux and strata, other ``tau``), times
a fixed reference kernel before every op, and reports the end-to-end
metrics from the fastest twin of each op, in units of the reference.
With ``--trace 1`` it runs each op untraced next to a twin with every
layer wrapped (see ``tracing.py``), and reports the per-layer metrics.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller report
goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, set before numpy loads: on a 2-core box the second
# thread only spins (a partition run took 12% longer with it), and a
# thread per core measures the host's scheduler more than the program.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))

import numpy  # noqa: E402

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # kept back for validating a later claim
# Twins per op in a timed run.  On the shared host the same op with the
# same inputs runs at one of two speeds, about 1.5x apart, that switch
# within a second and can hold for longer; the passes are spread over the
# run, so the fastest of an op's twins is rarely a slow one.
PASSES = 6
# A run stops sending ops after this many seconds, whatever is left, so
# that it ends within its time limit on a host many times slower.
TIME_CAP_S = 150.0
# Units of the raw figures printed next to the gated metrics.
RAW_UNITS = {"host_ref_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ok_per_s": "1/s",
             "fail_ratio": "ratio"}
# op_tail_ref percentile over the ops of one pass, fixed per workload.
TAIL_PERCENTILE = {"partition-sweep": 75, "verify-sweep": 75, "matrices-sweep": 90}

VERIFY_CHECKS = (
    "theta_quasi_periodicity", "eta_functional_equations",
    "q_commutation_matrix", "weyl_cocycle_matrix", "sine_algebra_matrix",
    "sine_algebra_operator", "dual_commutation_operator", "holonomy_operator",
    "holonomy_matrix", "center_eigenvalues", "lemma_eigenphases", "gram_rank",
    "bimodule_consistency", "commutant_and_span", "uq_sl2_relations",
    "orthogonality", "partition_t_invariance", "partition_s_invariance",
)

# A fresh interpreter imports nctorus from src and runs one op.
_SETUP_CHILD = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from nctorus.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
sys.exit(code)
"""


class BenchmarkError(RuntimeError):
    pass


@dataclass
class OpResult:
    op: workloads.Op
    seconds: float
    reason: str = None
    detail: str = None
    output_bytes: int = 0
    failed_checks: list = field(default_factory=list)


def environment(seed, threads_env) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "NCTORUS_THREADS_set": threads_env is not None,
        "NCTORUS_THREADS": threads_env,
        "blas_threads": {name: os.environ[name] for name in BLAS_THREADS},
    }


def measure_setup(workload) -> float:
    """Wall time for a fresh interpreter to import nctorus and finish one
    warm-up op."""
    argv = workloads.warmup_op(workload).argv()
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), *argv],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # A blocking wait: wait(timeout=...) polls in steps of up to 50 ms,
    # which showed as 50 ms steps in setup_s.
    guard = threading.Timer(120.0, child.kill)
    guard.start()
    try:
        code = child.wait()
    finally:
        guard.cancel()
    seconds = time.perf_counter() - t0
    if code != 0:
        raise BenchmarkError("set-up child exited with code %d" % code)
    return seconds


def import_cli():
    if not (SRC / "nctorus" / "cli.py").is_file():
        raise BenchmarkError("no nctorus sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    from nctorus import cli

    if Path(cli.__file__).resolve().parent != (SRC / "nctorus").resolve():
        raise BenchmarkError("imported nctorus from %s, not from src" % cli.__file__)
    return cli


def run_op(cli, op, tracer=None) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv()
    if tracer is not None:
        tracer.op_id = op.index
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # the script would exit nonzero with a traceback
        code = 1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    stdout = out.getvalue()
    reason, detail, doc = oracles.classify(op, code, stdout)
    failed_checks = []
    if op.command == "verify" and isinstance(doc, dict):
        failed_checks = [c["name"] for c in doc.get("checks", []) if not c.get("pass")]
    if reason == "exit_code":
        notes = [err.getvalue().strip()[-300:]]
        if failed_checks:
            notes.append("failed checks: " + ", ".join(failed_checks))
        detail = "; ".join([detail] + [n for n in notes if n])
    return OpResult(op, seconds, reason, detail, len(stdout.encode("utf-8")), failed_checks)


def run_ops(step, op_stream, count, start):
    """Closed loop of ``step(op)`` over the first ``count`` ops of
    ``op_stream``; no op starts later than ``TIME_CAP_S`` after ``start``."""
    out = []
    for op in itertools.islice(op_stream, count):
        if time.perf_counter() - start > TIME_CAP_S:
            print("time cap reached: %d of %d ops run" % (len(out), count), file=sys.stderr)
            break
        out.append(step(op))
    return out


class HostReference:
    """A fixed kernel, independent of nctorus, of the kinds of work the ops
    do: a dense SVD, small matrix products, vector exponentials and a
    pure-Python loop.  It takes 12-14 ms on a 2-core x86 box."""

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.dense = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self.small = (rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))) / 5.0
        self.points = rng.standard_normal(4096)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        numpy.linalg.svd(self.dense, compute_uv=False)
        m = self.small
        for _ in range(100):
            m = m @ self.small
        for k in range(20):
            numpy.exp(1j * (k + 1) * self.points).sum()
        z = 0j
        for i in range(20000):
            z = z * 0.5 + complex(i, 1.0)
        return time.perf_counter() - t0


def run_passes(cli, args, start):
    """The timed run: ``PASSES`` passes over twins of the same ops, with
    the reference kernel before each op and set-up timed before each pass
    and after the last.  Returns the op results, the host reference time
    of each pass (its fastest kernel run) and the set-up times."""
    count = workloads.run_length(args.workload, args.seconds, PASSES)
    reference = HostReference()
    results, pass_refs, setup_times = [], [], []
    for stream in range(PASSES):
        setup_times.append(measure_setup(args.workload))
        refs = []

        def step(op):
            refs.append(reference.seconds())
            return run_op(cli, op)

        results += run_ops(step, workloads.ops(args.workload, args.seed, stream), count, start)
        pass_refs.append(min(refs, default=math.nan))
    setup_times.append(measure_setup(args.workload))
    return results, pass_refs, setup_times


def fastest_twins(results, unit=None):
    """Per op index, the least time over its twins, each twin's time in
    units of ``unit[stream]`` when given."""
    best = {}
    for r in results:
        t = r.seconds / unit[r.op.stream] if unit else r.seconds
        best[r.op.index] = min(best.get(r.op.index, math.inf), t)
    return [best[i] for i in sorted(best)]


def traced_pair(cli, tracer, ops):
    """Run an untraced op and its traced twin (same flux, other ``tau``),
    alternating which goes first, so both see the same machine state."""
    untraced_op, traced_op = ops

    def traced():
        uninstall = tracing.install(tracer)
        try:
            return run_op(cli, traced_op, tracer)
        finally:
            uninstall()

    if untraced_op.index % 2:
        t = traced()
        return run_op(cli, untraced_op), t
    u = run_op(cli, untraced_op)
    return u, traced()


def tail(times, pct):
    """Nearest-rank ``pct`` percentile and the number of ops beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(results, pct, pass_refs, setup_times):
    """Gated metrics and the raw figures behind them.  The gated op times
    are taken in units of the host reference time of the twin's pass."""
    ratios = fastest_twins(results, pass_refs)
    times = fastest_twins(results)
    pass_ratio = sum(r.reason is None for r in results) / len(results)
    tail_ref, beyond = tail(ratios, pct)
    tail_s, _ = tail(times, pct)
    p50_s = statistics.median(times)
    ok_per_s = pass_ratio * len(times) / math.fsum(times)
    metrics = {
        "op_p50_ref": (statistics.median(ratios), "ref"),
        "op_tail_ref": (tail_ref, "ref"),
        "ok_per_ref": (pass_ratio * len(ratios) / math.fsum(ratios), "1/ref"),
        "pass_ratio": (pass_ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    raw = {"host_ref_s": statistics.median(pass_refs), "pass_ref_s": pass_refs,
           "op_p50_s": p50_s, "op_tail_s": tail_s, "ok_per_s": ok_per_s,
           "fail_ratio": 1.0 - pass_ratio, "setup_times_s": setup_times}
    return metrics, {"op_tail_percentile": pct, "op_tail_ops_beyond": beyond,
                     "ops_per_pass": len(times), "passes": PASSES, "raw": raw}


def per_layer(tracer, traced, untraced):
    n = len(traced)
    metrics = tracing.layer_metrics(tracer, n)
    metrics["cli.output_bytes"] = (sum(r.output_bytes for r in traced) / n, "B/op")
    failed = [name for r in traced for name in r.failed_checks]
    metrics["cli.checks_failed"] = (len(failed) / n, "count/op")
    for name in VERIFY_CHECKS:
        metrics["cli.checks_failed." + name] = (failed.count(name) / n, "count/op")
    metrics["trace_overhead_ratio"] = (
        math.fsum(r.seconds for r in traced) / math.fsum(r.seconds for r in untraced),
        "ratio",
    )
    return metrics


def failure_counts(results):
    counts = {reason: 0 for reason in oracles.REASONS}
    for r in results:
        if r.reason is not None:
            counts[r.reason] += 1
    return counts


def report(args, env, results, metrics, extra):
    counts = failure_counts(results)
    failed = sum(counts.values())
    attempted = len(results)
    print("nctorus benchmark: workload=%s seed=%d seconds=%s trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env: python=%s numpy=%s nproc=%s NCTORUS_THREADS=%s (ops run with it unset)"
          % (env["python"], env["numpy"], env["nproc"],
             env["NCTORUS_THREADS"] if env["NCTORUS_THREADS_set"] else "unset"))
    print("ops: %d attempted, %d failed, fail_ratio %.4f; by reason: %s"
          % (attempted, failed, failed / attempted,
             " ".join("%s=%d" % kv for kv in counts.items())))
    for key, value in extra.items():
        if key != "raw":
            print("%s: %s" % (key, value))
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print("  %-*s %.6g %s" % (width, name, value, unit))
    if "raw" in extra:
        print("raw figures, not gated:")
        for name, value in extra["raw"].items():
            unit = RAW_UNITS.get(name)
            if unit:
                print("  %-*s %.6g %s" % (width, name, value, unit))

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures_by_reason": counts,
        "failures": [
            {"argv": r.op.argv(), "K": r.op.level, "reason": r.reason, "detail": r.detail}
            for r in results if r.reason is not None
        ],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "ops": [
            {"index": r.op.index, "stream": r.op.stream, "M": r.op.m, "N": r.op.n,
             "tau": [r.op.tau.real, r.op.tau.imag],
             "quad": r.op.quad, "seconds": r.seconds, "reason": r.reason}
            for r in results
        ],
    }
    doc.update(extra)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": counts["oracle_mismatch"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": doc["metrics"],
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    threads_env = os.environ.pop("NCTORUS_THREADS", None)
    try:
        cli = import_cli()
        env = environment(args.seed, threads_env)
        run_op(cli, workloads.warmup_op(args.workload))  # untimed, unchecked
        start = time.perf_counter()
        if not args.trace:
            results, pass_refs, setup_times = run_passes(cli, args, start)
            metrics, extra = end_to_end(results, TAIL_PERCENTILE[args.workload], pass_refs, setup_times)
        else:
            tracer = tracing.Tracer()
            count = workloads.run_length(args.workload, args.seconds, 2)
            twins = zip(workloads.ops(args.workload, args.seed, 0),
                        workloads.ops(args.workload, args.seed, 1))
            pairs = run_ops(lambda ops: traced_pair(cli, tracer, ops), twins, count, start)
            untraced = [u for u, _ in pairs]
            traced = [t for _, t in pairs]
            metrics = per_layer(tracer, traced, untraced)
            results = untraced + traced
            RESULTS.mkdir(exist_ok=True)
            spans = RESULTS / ("spans-%s.npz" % args.workload)
            tracer.save(spans)
            extra = {"op_count": len(traced), "spans": len(tracer.start),
                     "spans_file": str(spans.relative_to(ROOT))}
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    report(args, env, results, metrics, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
