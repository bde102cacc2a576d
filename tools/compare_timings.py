"""Time the nctorus library at a git revision against the working tree.

    python tools/compare_timings.py <rev> [--rounds 100] [--warmup 10]

Run it from anywhere inside the repository.  The tree of ``<rev>`` is
unpacked with ``compare_outputs.unpack``, and each tree is imported by
its own child process with one BLAS thread.  Each child first runs every
workload ``--warmup`` times.  Then, ``--rounds`` times over, the driver
asks the two children for one repetition of each workload, one child
after the other in random order, and keeps the ratio of the two times,
working tree over revision: below 1 the working tree is faster.

The rounds are split over ``max(1, rounds // 25)`` child pairs, each
started afresh with an unused padding variable of its own length in its
environment: the environment's size moves the process's memory layout,
and one layout can favour one tree for a whole pair.

For each workload it prints the median ratio, a bootstrap 95% interval
of that median, the least and the largest of the child pairs' medians,
and each side's ``tracemalloc`` peak of one repetition.
The workloads call only names that both trees must share: ``cli.main``
on a few argvs, ``lll.gram_rank`` of a built basis,
``matrices.commutant_dimension`` of a ``WeylAlgebra``'s clock and shift,
and one workload per layer (``LAYERS``): the theta series, eta, the cell
table, the module, the state norms, the Weyl products and the JSON
rendering.  Only the children are timed, and they never run at once.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
import compare_outputs  # noqa: E402

# name -> calls per repetition, so that each repetition takes a millisecond or more
WORKLOADS = {
    "matrices --M 13 --N 7": 1,
    "matrices --M 24 --N 7": 1,
    "verify --M 5 --N 8": 1,
    "verify --M 9 --N 8": 1,
    "partition --M 7 --N 5 --alpha1 0.7 --alpha2 -1.3": 1,
    "partition --M 7 --N 5 --alpha1 0.7 --alpha2 -1.3 --quad 128": 1,
    "gram_rank(build_basis(Flux(8, 9)))": 20,
    "commutant_dimension(WeylAlgebra(24, 7).clock, .shift)": 20,
}
# layer -> (its workload, calls per repetition), each calling one layer's
# names on (M, N) = (7, 5), tau = 0.2+1.4i, angles (0.7, -1.3)
LAYERS = {
    "theta series": ("quasi_periodicity_residual(35, 0.2+1.4i)", 4),
    "eta": ("eta_functional_residual(0.2+1.4i)", 10),
    "eta, one point": ("dedekind_eta(0.2+1.4i)", 100),
    "cell table": ("ThetaField.cell_exponent(build_basis(Flux(5, 7)))", 20),
    "module": ("lemma and centre of a fresh build_basis(Flux(5, 7))", 1),
    "state norms": ("state_norm(build_basis(Flux(5, 7)))", 10),
    "Weyl products": ("weyl_cocycle_residual(WeylAlgebra(7, 5))", 10),
    "JSON rendering": ("_render(verify --M 7 --N 5)", 10),
}
WORKLOADS.update(LAYERS.values())


# ------------------------------------------------------------ the child


def _calls(src):
    """``name -> call`` of every workload, built in the child: the bases,
    the Weyl algebra, a clock/shift pair and the verify report are set up
    once, so a repetition times only its call; the module workload builds
    its basis afresh, since a basis measures its module once."""
    from nctorus import cli
    from nctorus.core import Flux, VacuumAngles

    if Path(cli.__file__).resolve().parent != (Path(src) / "nctorus").resolve():
        raise SystemExit("imported nctorus from %s, not from %s" % (cli.__file__, src))
    from nctorus.lll import (build_basis, center_eigen_residual, gram_rank,
                             lemma_eigenphase_residual, quadrature_nodes, state_norm)
    from nctorus.matrices import WeylAlgebra, commutant_dimension, weyl_cocycle_residual
    from nctorus.theta import dedekind_eta, eta_functional_residual, quasi_periodicity_residual

    def command(argv):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        return run

    calls = {name: command(name.split()) for name in WORKLOADS if name.split()[0] in
             ("matrices", "verify", "partition")}
    basis = build_basis(Flux(8, 9), 0.3 + 1.1j, VacuumAngles(0.7, -1.3))
    basis.gram  # measured once, as a verify op measures it before its rank
    calls["gram_rank(build_basis(Flux(8, 9)))"] = lambda: gram_rank(basis)
    big = WeylAlgebra(24, 7)
    pair = [big.clock, big.shift]
    calls["commutant_dimension(WeylAlgebra(24, 7).clock, .shift)"] = (
        lambda: commutant_dimension(pair))

    tau, angles = 0.2 + 1.4j, VacuumAngles(0.7, -1.3)
    states = build_basis(Flux(5, 7), tau, angles)
    y = quadrature_nodes(states)[1]
    algebra = WeylAlgebra(7, 5)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli.main(["verify", "--M", "7", "--N", "5"])
    report = json.loads(text.getvalue())

    def module():
        fresh = build_basis(Flux(5, 7), tau, angles)
        lemma_eigenphase_residual(fresh)
        center_eigen_residual(fresh)

    calls.update(zip((name for name, _ in LAYERS.values()), (
        lambda: quasi_periodicity_residual(35, tau),
        lambda: eta_functional_residual(tau),
        lambda: dedekind_eta(tau),
        lambda: states.field.cell_exponent(y),
        module,
        lambda: state_norm(states),
        lambda: weyl_cocycle_residual(algebra),
        lambda: cli._render(report))))
    return calls


def _repetition(call, inner) -> float:
    start = time.perf_counter()
    for _ in range(inner):
        call()
    return time.perf_counter() - start


def serve(src):
    """Answer the driver's lines on stdin: ``warmup <n>``, ``time <name>``
    (seconds of one repetition) and ``peak <name>`` (bytes), one JSON
    value per line on stdout."""
    sys.path.insert(0, str(src))
    reply = sys.stdout
    calls = _calls(src)
    for line in sys.stdin:
        verb, _, arg = line.rstrip("\n").partition(" ")
        if verb == "warmup":
            for _ in range(int(arg)):
                for name, inner in WORKLOADS.items():
                    _repetition(calls[name], inner)
            out = None
        elif verb == "time":
            out = _repetition(calls[arg], WORKLOADS[arg])
        elif verb == "peak":
            tracemalloc.start()
            try:
                _repetition(calls[arg], 1)
                out = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        else:
            raise SystemExit("unknown request %r" % line)
        reply.write(json.dumps(out) + "\n")
        reply.flush()


# ----------------------------------------------------------- the driver


class Child:
    """A child process serving one tree, with ``pad`` bytes of padding in
    its environment."""

    def __init__(self, src, pad):
        env = dict(compare_outputs.child_env(), COMPARE_TIMINGS_PAD="x" * pad)
        self.proc = subprocess.Popen([sys.executable, __file__, "--child", str(src)],
                                     env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def ask(self, request):
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("child ended on %r" % request)
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def _bootstrap(ratios, rng, draws=2000):
    """The 2.5 and 97.5 percentiles of the median over resamples."""
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(draws))
    return medians[int(0.025 * draws)], medians[int(0.975 * draws) - 1]


def compare(old_src, new_src, rounds, warmup, names=None) -> list:
    """One row per workload: ``{"name", "median", "low", "high",
    "child_low", "child_high", "peak_old", "peak_new", "pairs",
    "children"}``, the ratios new over old; ``child_low`` and
    ``child_high`` are the least and the largest median of one child
    pair's ratios, and the peaks are the last child pair's."""
    names = list(names or WORKLOADS)
    rng = random.Random(0)  # the order of each pair, then the resamples
    children = max(1, rounds // 25)
    ratios = {name: [] for name in names}
    child_medians = {name: [] for name in names}
    for index in range(children):
        pad = 97 * index  # an odd step: each pair's environment ends at another alignment
        pair = {"old": Child(old_src, pad), "new": Child(new_src, pad)}
        try:
            for child in pair.values():
                child.ask("warmup %d" % warmup)
            share = {name: [] for name in names}
            for _ in range(rounds // children + (index < rounds % children)):
                for name in names:
                    order = ["old", "new"]
                    rng.shuffle(order)
                    times = {side: pair[side].ask("time " + name) for side in order}
                    share[name].append(times["new"] / times["old"])
            peaks = {side: {name: child.ask("peak " + name) for name in names}
                     for side, child in pair.items()}
        finally:
            for child in pair.values():
                child.close()
        for name in names:
            ratios[name] += share[name]
            child_medians[name].append(statistics.median(share[name]))
    rows = []
    for name in names:
        low, high = _bootstrap(ratios[name], rng)
        rows.append({"name": name, "median": statistics.median(ratios[name]), "low": low,
                     "high": high, "child_low": min(child_medians[name]),
                     "child_high": max(child_medians[name]), "peak_old": peaks["old"][name],
                     "peak_new": peaks["new"][name], "pairs": len(ratios[name]),
                     "children": children})
    return rows


def report(rows, label) -> str:
    """The table of :func:`compare`'s rows against the revision ``label``."""
    width = max(len(row["name"]) for row in rows)
    lines = ["%-*s  %6s  %-16s  %-16s  %12s  %12s" % (
        width, "workload", "ratio", "95% interval", "child medians", "peak rev", "peak tree")]
    for row in rows:
        lines.append("%-*s  %6.3f  [%.3f, %.3f]    [%.3f, %.3f]    %9.1f KB  %9.1f KB" % (
            width, row["name"], row["median"], row["low"], row["high"], row["child_low"],
            row["child_high"], row["peak_old"] / 1024, row["peak_new"] / 1024))
    lines.append("ratio: median of %d pairs, the working tree's time over %s's; child "
                 "medians: least and largest median of %d child pairs"
                 % (rows[0]["pairs"], label, rows[0]["children"]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to time the working tree against")
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--warmup", type=int, default=10)
    parser.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        serve(args.child)
        return 0
    if not args.rev:
        parser.error("give a revision")
    with tempfile.TemporaryDirectory() as tmp:
        compare_outputs.unpack(args.rev, tmp)
        rows = compare(Path(tmp) / "src", compare_outputs.ROOT / "src", args.rounds,
                       args.warmup)
    print(report(rows, args.rev))
    return 0


if __name__ == "__main__":
    sys.exit(main())
