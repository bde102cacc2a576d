"""Compare the nctorus command's output at a git revision with the working tree.

    python tools/compare_outputs.py <rev>

Run it from anywhere inside the repository.  The tree of ``<rev>`` is
unpacked with ``git archive`` into a temporary directory, and the case
list of :func:`build_cases` runs through ``nctorus.cli.main`` in one
child process per tree, in process and in order, with one BLAS thread.
A case is its argv; ``{out}`` in it stands for a fresh output
directory, whose files are compared too.  Before comparing, each
``verify`` check's ``wall_time`` and the output directory's path are
masked.

Each case that differs in stdout, exit code, stderr or files is printed
with its argv and, for JSON reports and JSON files, the largest move of
each number that moved and each ``pass`` that flipped.  The report ends
with one line per moved number key: its largest move over all differing
cases, the number of cases it moved in, and the case it came from.  The
exit code is 0 when every case is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = "{out}"
_WALL_TIME = re.compile(r'"wall_time":[^,}]*')
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# ----------------------------------------------------------- case list


def build_cases() -> list:
    """The case list: the first 42 ops of streams 0 and 1 of seeds 1 and 7
    of the three benchmark sweeps, ``verify`` and ``partition`` over
    fluxes, ``tau``, angles, ``--quad`` and ``--eps``, the other commands,
    usage errors, ``lll`` runs with their files, three more ``verify``
    runs, six runs whose states leave double range, a ``partition``
    whose state norms and two ``squeeze`` runs whose values leave it, and
    ``matrices`` at M = 24 and M = 1 with a ``partition`` whose character
    route leaves it, an ``lll`` run at K = 91 on a 12 x 12 grid, eight
    runs whose certified counts reach the term cap or the theta cutoff's
    guard, five runs whose ``--eps`` puts eta's tail bound or the cell
    rule's ``2 / epsilon`` past double range, a ``partition`` whose
    character route takes each step as one exponential, four runs at a
    valid flux too large to build, five runs at angles whose state norms
    leave the exponent range, and two signed values with an exponent after
    their flag."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import workloads

    cases = []
    for workload, seed, stream in itertools.product(workloads.WORKLOADS, (1, 7), (0, 1)):
        ops = workloads.ops(workload, seed, stream)
        cases += [op.argv() for op in itertools.islice(ops, 42)]
    fluxes = ((1, 1), (2, 1), (3, 2), (7, 5), (11, 7), (13, 7))
    taus = ("0.001i", "0.01i", "0.3+1.1i", "-0.2+1.4i", "30i", "1000i")
    angles = ((), ("--alpha1", "0.7", "--alpha2", "-1.3"))
    for command, (m, n), tau, angle in itertools.product(("verify", "partition"), fluxes,
                                                        taus, angles):
        cases.append([command, "--M", str(m), "--N", str(n), "--tau=" + tau, *angle])
    for command, (m, n), tau, option in itertools.product(
            ("verify", "partition"), ((3, 2), (13, 7)), ("0.01i", "0.3+1.1i", "1000i"),
            (("--quad", "8"), ("--quad", "64"), ("--quad", "128"),
             ("--eps", "1e-6"), ("--eps", "1e-14"))):
        cases.append([command, "--M", str(m), "--N", str(n), "--tau=" + tau, *angles[1], *option])
    cases += [
        ["theta", "--level", "6", "--residue", "2", "--z", "0.3-0.2i", "--tau", "0.1+1.2i"],
        ["theta", "--level", "1", "--tau", "i"],
        ["eta", "--tau", "0.2+0.9i"],
        ["eta", "--tau", "1e-4i"],
        ["squeeze", "--tau", "-0.4+2i"],
        ["matrices", "--M", "5", "--N", "3", "--alpha1", "0.7", "--alpha2", "-1.3"],
        ["verify", "--inject-fault"],
        ["verify", "--M", "1", "--N", "1", "--tau=1e5i", "--alpha1", "0.7", "--alpha2", "-1.3"],
        ["partition", "--M", "1", "--N", "8", "--tau=0.17+0.8i", "--eps", "1e-4"],
    ]
    cases += [  # usage errors
        [],
        ["bogus"],
        ["verify", "--M", "0"],
        ["verify", "--M", "2", "--N", "4"],
        ["partition", "--tau", "-1i"],
        ["partition", "--eps", "2"],
        ["verify", "--quad", "4"],
        ["theta", "--level", "0", "--tau", "i"],
        ["theta", "--level", "3", "--residue", "3", "--tau", "i"],
        ["theta", "--level", "3", "--z", "nan", "--tau", "i"],
        ["theta", "--level", "3", "--z", "inf", "--tau", "i"],
        ["eta", "--tau", "0"],
        ["squeeze", "--tau", "1"],
        ["matrices", "--M", "3", "--N", "3"],
        ["lll", "--grid", "0", "--out", OUT],
    ]
    cases += [
        ["lll", "--M", "2", "--N", "3", "--grid", "4", "--out", OUT],
        ["lll", "--M", "3", "--N", "2", "--tau=-0.2+1.4i", "--alpha1", "0.7", "--alpha2", "-1.3",
         "--grid", "3", "--quad", "16", "--out", OUT],
        ["lll", "--M", "1", "--N", "1", "--tau=0.01i", "--grid", "2", "--out", OUT],
    ]
    # the one command that reads the states pointwise, at K = 35, 77 and 91
    for (m, n), tau in itertools.product(((7, 5), (11, 7), (13, 7)), ("0.02i", "1.1i", "1e3i")):
        cases.append(["lll", "--M", str(m), "--N", str(n), "--tau=" + tau, *angles[1],
                      "--grid", "3", "--out", OUT])
    cases += [  # a large level, the states' overflow with angles, and a phase argument of 23
        ["verify", "--M", "34", "--N", "21", *angles[1]],
        ["verify", "--M", "2", "--N", "1", "--tau=1e5i", *angles[1]],
        ["verify", "--M", "1", "--N", "23"],
    ]
    # states past double range at small K: the module rows, the lll CSV
    # guard and theta's own guard
    cases += [["verify", "--M", m, "--N", "1", "--tau=" + tau, "--alpha1", "6"]
              for m, tau in (("1", "300i"), ("3", "1000i"), ("2", "1300i"))]
    cases += [
        ["lll", "--M", "1", "--N", "1", "--tau=1e5i", "--alpha1", "0.7", "--out", OUT],
        ["lll", "--M", "2", "--N", "1", "--tau=1e5i", *angles[1], "--out", OUT],
        ["theta", "--level", "1", "--tau=i", "--z=0+30i"],
    ]
    # state norms past double range, and squeeze at valid but extreme tau
    cases += [
        ["partition", "--M", "1", "--N", "1", "--tau=300i", "--alpha1", "6"],
        ["squeeze", "--tau=1e300i"],
        ["squeeze", "--tau=1e-300i"],
    ]
    # the matrices sweep's largest M (the largest word table) and M = 1, and
    # the character route past double range at a window of several terms
    cases += [
        ["matrices", "--M", "24", "--N", "7", *angles[1]],
        ["matrices", "--M", "24", "--N", "1"],
        ["matrices", "--M", "1", "--N", "1"],
        ["partition", "--M", "1", "--N", "1", "--tau=0.2+1i", "--alpha1", "100", "--alpha2", "0.3"],
    ]
    # the CSV writer at scale: 91 files of 144 rows
    cases.append(["lll", "--M", "13", "--N", "7", "--tau=-0.2+1.4i", *angles[1], "--grid", "12",
                  "--out", OUT])
    # counts past the term cap at extreme tau, and counts that meet the
    # cap or the 2**52 guard of the theta cutoff
    cases += [
        ["verify", "--tau=1e-300i"],
        ["verify", "--tau=1e300i"],
        ["partition", "--tau=1e-300i"],
        ["eta", "--tau=1e-300i"],
        ["lll", "--tau=1e300i", "--out", OUT],
        ["eta", "--tau=1e-6i"],
        ["theta", "--level", "1", "--tau=1e-11i"],
        ["theta", "--level", "3", "--tau=1i", "--z=1e300i"],
    ]
    # eta's tail bound and the cell rule's 2 / epsilon past double range
    cases += [
        ["eta", "--eps=1e-310", "--tau=1e-16i"],
        ["eta", "--eps=5e-324", "--tau=0.3+0.11i"],
        ["partition", "--eps=5e-324"],
        ["verify", "--eps=1e-310", "--tau=0.3+0.11i"],
        ["lll", "--eps=5e-324", "--out", OUT],
    ]
    # the character route's steps as one exponential each (K <= 4, Im tau
    # above 230, eps at or below 1e-100), and valid fluxes too large to build
    cases += [
        ["partition", "--M", "1", "--N", "1", "--tau=241i", "--eps", "1e-100"],
        ["verify", "--M", "5", "--N", "4611686018427387907"],
        ["partition", "--M", "3", "--N", "4611686018427387904"],
        ["lll", "--M", "3", "--N", "4611686018427387904", "--out", OUT],
        ["matrices", "--M", "5", "--N", "4611686018427387907"],
    ]
    # angles whose state norms' power of two leaves the exponent range, and
    # at 1e200 window frequencies past 2**53; signed exponents after a flag
    cases += [["partition", "--alpha1", alpha1] for alpha1 in ("1e10", "1e17", "1e200")]
    cases += [
        ["verify", "--alpha1", "1e200"],
        ["lll", "--alpha1", "1e200", "--out", OUT],
        ["matrices", "--M", "3", "--N", "2", "--alpha2", "-1e-3"],
        ["partition", "--eps", "-1e-3"],
    ]
    return cases


# ------------------------------------------------------------ the child


def run_cases(src, cases) -> list:
    """Each case through ``nctorus.cli.main`` of the tree ``src``, in this
    process: ``{"code", "stdout", "stderr", "files"}`` with ``wall_time``
    and the output directory masked.  Every case sees numpy's warnings
    afresh, as its own process would."""
    sys.path.insert(0, str(src))
    from nctorus import cli

    if Path(cli.__file__).resolve().parent != (Path(src) / "nctorus").resolve():
        raise SystemExit("imported nctorus from %s, not from %s" % (cli.__file__, src))

    results = []
    for argv in cases:
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = os.path.join(tmp, "out")
            argv = [out_dir if arg == OUT else arg for arg in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("default")
                try:
                    code = cli.main(argv)
                except Exception as exc:  # the command would end with a traceback
                    code = "%s: %s" % (type(exc).__name__, exc)
            files = {}
            if os.path.isdir(out_dir):
                for name in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                        files[name] = fh.read()

        def mask(text):
            return _WALL_TIME.sub('"wall_time":0', text.replace(json.dumps(out_dir)[1:-1], OUT))

        results.append({"code": code, "stdout": mask(stdout.getvalue()),
                        "stderr": mask(stderr.getvalue()),
                        "files": {name: mask(text) for name, text in files.items()}})
    return results


def child_env() -> dict:
    """The environment of a child process: one BLAS thread, and no
    ``PYTHONPATH`` that could import another tree."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "NCTORUS_THREADS")}
    env.update(_ONE_THREAD)
    return env


def run_tree(src, cases, timeout=None) -> list:
    """:func:`run_cases` of ``src`` in a child process with one BLAS
    thread; the child reads ``cases`` as JSON on its stdin."""
    with tempfile.TemporaryDirectory() as tmp:
        result = os.path.join(tmp, "result.json")
        subprocess.run([sys.executable, __file__, "--child", str(src), result],
                       input=json.dumps(cases), text=True, env=child_env(), check=True,
                       timeout=timeout)
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


# --------------------------------------------------------- the compare


def _leaves(doc, path=""):
    """``path -> value`` of every leaf of a JSON document; a list of
    ``verify`` checks is keyed by each check's name."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, "%s/%s" % (path, key))
    elif isinstance(doc, list):
        named = all(isinstance(v, dict) and "name" in v for v in doc) and doc
        for i, value in enumerate(doc):
            yield from _leaves(value, "%s/%s" % (path, value["name"] if named else i))
    else:
        yield path, doc


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _exceeds(move, largest):
    """Whether ``move`` takes the place of ``largest``: a NaN move (a
    number that became or stopped being NaN) is the largest, and stays so."""
    return not (move <= largest or math.isnan(largest))


def _json_diff(old_text, new_text, prefix=""):
    """``(lines, moves)`` of two JSON texts, or None if either is not JSON:
    a line for each flipped boolean and each other changed leaf that is
    not a number, and per number key (list positions folded, ``prefix``
    in front) its largest move as ``key -> (move, old, new)``."""
    try:
        a, b = (dict(_leaves(json.loads(text))) for text in (old_text, new_text))
    except ValueError:
        return None
    lines, moves = [], {}
    for path in sorted(set(a) | set(b)):
        x, y = a.get(path), b.get(path)
        if x == y or (_number(x) and _number(y) and math.isnan(x) and math.isnan(y)):
            continue
        if isinstance(x, bool) or isinstance(y, bool):
            lines.append("%s%s flipped %r -> %r" % (prefix, path, x, y))
        elif _number(x) and _number(y):
            key = prefix + re.sub(r"/\d+(,\d+)?(?=/|$)", "/*", path)
            move = abs(y - x)
            if key not in moves or _exceeds(move, moves[key][0]):
                moves[key] = (move, x, y)
        else:
            lines.append("%s%s %r -> %r" % (prefix, path, x, y))
    return lines, moves


def _diff(old, new):
    """``(lines, moves)`` of one case: :func:`diff_case`'s lines and the
    largest move per number key of its JSON stdout and JSON files, the
    files' keys prefixed with ``<name>:``."""
    lines, moves = [], {}
    if old["code"] != new["code"]:
        lines.append("exit code %r -> %r" % (old["code"], new["code"]))
    if old["stderr"] != new["stderr"]:
        lines.append("stderr %r -> %r" % (old["stderr"][-200:], new["stderr"][-200:]))
    for name in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(name), new["files"].get(name)
        if a != b:
            lines.append("file %s differs" % name)
            parsed = a is not None and b is not None and _json_diff(a, b, name + ":")
            if parsed:
                lines += parsed[0]
                moves.update(parsed[1])
    if old["stdout"] != new["stdout"]:
        parsed = _json_diff(old["stdout"], new["stdout"])
        if parsed is None:
            lines.append("stdout differs (not JSON)")
        else:
            lines += parsed[0]
            moves.update(parsed[1])
            if not (parsed[0] or parsed[1]):  # equal values in other text, such as -0 for 0
                lines.append("stdout differs in its text only")
    lines += ["%s moved %.3g (%r -> %r)" % (key, move, x, y)
              for key, (move, x, y) in sorted(moves.items())]
    return lines, moves


def diff_case(old, new) -> list:
    """Lines that say how one case's ``new`` result differs from ``old``:
    exit code, stderr, files, and for JSON stdout and JSON files the
    largest move of each number (per key, list positions folded) and each
    flipped boolean."""
    return _diff(old, new)[0]


def compare(cases, old, new) -> int:
    """Print each differing case with :func:`diff_case`, then one line per
    moved number key: its largest move over the differing cases, the
    number of cases it moved in, and the case of the largest move.  The
    count of differing cases."""
    differing, largest, counts = 0, {}, {}
    for argv, a, b in zip(cases, old, new):
        if a != b:
            differing += 1
            print("DIFF", " ".join(argv))
            lines, moves = _diff(a, b)
            for line in lines:
                print("    " + line)
            for key, move in moves.items():
                counts[key] = counts.get(key, 0) + 1
                if key not in largest or _exceeds(move[0], largest[key][0][0]):
                    largest[key] = move, argv
    print("%d of %d cases identical" % (len(cases) - differing, len(cases)))
    if largest:
        print("largest move per key over the %d differing cases:" % differing)
    for key, ((move, x, y), argv) in sorted(largest.items()):
        print("    %s moved %.3g (%r -> %r) in %d cases, largest in: %s"
              % (key, move, x, y, counts[key], " ".join(argv)))
    return differing


def unpack(rev, dest):
    """The tree of ``rev`` under ``dest``, by ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare the working tree with")
    parser.add_argument("--child", nargs=2, metavar=("SRC", "RESULT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        src, result = args.child
        results = run_cases(src, json.load(sys.stdin))
        with open(result, "w", encoding="utf-8") as fh:
            json.dump(results, fh)
        return 0
    if not args.rev:
        parser.error("give a revision")
    cases = build_cases()
    with tempfile.TemporaryDirectory() as tmp:
        unpack(args.rev, tmp)
        old = run_tree(Path(tmp) / "src", cases)
    new = run_tree(ROOT / "src", cases)
    return 1 if compare(cases, old, new) else 0


if __name__ == "__main__":
    sys.exit(main())
