r"""Command-line front end.

Subcommands: ``theta``, ``eta``, ``lll``, ``matrices``, ``partition``,
``squeeze``, ``verify``.  All reports are JSON on stdout (sorted keys,
floats rendered with 17 significant digits and non-finite ones as
``NaN``/``Infinity``/``-Infinity``, as :mod:`json` writes them, complex
values as ``{"im": ..., "re": ...}``, LF line endings); the ``lll`` subcommand
additionally writes per-state CSV grids and an eigenphase table into
the output directory.  Identical configurations produce byte-identical
output (the per-check wall times inside ``verify`` reports are the one
documented exception).

Exit codes: 0 success, 1 verification failure (or a non-finite
partition value, a ``theta`` value, ``lll`` CSV value or ``squeeze`` value
past double range, or a computation that cannot finish, reported as
``error: <Type>: <message>``), 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .core import (
    Flux,
    ModularParameter,
    VacuumAngles,
    complex_structure_from_tau,
    squeeze_from_tau,
    squeeze_roundtrip_residual,
)
from .fields import (
    dual_commutation_residual,
    plaquette_residual,
    sine_bracket_residual,
)
from .lll import (
    QuadratureSpec,
    bimodule_residual,
    build_basis,
    center_eigen_residual,
    eigenphase_table,
    gram_rank_residual,
    lemma_eigenphase_residual,
    overlap_residual,
)
from .matrices import (
    WeylWord,
    clock_matrix,
    commutant_and_span_residual,
    commutant_dimension,
    dual_matrices,
    holonomy_residual,
    q_commutation_residual,
    shift_matrix,
    sine_algebra_residual,
    sine_structure_residual,
    uq_sl2_residual,
    weyl_cocycle_residual,
    weyl_span_dimension,
)
from .partition import (
    modular_invariance_report,
    s_invariance_residual,
    t_invariance_residual,
    z_tilde_character_route,
    z_tilde_closed_form,
)
from .theta import (
    ThetaSpec,
    TruncationPolicy,
    dedekind_eta,
    eta_functional_residual,
    quasi_periodicity_residual,
    theta,
    truncation_bound,
)

__all__ = ["RunConfig", "main", "parse_complex"]


class UsageError(ValueError):
    pass


# a computation on valid arguments that cannot finish: overflow or a failed measurement
_COMPUTE_ERRORS = (ArithmeticError, np.linalg.LinAlgError)


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` flag syntax (``i`` alone means 1i).  Only a trailing
    ``i`` or ``I`` (before a closing parenthesis) is the imaginary unit, so
    ``inf`` and ``Infinity`` read as reals, as in :class:`complex`."""
    s = text.strip().replace(" ", "")
    if not s:
        raise UsageError("empty complex literal")
    body = s.rstrip(")")
    if body.endswith(("i", "I")):
        s = body[:-1] + "j" + s[len(body):]
    try:
        return complex(s)
    except ValueError:
        raise UsageError("cannot parse complex literal %r" % text) from None


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    m: int = 3
    n: int = 2
    tau: complex = 0.3 + 1.1j
    alpha1: float = 0.0
    alpha2: float = 0.0
    epsilon: float = TruncationPolicy.epsilon
    grid: int = 6
    quad_nodes: int = QuadratureSpec.nodes_per_axis
    output_dir: str = "."

    def __post_init__(self):
        Flux(self.n, self.m)  # validates positivity and coprimality
        ModularParameter(self.tau.real, self.tau.imag)
        TruncationPolicy(epsilon=self.epsilon)
        if self.grid < 2:
            raise UsageError("--grid must be at least 2")
        for flag, value in (("--alpha1", self.alpha1), ("--alpha2", self.alpha2)):
            if not math.isfinite(value):
                raise UsageError("%s must be finite, got %r" % (flag, value))
        QuadratureSpec(nodes_per_axis=self.quad_nodes)

    @property
    def flux(self) -> Flux:
        return Flux(self.n, self.m)

    @property
    def angles(self) -> VacuumAngles:
        return VacuumAngles(self.alpha1, self.alpha2)

    @property
    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(epsilon=self.epsilon)

    @property
    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(nodes_per_axis=self.quad_nodes)

    def as_report(self) -> dict:
        report = dict(vars(self))
        report["M"], report["N"] = report.pop("m"), report.pop("n")
        return report


# json's own string encoders, as json.dumps picks them: values with
# ensure_ascii=False, keys with its default ensure_ascii=True (json.dumps
# builds an encoder per call)
_encode_string = json.encoder.encode_basestring
_encode_key = json.encoder.encode_basestring_ascii


def _render(obj) -> str:
    """JSON text of ``obj`` in one pass: numpy scalars and arrays as their
    Python values, tuples as lists, dict keys as ``str`` and sorted."""
    if isinstance(obj, float):  # first: the common case, np.float64 included
        if not math.isfinite(obj):
            return json.dumps(obj)  # NaN, Infinity, -Infinity
        return format(obj, ".17g")
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _render(float(obj))
    if isinstance(obj, str):
        return _encode_string(obj)
    if isinstance(obj, complex):
        return '{"im":%s,"re":%s}' % (_render(float(obj.imag)), _render(float(obj.real)))
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.size and obj.dtype.kind in "fc":
            return _render_array(obj)
        return _render(obj.tolist())
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(_encode_key(str(k)) + ":" + _render(v) for k, v in items) + "}"
    raise TypeError("cannot render %r" % type(obj))


def _render_array(arr) -> str:
    """:func:`_render` of a real or complex array, one ``%``-format per
    row instead of one call per value: the rows' ``%.17g`` text is that of
    their Python floats, and ``nan``/``inf`` are respelled as JSON's
    ``NaN``/``Infinity`` (no finite ``%.17g`` text holds either)."""
    if arr.dtype.kind == "c":
        cell = '{"im":%.17g,"re":%.17g}'
        arr = np.stack([arr.imag, arr.real], axis=-1).reshape(arr.shape[:-1] + (-1,))
        columns = arr.shape[-1] // 2
    else:
        cell = "%.17g"
        columns = arr.shape[-1]
    row = "[" + ",".join([cell] * columns) + "]"
    rows = [row % tuple(values) for values in arr.reshape(-1, arr.shape[-1]).tolist()]
    for size in reversed(arr.shape[:-1]):
        rows = ["[" + ",".join(rows[i:i + size]) + "]" for i in range(0, len(rows), size)]
    [text] = rows
    if not np.isfinite(arr).all():
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def emit_json(obj, stream=None) -> str:
    """Serialize deterministically (sorted keys, %.17g floats) and print."""
    text = _render(obj) + "\n"
    out = stream if stream is not None else sys.stdout
    out.write(text)
    return text


# ---------------------------------------------------------------- theta


def cmd_theta(args) -> int:
    level = args.level
    if level < 1:
        raise UsageError("--level must be positive")
    if not (0 <= args.residue < level):
        raise UsageError("--residue must lie in [0, level)")
    if not cmath.isfinite(args.z):
        raise UsageError("--z must be finite, got %r" % (args.z,))
    tau = ModularParameter(args.tau.real, args.tau.imag)
    policy = TruncationPolicy(epsilon=args.eps)
    spec = ThetaSpec(level, args.residue)
    with np.errstate(all="ignore"):  # a value past double range is named below
        value = complex(theta(spec, args.z, tau, policy))
    if not cmath.isfinite(value):
        raise FloatingPointError("theta at z=%r, tau=%r leaves double range" % (args.z, tau.value))
    n_max = truncation_bound(level, args.z, tau, args.eps)
    emit_json(
        {
            "certificate": {"epsilon": args.eps, "n_max": n_max},
            "config": {"level": level, "residue": args.residue, "tau": tau.value, "z": args.z},
            "value": value,
        }
    )
    return 0


def cmd_eta(args) -> int:
    tau = ModularParameter(args.tau.real, args.tau.imag)
    value = dedekind_eta(tau, TruncationPolicy(epsilon=args.eps))
    emit_json({"config": {"epsilon": args.eps, "tau": tau.value}, "value": value})
    return 0


# ------------------------------------------------------------------ lll


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_lll(args) -> int:
    cfg = _config_from(args)
    basis = build_basis(cfg.flux, cfg.tau, cfg.angles, cfg.policy, cfg.quad)
    table = eigenphase_table(basis)  # measured first, so a failed measurement writes no file
    report = {
        "config": cfg.as_report(),
        "eigenphases": {"%d,%d" % lb: entry for lb, entry in table.items()},
    }
    n = cfg.grid
    s = np.arange(n) / n
    x = np.repeat(s, n)
    y = np.tile(s, n)
    w = x + cfg.tau * y
    wbar = np.conjugate(w)
    with np.errstate(all="ignore"):  # checked before any file is written
        states = basis.field.evaluate(w, wbar)
        if not np.isfinite(np.abs(states) ** 2).all():
            raise FloatingPointError("a state's value on the %d x %d CSV grid leaves double "
                                     "range" % (n, n))
    os.makedirs(cfg.output_dir, exist_ok=True)
    files = []
    for (j, k), values in zip(basis.labels(), states):
        lines = ["x,y,re,im,abs2"]
        for i in range(w.size):
            v = values[i]
            lines.append(
                ",".join(
                    format(t, ".17g")
                    for t in (x[i], y[i], v.real, v.imag, abs(v) ** 2)
                )
            )
        name = "psi_%d_%d.csv" % (j, k)
        _write_text(os.path.join(cfg.output_dir, name), "\n".join(lines) + "\n")
        files.append(name)
    with open(os.path.join(cfg.output_dir, "eigenphases.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        emit_json(report, fh)
    files.append("eigenphases.json")
    emit_json({"config": cfg.as_report(), "files": files})
    return 0


# ------------------------------------------------------------- matrices


def cmd_matrices(args) -> int:
    cfg = _config_from(args)
    m, n = cfg.m, cfg.n
    angles = cfg.angles
    clock = clock_matrix(m, n, angles.alpha1)
    shift = shift_matrix(m, angles.alpha2)
    dual_clock, dual_shift = dual_matrices(m, n, angles)
    report = {
        "clock": clock.entries,
        "shift": shift.entries,
        "dual_clock": dual_clock.entries,
        "dual_shift": dual_shift.entries,
        "residuals": {
            "dual_q_commutation": q_commutation_residual(n, m, angles),
            "q_commutation": q_commutation_residual(m, n, angles),
            "sine_structure": sine_structure_residual(m, n, WeylWord(1, 0), WeylWord(0, 1)),
            "weyl_cocycle": weyl_cocycle_residual(m, n),
        },
        "commutant_dimension": commutant_dimension([clock, shift]),
        "weyl_span_dimension": weyl_span_dimension(m, n),
        "config": cfg.as_report(),
    }
    emit_json(report)
    return 0


# ------------------------------------------------------------ partition


def cmd_partition(args) -> int:
    cfg = _config_from(args)
    basis = build_basis(cfg.flux, cfg.tau, cfg.angles, cfg.policy, cfg.quad)
    inv = modular_invariance_report(basis)
    zb = z_tilde_character_route(basis)
    emit_json(
        {
            "cell_nodes": {label: inv.cell_nodes[label] for label in ("tau", "-1/tau")},
            "config": cfg.as_report(),
            "s_residual": inv.s_residual,
            "t_residual": inv.t_residual,
            "z_tilde": inv.z_tilde,
            "z_tilde_character_route": zb,
            "z_tilde_closed_form": z_tilde_closed_form(basis),
        }
    )
    # a non-finite value is a failed computation, as a failed check is in verify
    return 0 if all(map(math.isfinite, (inv.z_tilde, zb, inv.s_residual, inv.t_residual))) else 1


# -------------------------------------------------------------- squeeze


def cmd_squeeze(args) -> int:
    tau = ModularParameter(args.tau.real, args.tau.imag)
    # tau is valid from here on: a value that its type rejects or that is
    # not finite was rounded out of range, and is named as such
    with np.errstate(all="ignore"):
        try:
            sq = squeeze_from_tau(tau)
            report = {
                "complex_structure": complex_structure_from_tau(tau).matrix,
                "config": {"tau": tau.value},
                "phi": sq.phi,
                "r": sq.r,
                "roundtrip_residual": squeeze_roundtrip_residual(tau),
            }
        except _COMPUTE_ERRORS:
            raise
        except ValueError as exc:
            raise FloatingPointError("squeeze at tau=%r leaves double range: %s"
                                     % (tau.value, exc)) from None
    # r and phi are finite wherever the round trip is, and the matrix by its type
    if not math.isfinite(report["roundtrip_residual"]):
        raise FloatingPointError("squeeze at tau=%r leaves double range" % (tau.value,))
    emit_json(report)
    return 0


# --------------------------------------------------------------- verify


def _verify_checks(cfg: RunConfig, inject_fault: bool):
    """Rows (name, call, tolerance); each call is one library call, which
    returns its residual or (residual, note), and only
    ``q_commutation_matrix`` adds a note of its own, the injected fault's.
    The basis and the invariance report are built on first use and once,
    so a failed build fails each check that needs it."""
    flux, m, n = cfg.flux, cfg.m, cfg.n
    tau = ModularParameter(cfg.tau.real, cfg.tau.imag)
    angles, policy = cfg.angles, cfg.policy
    basis = functools.cache(lambda: build_basis(flux, tau, angles, policy, cfg.quad))
    invariance = functools.cache(lambda: modular_invariance_report(basis()))
    fault_note = "cocycle sign deliberately flipped" if inject_fault else None
    return [
        ("theta_quasi_periodicity", lambda: quasi_periodicity_residual(flux.level, tau, policy),
         1e-9),
        ("eta_functional_equations", lambda: eta_functional_residual(tau, policy), 1e-10),
        ("q_commutation_matrix",
         lambda: (q_commutation_residual(m, n, angles, inject_fault=inject_fault), fault_note),
         1e-13),
        ("weyl_cocycle_matrix", lambda: weyl_cocycle_residual(m, n), 1e-12),
        ("sine_algebra_matrix", lambda: sine_algebra_residual(m, n), 1e-12),
        ("sine_algebra_operator", lambda: sine_bracket_residual((1, 0), (0, 1), flux, tau), 1e-9),
        ("dual_commutation_operator",
         lambda: dual_commutation_residual((1, 0), (0, 1), flux, tau), 1e-9),
        ("holonomy_operator", lambda: plaquette_residual(flux, tau), 1e-10),
        ("holonomy_matrix", lambda: holonomy_residual(m, n, angles), 1e-10),
        ("center_eigenvalues", lambda: center_eigen_residual(basis()), 1e-10),
        ("lemma_eigenphases", lambda: lemma_eigenphase_residual(basis()), 1e-7),
        ("gram_rank", lambda: gram_rank_residual(basis()), 0.5),
        ("bimodule_consistency", lambda: bimodule_residual(basis()), 1e-6),
        ("commutant_and_span", lambda: commutant_and_span_residual(m, n, angles), 0.5),
        ("uq_sl2_relations", lambda: uq_sl2_residual(m, n), 1e-11),
        ("orthogonality", lambda: overlap_residual(basis()), 1e-12),
        ("partition_t_invariance", lambda: t_invariance_residual(invariance()), 1e-5),
        ("partition_s_invariance", lambda: s_invariance_residual(basis(), invariance()), 1e-3),
    ]


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    checks = []
    all_pass = True
    for name, fn, tol in _verify_checks(cfg, args.inject_fault):
        t0 = time.perf_counter()
        try:
            out = fn()
        except _COMPUTE_ERRORS as exc:
            # a check that cannot compute fails; it does not end the run
            out = math.nan, "%s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        residual, note = out if isinstance(out, tuple) else (out, None)
        ok = bool(residual <= tol)
        entry = {
            "name": name,
            "pass": ok,
            "residual": float(residual),
            "tolerance": float(tol),
            "wall_time": dt,
        }
        if note:
            entry["note"] = note
        checks.append(entry)
        all_pass = all_pass and ok
    emit_json({"checks": checks, "config": cfg.as_report(), "pass": all_pass})
    return 0 if all_pass else 1


# ----------------------------------------------------------------- main


def _add_common(parser, with_out=False):
    """RunConfig flags: each ``dest`` names a RunConfig field, whose default it takes."""
    parser.add_argument("--M", type=int, default=RunConfig.m, dest="m")
    parser.add_argument("--N", type=int, default=RunConfig.n, dest="n")
    parser.add_argument("--tau", type=parse_complex, default=RunConfig.tau)
    parser.add_argument("--alpha1", type=float, default=RunConfig.alpha1)
    parser.add_argument("--alpha2", type=float, default=RunConfig.alpha2)
    parser.add_argument("--eps", type=float, default=RunConfig.epsilon, dest="epsilon",
                        metavar="EPS")
    parser.add_argument(
        "--grid", type=int, default=RunConfig.grid,
        help="points per axis of the lll CSV grids",
    )
    parser.add_argument(
        "--quad", type=int, default=RunConfig.quad_nodes, dest="quad_nodes", metavar="QUAD",
        help="floor on the cell-quadrature nodes per axis; each axis takes more where "
        "K and Im tau need them",
    )
    if with_out:
        parser.add_argument("--out", default=RunConfig.output_dir, dest="output_dir",
                            metavar="OUT")


def _config_from(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)})


# flags whose values are parse_complex literals, which may begin with a minus
_COMPLEX_FLAGS = ("--tau", "--z")


class _Parser(argparse.ArgumentParser):
    """Reads ``--tau -0.4+2i`` as ``--tau=-0.4+2i``: argparse takes a
    value that starts with ``-`` for a flag unless it is a plain negative
    real number.  Subparsers are built with the same class."""

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        joined = []
        for arg in args:
            if joined and joined[-1] in _COMPLEX_FLAGS and arg.startswith("-"):
                try:
                    parse_complex(arg)
                except UsageError:
                    pass
                else:
                    joined[-1] += "=" + arg
                    continue
            joined.append(arg)
        return super().parse_known_args(joined, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``nctorus`` parser, built once per process: ``parse_args`` keeps
    no state between calls, and each ``main`` call would otherwise rebuild
    the whole tree."""
    parser = _Parser(
        prog="nctorus",
        description="Magnetic Bloch states, quantum-torus matrices, and "
        "modular invariance checks at rational flux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)  # the handler main calls
        return p

    p_theta = command("theta", cmd_theta, "evaluate one theta value with certificate")
    p_theta.add_argument("--level", type=int, required=True)
    p_theta.add_argument("--residue", type=int, default=0)
    p_theta.add_argument("--z", type=parse_complex, default=0j)
    p_theta.add_argument("--tau", type=parse_complex, required=True)
    p_theta.add_argument("--eps", type=float, default=TruncationPolicy.epsilon)

    p_eta = command("eta", cmd_eta, "evaluate the eta function")
    p_eta.add_argument("--tau", type=parse_complex, required=True)
    p_eta.add_argument("--eps", type=float, default=TruncationPolicy.epsilon)

    _add_common(command("lll", cmd_lll, "export ground-state grids and eigenphases"),
                with_out=True)
    _add_common(command("matrices", cmd_matrices, "dump clock/shift matrices and residuals"))
    _add_common(command("partition", cmd_partition, "state sum and invariance residuals"))

    p_sq = command("squeeze", cmd_squeeze, "squeeze parameters of tau")
    p_sq.add_argument("--tau", type=parse_complex, required=True)

    p_ver = command("verify", cmd_verify, "run the full verification battery")
    _add_common(p_ver)
    p_ver.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except _COMPUTE_ERRORS as exc:  # before ValueError, which LinAlgError subclasses
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
