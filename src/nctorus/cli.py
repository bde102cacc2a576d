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
partition value, or a computation that cannot finish, reported as
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
from .errors import ConventionMismatchError, DegenerateDeformationError
from .fields import (
    dual_commutation_residual,
    plaquette_phase,
    sine_bracket_residual,
)
from .lll import (
    build_basis,
    center_eigen_residual,
    eigenphase_table,
    gram_rank,
)
from .matrices import (
    WeylWord,
    bimodule_consistency,
    clock_matrix,
    commutant_dimension,
    dual_matrices,
    holonomy_residual,
    q_commutation_residual,
    shift_matrix,
    sine_structure_residual,
    uq_sl2_generators,
    weyl_cocycle_residual,
    weyl_span_dimension,
)
from .partition import (
    QuadratureSpec,
    cell_node_counts,
    modular_invariance_report,
    z_tilde_character_route,
    z_tilde_closed_form,
)
from .theta import (
    ThetaSpec,
    TruncationPolicy,
    dedekind_eta,
    orthogonality_residual,
    quasi_periodicity_residual,
    theta,
    truncation_bound,
)

__all__ = ["RunConfig", "main", "parse_complex"]


class UsageError(ValueError):
    pass


# a computation on valid arguments that cannot finish: overflow, a failed fit or convention
_COMPUTE_ERRORS = (ArithmeticError, np.linalg.LinAlgError, ConventionMismatchError)


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` flag syntax (``i`` alone means 1i)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise UsageError("empty complex literal")
    try:
        return complex(s.replace("i", "j").replace("I", "j"))
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
        return {
            "M": self.m,
            "N": self.n,
            "tau": self.tau,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "epsilon": self.epsilon,
            "grid": self.grid,
            "quad_nodes": self.quad_nodes,
            "output_dir": self.output_dir,
        }


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
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, complex):
        return '{"im":%s,"re":%s}' % (_render(float(obj.imag)), _render(float(obj.real)))
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(json.dumps(str(k)) + ":" + _render(v) for k, v in items) + "}"
    raise TypeError("cannot render %r" % type(obj))


def emit_json(obj, stream=None) -> str:
    """Serialize deterministically (sorted keys, %.17g floats) and print."""
    text = _render(obj) + "\n"
    out = stream if stream is not None else sys.stdout
    out.write(text)
    return text


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


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
    value = theta(spec, args.z, tau, policy)
    n_max = truncation_bound(level, args.z, tau, args.eps)
    emit_json(
        {
            "certificate": {"epsilon": args.eps, "n_max": n_max},
            "config": {"level": level, "residue": args.residue, "tau": tau.value, "z": args.z},
            "value": complex(value),
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


def cmd_lll(cfg: RunConfig) -> int:
    basis = build_basis(cfg.flux, cfg.tau, cfg.angles, cfg.policy)
    table = eigenphase_table(basis)  # fitted first, so a failed fit writes no file
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
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        files = []
        for (j, k) in basis.labels():
            values = basis.states[(j, k)].evaluate(w, wbar)
            lines = ["x,y,re,im,abs2"]
            for i in range(w.size):
                v = values[i]
                lines.append(
                    ",".join(
                        _fmt17(t)
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
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return 3
    emit_json({"config": cfg.as_report(), "files": files})
    return 0


# ------------------------------------------------------------- matrices


def cmd_matrices(cfg: RunConfig) -> int:
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


def _cell_nodes(cfg: RunConfig) -> dict:
    """Cell-rule nodes ``[n_x, n_y]`` at ``tau`` (and ``tau+1``, which has
    the same ``Im tau``) and at ``-1/tau``."""
    return {
        label: list(cell_node_counts(cfg.flux.level, im_tau, cfg.epsilon, cfg.quad))
        for label, im_tau in (("tau", cfg.tau.imag), ("-1/tau", (-1.0 / cfg.tau).imag))
    }


def cmd_partition(cfg: RunConfig) -> int:
    basis = build_basis(cfg.flux, cfg.tau, cfg.angles, cfg.policy)
    inv = modular_invariance_report(basis, cfg.quad)
    zb = z_tilde_character_route(basis, cfg.quad)
    emit_json(
        {
            "cell_nodes": _cell_nodes(cfg),
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
    sq = squeeze_from_tau(tau)
    j = complex_structure_from_tau(tau)
    emit_json(
        {
            "complex_structure": j.matrix,
            "config": {"tau": tau.value},
            "phi": sq.phi,
            "r": sq.r,
            "roundtrip_residual": squeeze_roundtrip_residual(tau),
        }
    )
    return 0


# --------------------------------------------------------------- verify


def _verify_checks(cfg: RunConfig, inject_fault: bool):
    """List (name, callable, tolerance) triples; each callable returns
    its residual or (residual, note)."""
    flux = cfg.flux
    m, n = cfg.m, cfg.n
    tau = ModularParameter(cfg.tau.real, cfg.tau.imag)
    angles = cfg.angles
    policy = cfg.policy

    def theta_quasi_periodicity():
        return quasi_periodicity_residual(flux.level, tau, policy)

    def eta_functional_equations():
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(20):
            t = ModularParameter(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.5))
            e = dedekind_eta(t, policy)
            shifted = dedekind_eta(ModularParameter(t.re + 1.0, t.im), policy)
            worst = max(worst, abs(shifted - cmath.exp(1j * math.pi / 12.0) * e))
            inv = -1.0 / t.value
            e_inv = dedekind_eta(ModularParameter(inv.real, inv.imag), policy)
            worst = max(worst, abs(e_inv - cmath.sqrt(-1j * t.value) * e))
        return worst

    def q_commutation_matrix():
        res = q_commutation_residual(m, n, angles, inject_fault=inject_fault)
        note = "cocycle sign deliberately flipped" if inject_fault else None
        return res, note

    def weyl_cocycle_matrix():
        return weyl_cocycle_residual(m, n)

    def sine_algebra_matrix():
        return max(
            sine_structure_residual(m, n, WeylWord(1, 0), WeylWord(0, 1)),
            sine_structure_residual(m, n, WeylWord(1, 1), WeylWord(2, -1)),
        )

    def sine_algebra_operator():
        return sine_bracket_residual((1, 0), (0, 1), flux, tau)

    def dual_commutation_operator():
        return dual_commutation_residual((1, 0), (0, 1), flux, tau)

    def holonomy_operator():
        phase, spread = plaquette_phase(flux, tau)
        return max(abs(phase - cmath.exp(2j * math.pi * n / m)), spread)

    def holonomy_matrix():
        return holonomy_residual(m, n, angles)

    @functools.cache
    def _basis():
        return build_basis(flux, tau, angles, policy)

    def center_eigenvalues():
        basis = _basis()
        return float(np.max([center_eigen_residual(basis, j, k) for (j, k) in basis.labels()]))

    def lemma_eigenphases():
        devs = []
        for (j, k), entry in eigenphase_table(_basis()).items():
            want1 = cmath.exp(1j * (angles.alpha1 - 2 * math.pi * j * n) / m)
            devs += [
                abs(entry["d1_phase"] - want1),
                entry["d1_spread"],
                0.0 if entry["d2_target"] == ((j - 1) % m, k) else 1.0,
                abs(entry["d2_phase"] - cmath.exp(1j * angles.alpha2 / m)),
            ]
        return float(np.max(devs))  # np.max, unlike max, keeps a NaN

    def gram_rank_check():
        return float(abs(gram_rank(_basis()) - m * n))

    def bimodule_check():
        report = bimodule_consistency(_basis())
        return float(np.max([*report["deviations"].values(), report["left_right_commutator"]]))

    def commutant_check():
        dim = commutant_dimension(
            [clock_matrix(m, n, angles.alpha1), shift_matrix(m, angles.alpha2)]
        )
        span = weyl_span_dimension(m, n)
        return float(abs(dim - 1) + abs(span - m * m)), (
            "holds by construction: the ideal clock/shift matrices have commutant "
            "dimension 1 and Weyl span M^2 for every coprime (M, N)")

    def uq_sl2_check():
        try:
            gens = uq_sl2_generators(m, n)
        except DegenerateDeformationError:
            return 0.0, "skipped: degenerate deformation parameter"
        return max(gens.residuals.values())

    def orthogonality_check():
        return max(orthogonality_residual(m * n), orthogonality_residual(24)), (
            "holds by construction: the DFT matrix is unitary, so the residual is round-off")

    @functools.cache
    def _invariance():
        return modular_invariance_report(_basis(), cfg.quad)

    def partition_t_invariance():
        nx, ny = _cell_nodes(cfg)["tau"]
        return _invariance().t_residual, (
            "holds by construction where the quadrature resolves the integrand: Z~ depends "
            "on tau only through Im tau and |eta|, so the residual is round-off; "
            "cell nodes (n_x, n_y) = (%d, %d) at tau and tau+1" % (nx, ny))

    def partition_s_invariance():
        # Z~ = sqrt(K/(2b)) * exp(b*alpha1**2/(2*pi*K)) / |eta|**2 with b = Im tau;
        # sqrt(b)*|eta|**2 is S-invariant, so S moves only the Gaussian factor
        s_residual = _invariance().s_residual
        b_s = (-1.0 / tau.value).imag
        predicted = abs(math.expm1((b_s - tau.im) * angles.alpha1**2 / (2 * math.pi * flux.level)))
        nodes = _cell_nodes(cfg)
        return abs(s_residual - predicted), (
            "s_residual %s against the closed-form S factor of Z~, "
            "|expm1((Im(-1/tau) - Im tau)*alpha1**2/(2*pi*K))| = %s; "
            "cell nodes (n_x, n_y) = (%d, %d) at tau, (%d, %d) at -1/tau"
            % (_fmt17(s_residual), _fmt17(predicted), *nodes["tau"], *nodes["-1/tau"]))

    return [
        ("theta_quasi_periodicity", theta_quasi_periodicity, 1e-9),
        ("eta_functional_equations", eta_functional_equations, 1e-10),
        ("q_commutation_matrix", q_commutation_matrix, 1e-13),
        ("weyl_cocycle_matrix", weyl_cocycle_matrix, 1e-12),
        ("sine_algebra_matrix", sine_algebra_matrix, 1e-12),
        ("sine_algebra_operator", sine_algebra_operator, 1e-9),
        ("dual_commutation_operator", dual_commutation_operator, 1e-9),
        ("holonomy_operator", holonomy_operator, 1e-10),
        ("holonomy_matrix", holonomy_matrix, 1e-10),
        ("center_eigenvalues", center_eigenvalues, 1e-10),
        ("lemma_eigenphases", lemma_eigenphases, 1e-7),
        ("gram_rank", gram_rank_check, 0.5),
        ("bimodule_consistency", bimodule_check, 1e-6),
        ("commutant_and_span", commutant_check, 0.5),
        ("uq_sl2_relations", uq_sl2_check, 1e-11),
        ("orthogonality", orthogonality_check, 1e-12),
        ("partition_t_invariance", partition_t_invariance, 1e-5),
        ("partition_s_invariance", partition_s_invariance, 1e-3),
    ]


def cmd_verify(cfg: RunConfig, inject_fault: bool = False) -> int:
    checks = []
    all_pass = True
    for name, fn, tol in _verify_checks(cfg, inject_fault):
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
        help="points per axis of the lll CSV grids (the sampled fits size their own grid)",
    )
    parser.add_argument(
        "--quad", type=int, default=RunConfig.quad_nodes, dest="quad_nodes", metavar="QUAD",
        help="floor on the cell-quadrature nodes per axis; each axis takes more where "
        "K and Im tau need them (partition, verify)",
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nctorus",
        description="Magnetic Bloch states, quantum-torus matrices, and "
        "modular invariance checks at rational flux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="evaluate one theta value with certificate")
    p_theta.add_argument("--level", type=int, required=True)
    p_theta.add_argument("--residue", type=int, default=0)
    p_theta.add_argument("--z", type=parse_complex, default=0j)
    p_theta.add_argument("--tau", type=parse_complex, required=True)
    p_theta.add_argument("--eps", type=float, default=TruncationPolicy.epsilon)

    p_eta = sub.add_parser("eta", help="evaluate the eta function")
    p_eta.add_argument("--tau", type=parse_complex, required=True)
    p_eta.add_argument("--eps", type=float, default=TruncationPolicy.epsilon)

    p_lll = sub.add_parser("lll", help="export ground-state grids and eigenphases")
    _add_common(p_lll, with_out=True)

    p_mat = sub.add_parser("matrices", help="dump clock/shift matrices and residuals")
    _add_common(p_mat)

    p_part = sub.add_parser("partition", help="state sum and invariance residuals")
    _add_common(p_part)

    p_sq = sub.add_parser("squeeze", help="squeeze parameters of tau")
    p_sq.add_argument("--tau", type=parse_complex, required=True)

    p_ver = sub.add_parser("verify", help="run the full verification battery")
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
        if args.command == "theta":
            return cmd_theta(args)
        if args.command == "eta":
            return cmd_eta(args)
        if args.command == "squeeze":
            return cmd_squeeze(args)
        cfg = _config_from(args)
        if args.command == "lll":
            return cmd_lll(cfg)
        if args.command == "matrices":
            return cmd_matrices(cfg)
        if args.command == "partition":
            return cmd_partition(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, inject_fault=args.inject_fault)
        raise UsageError("unknown command %r" % args.command)
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
