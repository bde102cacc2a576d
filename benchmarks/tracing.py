"""In-memory span tracer that times nctorus layers from outside.

:func:`install` wraps each layer's public functions by rebinding the
name in every nctorus module namespace that holds it (``theta`` is
imported into ``partition`` and ``cli``, ``theta_derivative`` into
``lll``, ``build_basis`` into ``partition`` and ``cli``), so calls made
inside the package are caught as well.  Layers are the modules
``theta``, ``fields``, ``lll``, ``matrices``, ``partition`` and ``cli``;
``core`` has no layer and its time counts towards its caller.

Each span records name, start, end, parent and op id.  A layer's self
time is the duration of its spans minus the time their child spans
cover.  Counters that need the arguments or the result (points, series
terms, fit shape) are computed after the wrapped call returns, inside a
``trace.count`` span, so their cost is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("theta", "fields", "lll", "matrices", "partition", "cli")

# Public functions per layer.  ``lll._eval_terms`` is the one private
# name: every ThetaField.evaluate closure calls it, so it is the boundary
# of ground-state evaluation.
_FUNCTIONS = {
    "theta": (
        "theta", "theta_dz", "theta_derivative", "truncation_bound",
        "dedekind_eta", "character", "t_transform_residual",
        "s_transform_residual", "orthogonality_residual",
    ),
    "fields": (
        "displacement_apply", "ladder_apply", "coherent_state",
        "gaussian_field", "lattice_displacement",
        "displacement_cocycle_residual", "sine_bracket_residual",
        "dual_commutation_residual", "plaquette_phase", "plane_sample_grid",
    ),
    "lll": (
        "build_basis", "unit_cell_grid", "boundary_residual",
        "elementary_translation", "eigenphase_table", "center_eigen_residual",
        "gram_rank", "coefficient_matrix", "raise_level", "_eval_terms",
    ),
    "matrices": (
        "clock_matrix", "shift_matrix", "clock_power", "shift_power",
        "weyl_element", "q_commutation_residual", "dual_matrices",
        "sine_structure_residual", "commutant_dimension",
        "weyl_span_dimension", "bimodule_consistency", "uq_sl2_generators",
    ),
    "partition": (
        "quadrature_nodes", "state_norm", "z_tilde",
        "z_tilde_character_route", "modular_invariance_report",
    ),
    "cli": ("main", "emit_json"),
}
_CSMATRIX_METHODS = ("__matmul__", "adjoint")
_THETA_SERIES = ("theta.theta", "theta.theta_dz", "theta.theta_derivative")
_COUNT_SPAN = "trace.count"


class Tracer:
    """Spans kept in flat arrays; ``op_id`` tags every span opened."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counters = Counter()
        self.fit_points_per_state = math.inf

    def intern(self, name) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def summary(self):
        """Per-name call count, inclusive time and self time."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=self_time, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        n = len(self.start)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, dtype=float, count=n),
            end=np.frombuffer(self.end, dtype=float, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            op=np.frombuffer(self.op, dtype=np.int32, count=n),
        )


def _span(tracer, name, fn, count=None):
    nid = tracer.intern(name)
    cid = tracer.intern(_COUNT_SPAN)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            idx = tracer.open(cid)
            count(args, kwargs, out)
            tracer.close(idx)
        return out

    return traced


def _theta_counter(tracer, truncation_bound, default_policy):
    counters = tracer.counters

    def count(args, kwargs, out):
        z = args[1] if len(args) > 1 else kwargs["z"]
        tau = args[2] if len(args) > 2 else kwargs["tau"]
        policy = args[3] if len(args) > 3 else kwargs.get("policy", default_policy)
        spec = args[0] if args else kwargs["spec"]
        points = np.size(z)
        n_max = truncation_bound(spec.level, z, tau, policy.epsilon)
        counters["theta.points"] += points
        counters["theta.series_terms"] += points * (2 * n_max + 1)

    return count


def _fit_counter(tracer):
    def count(args, kwargs, out):
        a = args[0] if args else kwargs["a"]
        rows, cols = np.shape(a)
        tracer.fit_points_per_state = min(tracer.fit_points_per_state, rows / cols)

    return count


def _nodes_counter(tracer):
    def count(args, kwargs, out):
        tracer.counters["partition.quad_points"] += len(out[0]) ** 2

    return count


def _nonfinite_counter(tracer):
    def count(args, kwargs, out):
        if not math.isfinite(out):
            tracer.counters["partition.nonfinite_results"] += 1

    return count


def _build_counter(tracer, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def counted(self):
        counters["matrices.csmatrix_builds"] += 1
        return fn(self)

    return counted


def install(tracer):
    """Wrap the layers; returns a function that undoes every rebinding."""
    # by module path: the package namespace re-exports a function named theta
    layer_module = {layer: importlib.import_module("nctorus." + layer) for layer in LAYERS}
    theta, matrices = layer_module["theta"], layer_module["matrices"]
    theta_count = _theta_counter(tracer, theta.truncation_bound, theta.TruncationPolicy())
    nonfinite_count = _nonfinite_counter(tracer)
    counters = {
        "theta": theta_count,
        "theta_dz": theta_count,
        "theta_derivative": theta_count,
        "quadrature_nodes": _nodes_counter(tracer),
        "z_tilde": nonfinite_count,
        "z_tilde_character_route": nonfinite_count,
    }
    wrappers = {}
    for layer, names in _FUNCTIONS.items():
        mod = layer_module[layer]
        for name in names:
            fn = getattr(mod, name)
            wrappers[id(fn)] = (fn, _span(tracer, "%s.%s" % (layer, name), fn, counters.get(name)))

    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "nctorus" and not mod_name.startswith("nctorus."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, hit[1])

    cls = matrices.CSMatrix
    for name in _CSMATRIX_METHODS:
        fn = vars(cls)[name]
        undo.append((cls, name, fn))
        setattr(cls, name, _span(tracer, "matrices.CSMatrix.%s" % name, fn))
    post_init = vars(cls)["__post_init__"]
    undo.append((cls, "__post_init__", post_init))
    cls.__post_init__ = _build_counter(tracer, post_init)

    # lstsq is called only by lll (the sampled coefficient fits)
    undo.append((np.linalg, "lstsq", np.linalg.lstsq))
    np.linalg.lstsq = _span(tracer, "lll.fit", np.linalg.lstsq, _fit_counter(tracer))

    def uninstall():
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return uninstall


def layer_metrics(tracer, ops):
    """Per-op per-layer metrics of a traced pass over ``ops`` ops."""
    spans = tracer.summary()
    per_op = 1.0 / ops

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    self_s = Counter()
    layer_calls = Counter()
    for name, (n, _, own) in spans.items():
        layer = name.split(".")[0]
        self_s[layer] += own
        if name not in ("lll.fit", "lll._eval_terms"):
            layer_calls[layer] += n

    c = tracer.counters
    fit_min = tracer.fit_points_per_state
    return {
        "theta.calls": (calls(*_THETA_SERIES) * per_op, "count/op"),
        "theta.points": (c["theta.points"] * per_op, "count/op"),
        "theta.series_terms": (c["theta.series_terms"] * per_op, "count/op"),
        "theta.self_s": (self_s["theta"] * per_op, "s/op"),
        "theta.eta_calls": (calls("theta.dedekind_eta") * per_op, "count/op"),
        "partition.state_norm_calls": (calls("partition.state_norm") * per_op, "count/op"),
        "partition.quadrature_nodes_calls": (calls("partition.quadrature_nodes") * per_op, "count/op"),
        "partition.quad_points": (c["partition.quad_points"] * per_op, "count/op"),
        "partition.self_s": (self_s["partition"] * per_op, "s/op"),
        "partition.nonfinite_results": (c["partition.nonfinite_results"] * per_op, "count/op"),
        "lll.calls": (layer_calls["lll"] * per_op, "count/op"),
        "lll.state_evals": (calls("lll._eval_terms") * per_op, "count/op"),
        "lll.self_s": (self_s["lll"] * per_op, "s/op"),
        "lll.fit_s": (total("lll.fit") * per_op, "s/op"),
        "lll.fit_points_per_state": (0.0 if math.isinf(fit_min) else fit_min, "points/state"),
        "matrices.weyl_element_calls": (calls("matrices.weyl_element") * per_op, "count/op"),
        "matrices.csmatrix_builds": (c["matrices.csmatrix_builds"] * per_op, "count/op"),
        "matrices.self_s": (self_s["matrices"] * per_op, "s/op"),
        "matrices.rank_s": (
            total("matrices.commutant_dimension", "matrices.weyl_span_dimension") * per_op,
            "s/op",
        ),
        "fields.calls": (layer_calls["fields"] * per_op, "count/op"),
        "fields.self_s": (self_s["fields"] * per_op, "s/op"),
        "cli.self_s": (self_s["cli"] * per_op, "s/op"),
        "cli.render_s": (total("cli.emit_json") * per_op, "s/op"),
    }
