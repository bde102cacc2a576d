"""Output checks for benchmark ops, independent of nctorus.

Each op's result is classified under the first failure reason that
applies, in this order:

- ``exit_code``: nonzero exit code (an uncaught exception counts, as the
  ``nctorus`` script would exit nonzero);
- ``invalid_json``: stdout that strict JSON parsing rejects (``nan``,
  ``NaN``, ``Infinity``);
- ``non_finite``: a parsed number that is not finite (such as ``1e999``);
- ``oracle_mismatch``: a finite, well-formed result that disagrees with
  the closed forms below.

Oracles use only numpy and mpmath (``mpmath.eta`` for the Dedekind eta):

- ``partition``: both ``Z~`` routes match
  ``sqrt(K/(2b)) * exp(b*alpha1**2/(2*pi*K)) / |eta(tau)|**2`` with
  ``b = Im tau``; ``s_residual`` matches
  ``|exp((b' - b)*alpha1**2/(2*pi*K)) - 1|`` with ``b' = Im(-1/tau)``;
  ``t_residual`` is about 0.
- ``matrices``: clock, shift and the dual pair match their closed forms,
  the reported residuals are within ``verify``'s tolerances, the
  commutant is one-dimensional and the Weyl words span ``M**2``
  dimensions.
- ``verify``: exit code 0 and ``"pass": true``.
"""

from __future__ import annotations

import cmath
import json
import math
import re

import mpmath
import numpy as np

REASONS = ("exit_code", "invalid_json", "non_finite", "oracle_mismatch")

# Relative tolerance on Z~ and the S residual.  Measured deviations are at
# most a few 1e-14 at 64 or more quadrature nodes per axis.
PARTITION_RTOL = 1e-9
ENTRY_ATOL = 1e-12
MATRICES_RESIDUAL_TOL = {
    "q_commutation": 1e-13,
    "dual_q_commutation": 1e-13,
    "sine_structure": 1e-12,
    "weyl_cocycle": 1e-12,
}


_NON_FINITE_FIELD = re.compile(r'"(\w+)":(-?(?:nan|inf|NaN|Infinity))')


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def closed_form_z_tilde(level, tau, alpha1) -> float:
    b = tau.imag
    eta = mpmath.eta(mpmath.mpc(tau.real, tau.imag))
    gauss = math.exp(b * alpha1**2 / (2.0 * math.pi * level))
    return math.sqrt(level / (2.0 * b)) * gauss / float(abs(eta)) ** 2


def _check_partition(op, doc):
    k = op.level
    want = closed_form_z_tilde(k, op.tau, op.alpha1)
    for key in ("z_tilde", "z_tilde_character_route"):
        got = doc[key]
        if abs(got - want) > PARTITION_RTOL * want:
            return "%s %.17g, closed form %.17g" % (key, got, want)
    b = op.tau.imag
    b_s = (-1.0 / op.tau).imag
    ratio = math.exp((b_s - b) * op.alpha1**2 / (2.0 * math.pi * k))
    if abs(doc["s_residual"] - abs(ratio - 1.0)) > PARTITION_RTOL * max(1.0, ratio):
        return "s_residual %.17g, predicted %.17g" % (doc["s_residual"], abs(ratio - 1.0))
    if abs(doc["t_residual"]) > PARTITION_RTOL:
        return "t_residual %.17g, predicted 0" % doc["t_residual"]
    return None


def _complex_matrix(rows):
    return np.array([[complex(e["re"], e["im"]) for e in row] for row in rows])


def clock_closed_form(m, n, alpha):
    j = np.arange(m)
    return np.diag(np.exp(2j * math.pi * n * j / m)) * cmath.exp(1j * alpha / m)


def shift_closed_form(m, alpha):
    e = np.zeros((m, m), dtype=complex)
    e[(np.arange(m) + 1) % m, np.arange(m)] = cmath.exp(1j * alpha / m)
    return e


def _check_matrices(op, doc):
    m, n = op.m, op.n
    want = {
        "clock": clock_closed_form(m, n, op.alpha1),
        "shift": shift_closed_form(m, op.alpha2),
        "dual_clock": clock_closed_form(n, m, op.alpha1),
        "dual_shift": shift_closed_form(n, op.alpha2),
    }
    for key, expected in want.items():
        got = _complex_matrix(doc[key])
        if got.shape != expected.shape:
            return "%s has shape %s, expected %s" % (key, got.shape, expected.shape)
        dev = float(np.max(np.abs(got - expected)))
        if dev > ENTRY_ATOL:
            return "%s deviates from its closed form by %.3e" % (key, dev)
    for key, tol in MATRICES_RESIDUAL_TOL.items():
        if doc["residuals"][key] > tol:
            return "residual %s %.3e above %.0e" % (key, doc["residuals"][key], tol)
    if doc["commutant_dimension"] != 1:
        return "commutant_dimension %r, expected 1" % doc["commutant_dimension"]
    if doc["weyl_span_dimension"] != m * m:
        return "weyl_span_dimension %r, expected %d" % (doc["weyl_span_dimension"], m * m)
    return None


def _check_verify(op, doc):
    if doc.get("pass") is not True:
        return "verify reported pass=%r" % doc.get("pass")
    return None


_ORACLES = {
    "partition": _check_partition,
    "matrices": _check_matrices,
    "verify": _check_verify,
}


def parse(stdout):
    """Strict JSON parse; None when the text is not standard JSON."""
    try:
        return json.loads(stdout, parse_constant=_reject_constant)
    except ValueError:
        return None


def classify(op, code, stdout):
    """Return ``(reason, detail, doc)``: ``reason`` is None when every check
    passes, ``doc`` is the parsed output or None."""
    doc = parse(stdout)
    if code != 0:
        return "exit_code", "exit code %r" % code, doc
    if doc is None:
        bad = ", ".join("%s=%s" % m for m in _NON_FINITE_FIELD.findall(stdout))
        return "invalid_json", "stdout is not strict JSON" + (": " + bad if bad else ""), None
    if not _all_finite(doc):
        return "non_finite", "output holds a non-finite number", doc
    try:
        detail = _ORACLES[op.command](op, doc)
    except (KeyError, TypeError, ValueError) as exc:
        detail = "output does not have the expected form: %r" % (exc,)
    return ("oracle_mismatch" if detail else None), detail, doc
