"""Fault injection, shared by the tests that check how a fault is reported.
Most faults go into the basis's stacked :class:`ThetaField`: its residues,
its terms, or the table of exponents that the measurement on the cell rule
reads.  :data:`VERIFY_FAULTS` names the faults that ``verify`` must catch."""

import dataclasses
from typing import Callable, NamedTuple

import numpy as np

from nctorus import cli, lll, partition
from nctorus.core import VacuumAngles
from nctorus.lll import ThetaField


def _with_field(basis, cls=ThetaField, terms=None, residues=None, **extra):
    f = basis.field
    field = cls(f.terms if terms is None else terms, f.level,
                f.residue if residues is None else residues,
                basis.tau, f.angles, f.policy, **extra)
    return dataclasses.replace(basis, field=field)


def with_residues(basis, residues):
    """Copy of ``basis`` whose states carry ``residues`` in label order,
    as its one stacked series.  The copy's caches start empty."""
    return _with_field(basis, residues=residues)


def swapped(basis, first, second):
    """Fault: the labels ``first`` and ``second`` trade residues."""
    labels, residues = basis.labels(), list(basis.field.residue)
    i, j = labels.index(first), labels.index(second)
    residues[i], residues[j] = residues[j], residues[i]
    return with_residues(basis, residues)


def repeated(basis, source, target):
    """Fault: the label ``target`` gets the residue of ``source``, so two
    states coincide."""
    labels, residues = basis.labels(), list(basis.field.residue)
    residues[labels.index(target)] = residues[labels.index(source)]
    return with_residues(basis, residues)


def with_terms(basis, terms):
    """Copy of ``basis`` whose every state is the term family ``terms``
    (``{(0, 0, 0): nan}`` makes every value and every window NaN)."""
    return _with_field(basis, terms=terms)


class _FaultyWindow(ThetaField):
    __slots__ = ("fault",)

    def __init__(self, *args, fault):
        super().__init__(*args)
        self.fault = fault

    def cell_exponent(self, y):
        return self.fault(y, *super().cell_exponent(y))


def with_window(basis, fault):
    """Copy of ``basis`` whose cell table on the columns ``y`` is
    ``fault(y, freq, expo) -> (freq, expo)`` of its own: a factor on the
    window is an added log on its exponents.  Its pointwise values are the
    basis's."""
    return _with_field(basis, cls=_FaultyWindow, fault=fault)


def faulty_states(monkeypatch, fault):
    """Every basis the CLI builds is ``fault(basis)``."""
    build = cli.build_basis
    monkeypatch.setattr(cli, "build_basis", lambda *args, **kwargs: fault(build(*args, **kwargs)))


def nan_states(monkeypatch):
    """Every basis the CLI builds holds ground states that are NaN, so
    each value, measurement and quadrature of them is non-finite."""
    faulty_states(monkeypatch, lambda basis: with_terms(basis, {(0, 0, 0): np.nan}))


class _WithoutScale(lll._Translated):
    """Fault: a translation without its ``exp(2i*alpha/div)`` factor."""

    def __init__(self, base, displacement, scale, *args):
        super().__init__(base, displacement, 1.0, *args)


class _ShiftedStepAlongTau(lll._Translated):
    """Fault: the cell table of a step along ``tau`` one frequency off."""

    def cell_exponent(self, y):
        freq, expo = super().cell_exponent(y)
        return (freq + 1 if self.displacement.u.imag else freq), expo


def _flipped_cocycle_sign(monkeypatch):
    """Fault: ``--inject-fault``, the q-commutation check's flipped sign."""
    return ["--inject-fault"]


def _states(fault):
    """Injector: every basis the CLI builds is ``fault(basis)``."""
    return lambda monkeypatch: faulty_states(monkeypatch, fault)


def _angle_map_without_alpha1(monkeypatch):
    """Fault: the transformed bases drop alpha1, so Z~ at tau + 1 and at
    -1/tau misses the Gaussian factor exp(Im tau*alpha1**2/(2*pi*K)) of
    the run."""
    build = partition.build_basis
    monkeypatch.setattr(partition, "build_basis", lambda flux, tau, angles, *args: build(
        flux, tau, VacuumAngles(0.0, angles.alpha2), *args))


class VerifyFault(NamedTuple):
    argv: list        # the run's flags after ``verify``
    inject: Callable  # inject(monkeypatch) patches, or returns the flags it adds
    failing: set      # the rows that fail, and no other


_ANGLES = ["--alpha1", "0.7", "--alpha2", "-1.3"]
_LAWS = {"center_eigenvalues", "lemma_eigenphases", "bimodule_consistency"}


def _flag_fault(m, n):
    return VerifyFault(["--M", m, "--N", n], _flipped_cocycle_sign, {"q_commutation_matrix"})


# M <= 2 makes q = e^{2 pi i N/M} real, so the flag's fault must not be a
# complex conjugation.  The centre is measured on the module, so a
# repeated state (L reads the overlap of the two) and a step along tau one
# frequency off (D2^M is one) fail it too
VERIFY_FAULTS = {
    "inject_fault-3,2": _flag_fault("3", "2"),
    "inject_fault-2,1": _flag_fault("2", "1"),
    "inject_fault-1,1": _flag_fault("1", "1"),
    "swapped_residues": VerifyFault(_ANGLES, _states(lambda b: swapped(b, (0, 0), (1, 1))),
                                    {"lemma_eigenphases", "bimodule_consistency"}),
    "repeated_residue": VerifyFault(_ANGLES, _states(lambda b: repeated(b, (0, 0), (0, 1))),
                                    _LAWS | {"gram_rank", "orthogonality"}),
    "translation_without_scale": VerifyFault(
        _ANGLES, lambda mp: mp.setattr(lll, "_Translated", _WithoutScale), _LAWS),
    "step_along_tau_with_wrong_shift": VerifyFault(
        _ANGLES, lambda mp: mp.setattr(lll, "_Translated", _ShiftedStepAlongTau), _LAWS),
    "angle_map_without_alpha1": VerifyFault(["--alpha1", "2.0"], _angle_map_without_alpha1,
                                            {"partition_t_invariance", "partition_s_invariance"}),
}
