"""Fault injection into the stacked ground states of a basis, shared by
the tests that check how a bad state is reported.  Each fault goes into
the basis's stacked :class:`ThetaField`: its residues, its terms, or the
table of exponents that the measurement on the cell rule reads."""

import dataclasses

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
