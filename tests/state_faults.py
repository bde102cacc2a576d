"""Fault injection into the stacked ground states of a basis, shared by
the tests that check how a bad state is reported."""

import dataclasses

from nctorus.fields import Field


def with_states(basis, states):
    """Copy of ``basis`` whose stacked field evaluates ``states[label]``
    (a :class:`Field`) in the row of each label it names and the basis's
    own states in every other row, so that the fit samples, the
    translation images and the cell quadratures all see the replacement.
    The copy's caches start empty."""
    labels = basis.labels()
    rows = {labels.index(label): f for label, f in states.items()}
    stacked = basis.field

    def evaluate(w, wbar):
        out = stacked.evaluate(w, wbar)
        for i, f in rows.items():
            out[i] = f.evaluate(w, wbar)
        return out

    return dataclasses.replace(basis, field=Field(evaluate, stacked.tau, stacked.im_tau_weight))
