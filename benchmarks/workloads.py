"""Seeded op streams for the three benchmark workloads.

Every op is one ``nctorus`` command line.  Partition and verify ops draw
from one box: a coprime flux ``(M, N)`` with ``M, N <= 13`` and
``2 <= K = M*N <= 100`` (100 pairs), ``Re tau`` in ``[-0.5, 0.5]``,
``Im tau`` in ``[0.8, 2.0]`` and both vacuum angles in ``[0, 2*pi)``.
Matrices ops use ``M`` in ``[2, 24]`` with a coprime ``N <= 7``.

Op cost grows with ``K`` (and with ``M`` for matrices) by two orders
of magnitude across the box, the partition failures depend on
``K * Im tau``, and a run holds only a few dozen ops.  Drawn at random,
the ops of a run would make its median op time and failure share depend
more on the seed than on the program.  So a workload runs whole *cycles*
of ``L = CYCLE[workload]`` ops, each a Latin hypercube of the box:

- cycle ``c`` takes ``L`` fluxes evenly spaced through the box sorted by
  cost, at a shift of ``c * 0.618... mod 1`` of the spacing, so that
  successive cycles interleave; the op of rank ``r`` (by cost) is visited
  in the order of a Kronecker sequence;
- ``Im tau``, ``Re tau``, ``alpha1`` and ``alpha2`` each have their range
  cut into ``L`` equal strata; the op of rank ``r`` in cycle ``c`` takes
  stratum ``(r*g + c*h) mod L`` of each, with fixed ``(g, h)`` per
  parameter, so the pairing of cost with ``Im tau`` is the same for
  every seed;
- the seed draws the point within each stratum;
- the partition op of cost rank ``QUAD128_RANK`` runs at 128 nodes per
  axis.

The fluxes and strata do not depend on the seed.  Fluxes recur across
ops; ``tau`` differs on every op, so no ``(flux, tau)`` pair repeats.
Streams of one seed visit the same fluxes and strata with other points
in them, so op ``i`` of every stream is a twin of nearly the same cost.
A run holds a fixed number of whole cycles (``run_length``), so a seed
and a run length give the same ops, and the same failures, on any host.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("partition-sweep", "verify-sweep", "matrices-sweep")

# The partition op of this cost rank in each cycle of 7 runs at 128
# quadrature nodes per axis (a 16384-point cell instead of 4096): one op
# in 7, near the median K.
QUAD128_RANK = 3

# (g, h) per parameter for Im tau, Re tau, alpha1, alpha2; each g is
# coprime to every cycle length, so r -> r*g mod L is a permutation.
_STRATA = ((3, 1), (5, 3), (9, 5), (11, 2))


def _sweep_fluxes():
    pairs = [
        (m, n)
        for m in range(1, 14)
        for n in range(1, 14)
        if math.gcd(m, n) == 1 and 2 <= m * n <= 100
    ]
    return sorted(pairs, key=lambda p: (p[0] * p[1], p[0]))


def _matrices_fluxes():
    pairs = [(m, n) for m in range(2, 25) for n in range(1, 8) if math.gcd(m, n) == 1]
    return sorted(pairs)


SWEEP_FLUXES = _sweep_fluxes()
MATRICES_FLUXES = _matrices_fluxes()

# Ops per cycle.
CYCLE = {
    "partition-sweep": 7,
    "verify-sweep": 7,
    "matrices-sweep": 13,
}

# Nominal wall time of one cycle on a 2-core x86 box, a little above the
# measured 4.8-4.9 s (partition, verify) and 3.2 s (matrices).  It fixes
# how many cycles a run of a given length holds, so that a run does the
# same ops whatever the speed of the host.
CYCLE_SECONDS = {
    "partition-sweep": 5.5,
    "verify-sweep": 5.5,
    "matrices-sweep": 3.5,
}


def run_length(workload: str, seconds: float, ops_per_slot: int) -> int:
    """Number of slots (ops of one stream) in a run of ``seconds`` that
    runs ``ops_per_slot`` ops per slot: whole cycles, at least one."""
    cycles = max(1, round(seconds / (ops_per_slot * CYCLE_SECONDS[workload])))
    return cycles * CYCLE[workload]
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def cycle_fluxes(box, length, c):
    """Cycle ``c``: ``length`` fluxes evenly spaced through ``box`` at a
    shift that moves by the golden ratio from cycle to cycle, as
    ``(rank, flux)`` in the order of a Kronecker sequence."""
    shift = (c * _GOLDEN) % 1.0
    order = sorted(range(length), key=lambda j: (0.5 + j * _GOLDEN) % 1.0)
    return [(r, box[int((r + shift) * len(box) / length)]) for r in order]


@dataclass(frozen=True)
class Op:
    """One command of a workload."""

    index: int
    command: str
    m: int
    n: int
    tau: complex
    alpha1: float
    alpha2: float
    quad: int = 64
    stream: int = 0

    @property
    def level(self) -> int:
        return self.m * self.n

    def argv(self) -> list:
        # --tau=<value>: a negative real part would otherwise parse as a flag
        argv = [
            self.command,
            "--M", str(self.m),
            "--N", str(self.n),
            "--tau=%r+%ri" % (self.tau.real, self.tau.imag),
            "--alpha1", repr(self.alpha1),
            "--alpha2", repr(self.alpha2),
        ]
        if self.quad != 64:
            argv += ["--quad", str(self.quad)]
        return argv


def warmup_op(workload: str) -> Op:
    """Fixed small op used to warm up and to time set-up."""
    return Op(-1, _command(workload), 3, 2, 0.3 + 1.1j, 0.4, 1.1)


def _command(workload: str) -> str:
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    return workload.split("-")[0]


def ops(workload: str, seed: int, stream: int = 0) -> Iterator[Op]:
    """Endless op stream of ``workload`` in cycles of ``CYCLE[workload]``
    ops; the same seed and stream give the same ops.  Streams of one seed
    share their fluxes and differ in ``tau`` and the angles."""
    command = _command(workload)
    box = MATRICES_FLUXES if command == "matrices" else SWEEP_FLUXES
    cycle = CYCLE[workload]
    rng = random.Random("%d/%d" % (seed, stream))
    i = 0
    for c in itertools.count():
        for rank, (m, n) in cycle_fluxes(box, cycle, c):
            im, re, a1, a2 = (((rank * g + c * h) % cycle + rng.random()) / cycle
                              for g, h in _STRATA)
            tau = complex(re - 0.5, 0.8 + 1.2 * im)
            quad = 128 if command == "partition" and rank == QUAD128_RANK else 64
            yield Op(i, command, m, n, tau, 2.0 * math.pi * a1, 2.0 * math.pi * a2, quad, stream)
            i += 1
