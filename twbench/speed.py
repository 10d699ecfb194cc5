"""Host-speed probe: a fixed reference computation timed around rounds.

On small shared hosts the CPU speed drifts by up to a quarter over tens
of seconds, with CPU time per tick tracking wall time and no steal; every
time-based figure of a run drifts with it.  The probe times a fixed mix of
interpreter work and small NumPy calls -- the program's own instruction
mix, but none of its code -- right before and after every round, while
the program under test is idle.  A round's time-based figures are then
scaled to the reference speed by the median of its probes: a duration by
``REFERENCE_S / probe`` and a rate by ``probe / REFERENCE_S``.  The probe
does not depend on the program, so a change to the program moves the
scaled figures exactly as it moves the raw ones; only the host's drift
is divided out.  The raw figures are printed alongside.

The speed also moves within a second, so the in-process workloads probe
briefly between calls inside the round as well (``SpeedScale.sample``)
and leave those probes out of the round's time.  Over six interleaved
seeded runs of monitor-midsel on the 2-CPU defining host, probing inside
the round cut the spread (quartile distance over median) of scaled
throughput from 0.108 to 0.053 and of batch p99 from 0.173 to 0.065; raw
throughput spread 0.11-0.23.  ``sharded-2w`` probes only around its
rounds: inside them a probe would compete with its workers for the CPUs.

``service-open`` is not scaled: its open loop's rate is set by a
wall-clock schedule, and its latencies at a third of capacity are
wake-ups and small writes, which the probe does not track.  Over ten
seeded runs its scaled figures spread more than its raw ones (event p50
0.089 against 0.046, server CPU 0.072 against 0.028).
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time (seconds) that defines the reference speed: about the
#: median probe on the 2-CPU x86-64 host the benchmark was defined on.
REFERENCE_S = 0.5e-3

_VECTOR = np.linspace(0.0, 1.0, 256)


def _unit() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    values = _VECTOR
    for _ in range(60):
        values = np.minimum(values, values[::-1] + 1.0)
    return time.perf_counter() - started


def probe(repeats: int = 15) -> float:
    """Median seconds of the reference unit over ``repeats`` runs."""
    times = sorted(_unit() for _ in range(repeats))
    return times[len(times) // 2]


class SpeedScale:
    """Brackets rounds with probes; gives each round its scale factor."""

    def __init__(self) -> None:
        self.factors = []

    def start(self) -> None:
        self._samples = [probe()]

    def sample(self) -> float:
        """A short probe inside the round, between two of its timed
        calls; returns the seconds it took, for the caller to leave out
        of the round's time."""
        started = time.perf_counter()
        self._samples.append(probe(3))
        return time.perf_counter() - started

    def stop(self) -> float:
        """Factor for the round just ended: reference time over the
        median of the round's probes (below 1 when the host ran slow)."""
        self._samples.append(probe())
        measured = sorted(self._samples)[len(self._samples) // 2]
        factor = REFERENCE_S / measured
        self.factors.append(factor)
        return factor
