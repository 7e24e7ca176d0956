"""A fixed reference computation that measures how fast the host runs the
program's kind of work at the moment it runs.

The shared machines this benchmark runs on change speed for numpy-bound
work by up to a factor of two over minutes (see "Host noise" in
README.md).  The probe is small dense linear algebra on 8 x 8 matrices,
the program's own kind of work, and never calls the program.  Timed
between the rounds in the benchmark's own process, it slows down with
the host, so a round's CPU time in that process, rescaled by the probe,
changes far less with the host's speed than the plain time.
"""

from __future__ import annotations

import time

import numpy as np

SIZE = 8
MATRICES = 64
REPS = 10
# The probe's median wall time on the reference host (shared 2-core Intel
# Xeon 2.1 GHz virtual machine, numpy 2.4.6) in a quiet minute.  It only
# fixes the scale of the rescaled times: round CPU time x REFERENCE_S /
# the probe's median over the run.
REFERENCE_S = 0.018
# after each round, probe for at least this share of the round's wall time
SHARE = 0.05

_MATS = [m @ m.T + SIZE * np.eye(SIZE)
         for m in np.random.default_rng(0).standard_normal((MATRICES, SIZE, SIZE))]


def probe_s() -> float:
    """Wall time of the fixed computation."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        for m in _MATS:
            np.linalg.det(m)
            np.linalg.inv(m)
            np.linalg.eigvalsh(m)
    return time.perf_counter() - t0


def probes_after(round_wall_s: float) -> list[float]:
    """Probe times, one or more, covering at least SHARE of the round."""
    times = [probe_s()]
    while sum(times) < SHARE * round_wall_s:
        times.append(probe_s())
    return times
