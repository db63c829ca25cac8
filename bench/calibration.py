"""Host-speed calibration: a fixed kernel timed next to every measured step.

The benchmark's host is shared, and the speed of the same code on it
switches between levels up to 1.9x apart, in spells from a fraction of a
second to minutes: long enough that a whole run can fall inside one.  So
every job and every set-up probe is timed between two runs of this
kernel, and its time is reported relative to the kernel's, in seconds of
the kernel's REFERENCE_S.  The kernel mixes a Python-level loop with
small LAPACK calls, as weyllab's own work does, and it slows by about the
same factor in a slow spell; it is not weyllab code, so a change to the
program does not change it.
"""

from __future__ import annotations

import time

import numpy as np

# Bound before the tracer wraps numpy.linalg.solve, so that the kernel
# records no spans and adds to no call count.
from numpy.linalg import solve as _solve

# The kernel's time on the machine the benchmark was written on (see
# README.md), in a quiet spell.  Normalised times read in that machine's
# quiet seconds.
REFERENCE_S = 2.7e-3
REPEATS = 5

_RNG = np.random.default_rng(0)
_A = _RNG.random((8, 8)) + 8.0 * np.eye(8)
_B = _RNG.random(8)


def _kernel() -> None:
    s = 0
    for i in range(20000):
        s += i * i
    for _ in range(300):
        _solve(_A, _B)


def kernel_seconds() -> float:
    """The kernel's fastest time over REPEATS runs, about 15 ms."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def normalised(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """`seconds` in the reference machine's quiet seconds."""
    return seconds * REFERENCE_S * 2.0 / (kernel_before + kernel_after)
