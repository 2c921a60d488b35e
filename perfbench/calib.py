"""Machine-speed calibration: a fixed kernel timed between the jobs.

The benchmark runs on a shared virtual machine whose CPU speed drifts by up
to a third over tens of seconds.  Every workload's throughput follows that
drift, so runs of the same code a few minutes apart disagree by more than
any useful bound.  A fixed kernel that does not touch the library follows
the same drift: on a 2-vCPU Xeon VM the log of ``pairs-axis`` throughput
over 5 s windows correlated 0.98 with the log of this kernel's speed.

``kernel_s()`` times the kernel once: a dictionary-and-bit loop like the
library's blade products, then a loop of 8x8 numpy products like its small
array work.  ``Sampler.speed()`` is the machine's speed over a run relative
to ``REFERENCE_S``, the kernel's median time between jobs on that VM (a
sample taken between jobs reads about 1.5 times slower than back-to-back
samples, whose caches are warm).  Dividing a rate by the speed (multiplying
a time by it) gives the value at the reference speed: a change to the
library moves that value, a change of machine speed mostly does not.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0045  # median kernel_s() between jobs, on a 2-vCPU Xeon VM
INTERVAL_S = 0.25     # at most one sample per this much wall time

_M = np.random.default_rng(0).standard_normal((8, 8))
_ODD = (1, 3, 5, 7, 9, 11, 13)


def kernel_s() -> float:
    """Wall time of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    acc = {}
    for a in range(750):
        for b in _ODD:
            key = a ^ b
            sign = -1.0 if bin(a & b).count("1") & 1 else 1.0
            acc[key] = acc.get(key, 0.0) + sign
    x = _M
    for _ in range(700):
        x = (x @ _M) * 0.1 + _M
    return time.perf_counter() - t0


class Sampler:
    """Takes a kernel sample when ``INTERVAL_S`` has passed since the last."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(kernel_s())
            self._last = time.perf_counter()

    def speed(self) -> float:
        """Machine speed relative to the reference over the samples taken."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
