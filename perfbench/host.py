"""Host speed, measured in the run by a fixed numpy kernel.

On the shared KVM host the benchmark was written on, the same work ran
10-30% slower or faster from one minute to the next, and a cold set-up
(0.05-0.3 s, mostly first-touch page faults and small numpy calls) moved
by up to 1.9x from one process to the next. A fixed kernel timed in the
same process moves with it. The kernel does the kinds of work fbm does
and uses nothing from the package: BLAS matmuls at a model-like shape,
passes over an array larger than a core's L2, and fresh 40 MB arrays,
each a new mapping that is faulted in and zeroed, like fbm's large
temporaries. An adjusted time is the raw one divided by the kernel's
median time over the same phase, relative to nominal. A change to fbm
moves it as it moves the raw time, while the host's state cancels.

The kernel runs after each set-up and after each timed step or batch.
Over ten runs per workload, the spread (IQR / median) of the median step
was 0.19 (train-s), 0.11 (eval-s) and 0.16 (case1-l) raw, and 0.08,
0.09 and 0.02 adjusted; that of the median set-up 0.21-0.23 raw and
0.07-0.12 adjusted. eval-s follows the kernel least (correlation 0.63
of the logs, against 0.89 and 0.99), and adjusting leaves its spread
about as it was.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on one vCPU of a 2-vCPU Xeon (AVX-512) KVM guest
NOMINAL_S = 0.027

_MATMULS = 4
_PASSES = 2
_FRESH = 2
_FRESH_LEN = 5_000_000  # 40 MB, above glibc's largest mmap threshold: always a new mapping


class HostSpeed:
    """Times the kernel on demand and keeps every sample; `spent` is their sum."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((256, 336))
        self._w = rng.random((336, 512))
        self._big = rng.random(4_000_000)  # 32 MB
        self.samples = []
        self.spent = 0.0

    def sample(self, reps=1):
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(_MATMULS):
                self._x @ self._w
            for _ in range(_PASSES):
                np.multiply(self._big, 1.0, out=self._big)
            for _ in range(_FRESH):
                np.empty(_FRESH_LEN).fill(1.0)
            self.samples.append(time.perf_counter() - t0)
            self.spent += self.samples[-1]

    def factor(self, since=0):
        """Median kernel time of the samples from index `since` on, relative to
        nominal: above 1 on a slow host."""
        return statistics.median(self.samples[since:]) / NOMINAL_S
