"""Machine-speed reference: a fixed kernel timed between the workload's ops.

The benchmark's host shares its cores with other tenants, and their load
moves this process's speed by 10-25% over seconds to minutes. That drift
swamps run-to-run comparisons of wall time. The kernel below is the
benchmark's own miniature of the package's hot path: central-difference
perturbations of a logistic score and one Newton step on 2,048 fixed rows,
so its many small numpy calls slow down with the host as the ops do.

Its arrays are at most 64 KiB, below the allocator's mmap threshold, so it
makes no page faults and the memory the op before it used cannot change its
time: in one process rotating the three workloads, its median time after a
truth-oracle op was within 0.2% of its time after an estimate call.

A burst reports the kernel's mean time, not its median. Both the op and the
mean average over the host's sub-second fluctuations, while the median
follows the state the host is in most of the time. In a 7-minute probe on a
2-core Intel Xeon host that rotated sim_nonprob, estimate and truth-oracle
ops with bursts, over 30 s blocks the mean's correlation with op time was
0.86-0.92 against 0.73-0.88 for the median of an earlier kernel (8x8 solves
and an interpreter loop), and scaling by it cut the standard deviation of
the blocks' log op time from 0.032-0.039 (raw) to 0.021-0.027.

The kernel slows down more than the ops do. Over 30 s blocks of those
probes, log op time rose by 0.46-0.73 per unit of log kernel time, and the
same slope, taken across the runs of earlier ten-run sets, ranged from 0.4
to 1.1. So an op's wall time is scaled by (NOMINAL_S / k) ** EXPONENT,
where k is the mean of the kernel bursts right before and right after it.
Over four earlier ten-run sets per workload, the worst quartile spread of
ops_per_s was 0.154 unscaled (EXPONENT 0), 0.178 fully scaled (1) and 0.099
at 0.5. Reported times are "seconds on a host where the kernel takes
NOMINAL_S", under that partial correction. Raw wall times are reported
alongside.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 1e-3
EXPONENT = 0.5
ROWS = 2048
COLS = 4
REPS = 6
STEP = 1e-6
MIN_CALLS = 3


class SpeedProbe:
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(12345))
        self._x = rng.standard_normal((ROWS, COLS))
        self._y = (rng.random(ROWS) < 0.4).astype(float)
        self._beta = np.array([0.1, -0.2, 0.3, 0.05])

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(REPS):
            for j in range(COLS):
                beta = self._beta.copy()
                beta[j] += STEP
                p = 1.0 / (1.0 + np.exp(-(self._x @ beta)))
                total += float((self._x * (self._y - p)[:, None]).sum())
            hessian = self._x.T @ (self._x * (p * (1.0 - p))[:, None])
            total += float(np.linalg.solve(hessian, self._x.T @ (self._y - p)).sum())
        return total

    def burst(self, seconds: float) -> float:
        """Mean kernel time over at least MIN_CALLS calls and ``seconds``."""
        calls = 0
        started = time.perf_counter()
        while calls < MIN_CALLS or time.perf_counter() - started < seconds:
            self._kernel()
            calls += 1
        return (time.perf_counter() - started) / calls


def scale(seconds: float, kernel_s: float) -> float:
    """Wall time ``seconds`` at the nominal host speed, given the kernel time."""
    return seconds * (NOMINAL_S / kernel_s) ** EXPONENT
