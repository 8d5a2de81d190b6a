"""Machine-speed probes that the benchmark's timings are normalised by.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over minutes, as neighbours come and go.  Every reported time is
therefore scaled by how long a fixed probe took next to it, relative to the
probe's nominal time::

    reported = measured * NOMINAL / probe

The compute probe is numpy and Python work shaped like the library's (small
complex LAPACK calls inside Python loops).  It runs for a few milliseconds
after every 50 ms of operations, and each latency is scaled by the median
of the probes nearest to it: the machine's speed changes within a second,
and only such close pairing tracks it.  The import probe is a fresh
``python -c "import numpy"``, run before and after each cold start and each
set-up interpreter; it scales the cold starts and the import part of
set-up, whose cost is process start-up and imports.  The rest of set-up is
scaled by compute probes run right after it.  Neither probe touches
``supq``, so a change to the library cannot move them.  The nominal
values are the probes' medians on a 2-vCPU Intel Xeon VM (Python 3.11.7,
numpy 2.4.6, one BLAS thread), so reported times read as times on that
machine at its usual speed.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

COMPUTE_NOMINAL_S = 0.0044
IMPORT_NOMINAL_S = 0.21

# How many probes on either side of an interval its speed estimate uses.
WINDOW = 4

_rng = np.random.default_rng(0)
_MATRICES = [_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
             for n in (2, 3, 4, 6, 8, 16)]


def compute_probe(rounds: int = 7) -> float:
    """Seconds for a fixed batch of small complex linear algebra."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        for M in _MATRICES:
            np.linalg.det(M)
            np.linalg.cond(M)
            np.linalg.solve(M, M @ M.conj().T)
            total = 0.0
            for k in range(M.shape[0]):
                total += float(np.abs(M[k, :k]).sum())
    return time.perf_counter() - t0


def speed_factors(probes: list[float]) -> np.ndarray:
    """Speed factor of each interval between consecutive probes: nominal
    over the median of the probes within ``WINDOW`` of it.  Above 1 while
    the machine runs fast; multiply a time measured in the interval by it."""
    return np.array([
        COMPUTE_NOMINAL_S / statistics.median(probes[max(0, k - WINDOW + 1): k + WINDOW + 1])
        for k in range(len(probes) - 1)
    ])


def compute_speed(samples: int = 2 * WINDOW + 1) -> float:
    """Speed factor from probes run now."""
    return COMPUTE_NOMINAL_S / statistics.median(compute_probe() for _ in range(samples))


def import_probe(env: dict, cwd, timeout: float) -> float:
    """Seconds for a fresh interpreter to import numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   capture_output=True, timeout=timeout, check=True)
    return time.perf_counter() - t0
