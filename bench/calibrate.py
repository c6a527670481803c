"""Fixed calibration kernel: how fast the machine is right now.

On a shared host the same process runs at very different speeds from one
second to the next (other tenants share the cores; nothing shows as steal
time), and a wall time alone cannot tell a slower program from a slower
machine. Every benchmark process therefore times this short kernel between
stretches of its own work (child.py), and run.py scales each stretch's wall
time by NOMINAL_S / the kernel's time around it.

The kernel does the same kinds of work as mmlbn, on fixed data: contingency
counts with numpy (np.unique over rows, np.add.at) and log-gamma sums, and
small dense solves. It does not import mmlbn, so a change to mmlbn never
changes the kernel.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import gammaln

# Kernel seconds that the scaled timings are expressed in: a scaled time is
# the time the work would take on a machine that runs the kernel in this long
# (about its time on the benchmark's 2-core host when no other tenant slows it).
NOMINAL_S = 0.005

_ROWS = np.random.default_rng(1301).integers(0, 4, (2000, 12))
_SOLVE = np.random.default_rng(6727).random((24, 24)) + 24.0 * np.eye(24)


def kernel() -> float:
    """Run the kernel once; returns a checksum so that no work is skipped."""
    total = 0.0
    for j in range(3):
        block = _ROWS[:, [j, (j + 1) % 12, (j + 5) % 12]]
        uniq, inverse = np.unique(block, axis=0, return_inverse=True)
        counts = np.zeros((uniq.shape[0], 4), dtype=np.int64)
        np.add.at(counts, (inverse.ravel(), _ROWS[:, (j + 7) % 12]), 1)
        total += float(gammaln(counts + 0.5).sum())
    for _ in range(20):
        total += float(np.linalg.solve(_SOLVE, _SOLVE[:, 0])[0])
    return total


def samples(n: int) -> list[float]:
    """Wall seconds of n back-to-back kernel runs."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out
