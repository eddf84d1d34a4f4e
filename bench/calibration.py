"""Reference kernels that take the host's momentary speed out of the times.

On a shared host the same code runs up to 1.5x slower for minutes at a
time.  A kernel that shares no code with walkmat is timed just before and
just after each operation (or each few operations); the operation's time is
multiplied by the kernel's reference time over the mean of those two.  The
kernel slows with the host, so the scaled time stays put, while a change to
walkmat moves the operation and not the kernel.  Scaled times read as times
on the host the reference figures were taken on (a 2-core Intel Xeon VM at
2.1 GHz, Python 3.11.7, NumPy 2.4.6).

Two kernels, one per kind of operation:

* `FRACTION`: Fraction elimination on a fixed 8x8 matrix, for in-process
  library calls, which are bigint and interpreter work;
* `PROCESS`: a fresh ``python -c "import numpy"``, for operations that start
  a Python process (cli-cold's calls and the set-up probes), whose time is
  mostly process start and imports.  Those slow in phases that the
  in-process kernel does not see, such as the first half minute after the
  host has left the benchmark idle.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

FRACTION_REPS = 3
PROCESS_TIMEOUT_S = 60

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.getrandbits(60), _rng.getrandbits(40) | 1)
            for _ in range(8)] for _ in range(8)]


@dataclass(frozen=True)
class Kernel:
    ref_s: float                   # typical time on the reference host
    seconds: Callable[[], float]   # one timing of the kernel
    every: int                     # operations between two timings

    def scale(self, before: float, after: float) -> float:
        """Factor for operations timed between two kernel timings."""
        return 2 * self.ref_s / (before + after)


def _eliminate() -> None:
    a = [row[:] for row in _MATRIX]
    for c in range(8):
        for r in range(c + 1, 8):
            f = a[r][c] / a[c][c]
            for k in range(c, 8):
                a[r][k] -= f * a[c][k]


def fraction_seconds() -> float:
    """Median of FRACTION_REPS timed eliminations."""
    times = []
    for _ in range(FRACTION_REPS):
        start = time.perf_counter()
        _eliminate()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def process_seconds() -> float:
    """Wall time of one fresh interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, timeout=PROCESS_TIMEOUT_S)
    return time.perf_counter() - start


FRACTION = Kernel(0.0035, fraction_seconds, 1)
# one timing per cli-cold round of six calls keeps its cost near a tenth
PROCESS = Kernel(0.2, process_seconds, 6)
