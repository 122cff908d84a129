"""The benchmark's calibration computation.

Fixed small linear algebra and float arithmetic, the kind of work the
package does; 1-2.3 ms on the reference machine.  The benchmark's times are
scaled to a machine that runs it in CALIBRATION_S (see workloads.py).  It
imports numpy only, so a set-up subprocess can run it after its imports.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

CALIBRATION_S = 0.002

_MATRIX = np.array([[6.0 - abs(i - j) + 0.1 * i * j for j in range(6)] for i in range(6)])


def calibrate() -> float:
    """The calibration computation; returns a checksum."""
    s = 0.0
    for _ in range(80):
        w = np.linalg.svd(_MATRIX, compute_uv=False)
        s += float(w[0])
        for j in range(1, 60):
            s += math.sqrt(j) * 1e-9
    return s


def median_time(n: int) -> float:
    """The median time of `n` calibrations run back to back."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        calibrate()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
