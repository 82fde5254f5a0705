"""Host-speed calibration for a shared machine.

The benchmark's host is a 2-core VM shared with other tenants.  The same
work takes up to 1.7x longer in slow phases, which last from seconds to
minutes.  User CPU time grows with wall time, so neither clock escapes
them.  `calibrate()` times a fixed piece of the benchmark's own work: an
interpreter loop, object churn with float formatting, and numpy arrays.  The
runner calls it before the first call of the program and after every call.
It scales each call's times by `REFERENCE_S / sqrt(c_before * c_after)`,
where the c are the calibrations on either side of the call.  A program change does not move
the calibration, so it moves the scaled times in full.  The runner pins
itself and its children to one core: the two cores slow down at different
times, and with `sphere` the correlation of a call's log wall time with the
log calibration time rose from 0.36-0.62 unpinned to 0.71-0.78 pinned.

On the machine below, in two sets of ten 25-second runs, the IQR/median of
the median wall time was 0.116 and 0.249 raw and 0.051 and 0.137 scaled on
`shots`, and 0.189 and 0.155 raw and 0.041 and 0.055 scaled on `sphere`.
"""

from __future__ import annotations

import math
import time

import numpy as np

# about the median calibration time within runs on the machine the
# benchmark was defined on (2 vCPU Intel Xeon VM, Python 3.11, numpy 2.4),
# so that scaled times read as seconds there
REFERENCE_S = 0.24

_N = np.arange(1.0, 400_001.0)


def _interpreter():
    x = 0.0
    for i in range(200_000):
        x = (x + i * 0.5) % 1000.0
    return x


def _objects():
    rows = []
    index = {}
    for i in range(40_000):
        row = (i, i * 0.5, f"{i * 1.5:.6g}")
        rows.append(row)
        index[row[2]] = row
    rows.sort(key=lambda r: r[2])
    return len(index)


def _arrays():
    total = 0.0
    for _ in range(3):
        logs = np.vectorize(math.lgamma)(_N[:20_000] + 1.0)
        total += float((_N * math.log(3.7) - 3.7).sum() - logs.sum()
                       - np.cumsum(np.exp(-_N / 1e5))[-1])
    return total


def calibrate() -> float:
    """Seconds the fixed calibration work takes now (about 0.24 s).

    Two passes: a single pass (0.12 s) samples too little of the host's
    speed and roughly halved the gain in steadiness.
    """
    t0 = time.perf_counter()
    for _ in range(2):
        _interpreter()
        _objects()
        _arrays()
    return time.perf_counter() - t0
