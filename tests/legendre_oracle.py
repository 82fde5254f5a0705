"""A reference for the package's normalized associated Legendre functions.

`legendre_norm_table` runs the standard three-term upward recurrence over L
for one order m at a time, the per-m construction that
`qnd_povm.numerics.legendre_sum` folds into one pass over every M.
`legendre_sum_every_column` is that one pass run over every column, also
the zero columns that `legendre_sum` skips, in the same arithmetic, so the
two agree to the bit.
"""

import math

import numpy as np


def legendre_norm_table(lmax: int, m: int, x: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values, rows L = m..lmax.

    Row L holds sqrt((2L+1)/(4 pi) (L-m)!/(L+m)!) P_L^m(x) with the
    Condon-Shortley sign, computed by the standard three-term upward
    recurrence, which is stable for the L range used here.  Requires m >= 0.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.maximum(0.0, (1.0 - x) * (1.0 + x)))
    rows = np.zeros((max(0, lmax - m + 1),) + x.shape)
    if lmax < m:
        return rows
    # seed: sectoral term P~_m^m
    pmm = np.full(x.shape, 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(1, m + 1):
        pmm = -math.sqrt((2 * k + 1) / (2.0 * k)) * s * pmm
    rows[0] = pmm
    if lmax == m:
        return rows
    rows[1] = math.sqrt(2 * m + 3.0) * x * pmm
    for L in range(m + 2, lmax + 1):
        a = math.sqrt((4.0 * L * L - 1.0) / (L * L - m * m))
        b = math.sqrt(
            (2.0 * L + 1.0)
            * (L - 1.0 + m)
            * (L - 1.0 - m)
            / ((2.0 * L - 3.0) * (L * L - m * m))
        )
        rows[L - m] = a * x * rows[L - m - 1] - b * rows[L - m - 2]
    return rows


def legendre_sum_every_column(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`legendre_sum`'s G[i, M], with the recurrence and the sum run for
    every M = 0..lmax."""
    lmax = coeffs.shape[0] - 1
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.maximum(0.0, (1.0 - x) * (1.0 + x)))
    parts = np.ascontiguousarray(coeffs, dtype=complex).view(float).reshape(
        lmax + 1, lmax + 1, 2)
    acc = np.zeros((lmax + 1, 2, x.size))
    rows = [np.empty((lmax + 1, x.size)) for _ in range(3)]
    for L in range(lmax + 1):
        p, p1, p2 = rows[L % 3], rows[(L - 1) % 3], rows[(L - 2) % 3]
        if L == 0:
            p[0] = 1.0 / math.sqrt(4.0 * math.pi)
        else:
            m = np.arange(L - 1)
            lm = L * L - m * m
            a = np.sqrt((4.0 * L * L - 1.0) / lm)
            b = np.sqrt((2.0 * L + 1.0) * (L - 1.0 + m) * (L - 1.0 - m)
                        / ((2.0 * L - 3.0) * lm))
            p[:L - 1] = a[:, None] * x * p1[:L - 1] - b[:, None] * p2[:L - 1]
            p[L - 1] = math.sqrt(2 * (L - 1) + 3.0) * x * p1[L - 1]
            p[L] = -math.sqrt((2 * L + 1) / (2.0 * L)) * s * p1[L - 1]
        acc[:L + 1] += parts[L, :L + 1, :, None] * p[:L + 1, None, :]
    return (acc[:, 0] + 1j * acc[:, 1]).T
