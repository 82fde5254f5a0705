"""Numerically stable special functions used throughout the library.

Everything factorial-shaped is handled in log space: photon counts of order
10^2..10^4 overflow direct factorials long before the physically meaningful
combinations do.  Clebsch-Gordan coefficients need no factorials at all:
they are the eigenvectors of J^2 in each fixed-M product block, which stay
accurate to ~1e-14 for spins out to j = 200.  Quantum numbers are carried as
doubled integers so half-integer spins and their selection rules stay exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# log(n!) exact to one ulp for the table range; lgamma beyond.
_LOGFACT_EXACT_MAX = 256
_LOGFACT_TABLE = np.empty(_LOGFACT_EXACT_MAX + 1)
_f = 1
for _n in range(_LOGFACT_EXACT_MAX + 1):
    if _n > 0:
        _f *= _n
    _LOGFACT_TABLE[_n] = math.log(_f) if _n > 0 else 0.0
del _f, _n


@dataclass(frozen=True, order=True)
class HalfInt:
    """Exact half-integer quantum number, stored as twice its value.

    J, m_z, L, M live on a half-integer lattice; storing ``twice`` keeps
    selection rules (parity, triangle conditions) free of float equality.
    """

    twice: int

    @staticmethod
    def coerce(x) -> "HalfInt":
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, (int, np.integer)):
            return HalfInt(2 * int(x))
        if isinstance(x, (float, np.floating)):
            t = round(2.0 * float(x))
            if abs(2.0 * float(x) - t) > 1e-9:
                raise DomainError(f"{x!r} is not a half-integer")
            return HalfInt(int(t))
        raise DomainError(f"cannot interpret {x!r} as a half-integer")

    @property
    def value(self) -> float:
        return self.twice / 2.0

    def __float__(self) -> float:
        return self.value

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def log_factorial(n: int) -> float:
    """Natural log of n!.

    Exact (table of big-integer factorials) up to n=256, log-gamma beyond.
    Total on n >= 0.
    """
    if n < 0:
        raise DomainError("factorial of a negative integer")
    n = int(n)
    if n <= _LOGFACT_EXACT_MAX:
        return float(_LOGFACT_TABLE[n])
    return math.lgamma(n + 1.0)


def log_factorial_array(nmax: int) -> np.ndarray:
    """log(k!) for k = 0..nmax as a float array."""
    if nmax <= _LOGFACT_EXACT_MAX:
        return _LOGFACT_TABLE[: nmax + 1].copy()
    out = np.empty(nmax + 1)
    out[: _LOGFACT_EXACT_MAX + 1] = _LOGFACT_TABLE
    for k in range(_LOGFACT_EXACT_MAX + 1, nmax + 1):
        out[k] = math.lgamma(k + 1.0)
    return out


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k); -inf for k outside [0, n] (the zero-probability sentinel)."""
    if n < 0:
        raise DomainError("binomial with negative row index")
    if k < 0 or k > n:
        return -math.inf
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients
# ---------------------------------------------------------------------------

def _triangle_ok(tj1: int, tj2: int, tL: int) -> bool:
    return abs(tj1 - tj2) <= tL <= tj1 + tj2 and (tj1 + tj2 + tL) % 2 == 0


def cg_blocks(tj1: int, tj2: int):
    """Yield (2M, C) for M = j1 + j2 down to 0 (or 1/2), one block at a time.

    C[a, b] = <j1 m1; j2 M - m1 | L M>, rows m1 ascending from
    max(-j1, M - j2), columns L ascending from max(|j1 - j2|, M); the
    arguments are doubled integers.  The columns are the eigenvectors of J^2
    in the |m1, M - m1> basis, a symmetric tridiagonal matrix whose
    eigenvalues L(L + 1) come out of eigh in ascending order, so no
    factorial or alternating sum appears.  Condon-Shortley signs: the new
    highest-weight column L = M has the sign (-1)^(j1 - m1), read at its
    largest component, and every other column is the positive multiple of
    J- applied to the same-L column of block M + 1.  Edge components fall to
    ~1e-30 at large L, below the eigensolver's noise, so no sign is read off
    them.  Only the block above is kept while the next is built.
    """
    c1 = tj1 * (tj1 + 2) / 4.0
    c2 = tj2 * (tj2 + 2) / 4.0
    prev_m1, prev = np.zeros(0), np.zeros((0, 0))
    for tM in range(tj1 + tj2, -1, -2):
        lo = max(-tj1, tM - tj2)
        m1 = np.arange(lo, min(tj1, tM + tj2) + 1, 2) / 2.0
        m2 = tM / 2.0 - m1
        h = np.diag(c1 + c2 + 2.0 * m1 * m2)
        h += np.diag(np.sqrt((c1 - m1[:-1] * (m1[:-1] + 1.0))
                             * (c2 - m2[:-1] * (m2[:-1] - 1.0))), -1)
        block = np.linalg.eigh(h)[1]
        new = block.shape[1] - prev.shape[1]
        if new:
            top = int(np.argmax(np.abs(block[:, 0])))
            want = 1.0 if round(tj1 / 2.0 - m1[top]) % 2 == 0 else -1.0
            block[:, 0] *= want * np.sign(block[top, 0])
        # J- = J1- + J2- carries block M + 1 into this one; the coefficient
        # vanishes exactly where the lowered projection would leave its range
        lowered = np.zeros((m1.size, prev.shape[1]))
        prev_m2 = (tM + 2) / 2.0 - prev_m1
        for dm1, coef in ((1.0, np.sqrt(c1 - prev_m1 * (prev_m1 - 1.0))),
                          (0.0, np.sqrt(c2 - prev_m2 * (prev_m2 - 1.0)))):
            keep = coef > 0.0
            rows = np.rint(prev_m1[keep] - dm1 - lo / 2.0).astype(int)
            lowered[rows] += coef[keep, None] * prev[keep]
        overlap = np.einsum("ij,ij->j", lowered, block[:, new:])
        block[:, new:] *= np.sign(overlap)
        yield tM, block
        prev_m1, prev = m1, block


@functools.lru_cache(maxsize=32)
def _cg_block(tj1: int, tj2: int, tM: int) -> np.ndarray:
    """The read-only ``cg_blocks`` block at 2M = tM, kept for repeated reads."""
    block = next(b for t, b in cg_blocks(tj1, tj2) if t == tM)
    block.setflags(write=False)
    return block


def clebsch_gordan(j1, m1, j2, m2, L, M) -> float:
    """Condon-Shortley Clebsch-Gordan coefficient <j1 m1; j2 m2 | L M>.

    Read from the J^2 eigenvector block of ``cg_blocks``; recent blocks are
    cached, so repeated calls at one (j1, j2, M) diagonalize once.  Agrees
    with sympy to 1e-13 absolute (worst seen 1.6e-14) for j up to 200.
    Returns 0 when
    M != m1 + m2 or the triangle rule fails; raises when the quantum numbers
    are not a valid set.
    """
    tj1, tm1 = HalfInt.coerce(j1).twice, HalfInt.coerce(m1).twice
    tj2, tm2 = HalfInt.coerce(j2).twice, HalfInt.coerce(m2).twice
    tL, tM = HalfInt.coerce(L).twice, HalfInt.coerce(M).twice
    for tj, tm, name in ((tj1, tm1, "j1"), (tj2, tm2, "j2"), (tL, tM, "L")):
        if tj < 0:
            raise DomainError(f"negative angular momentum {name}")
        if (tj - tm) % 2 != 0:
            raise DomainError(f"m of {name} has wrong parity")
        if abs(tm) > tj:
            raise DomainError(f"|m| exceeds {name}")
    if tm1 + tm2 != tM:
        return 0.0
    if not _triangle_ok(tj1, tj2, tL):
        return 0.0
    sign = 1.0
    if tM < 0:
        # <j1 m1; j2 m2 | L M> = (-1)^(j1 + j2 - L) <j1 -m1; j2 -m2 | L -M>
        tm1, tM = -tm1, -tM
        sign = -1.0 if (tj1 + tj2 - tL) // 2 % 2 else 1.0
    block = _cg_block(tj1, tj2, tM)
    row = (tm1 - max(-tj1, tM - tj2)) // 2
    col = (tL - max(abs(tj1 - tj2), tM)) // 2
    return sign * float(block[row, col])


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------

def legendre_norm_table(lmax: int, m: int, x: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values, rows L = m..lmax.

    Row L holds sqrt((2L+1)/(4 pi) (L-m)!/(L+m)!) P_L^m(x) with the
    Condon-Shortley sign, computed by the standard three-term upward
    recurrence, which is stable for the L range used here.  Requires m >= 0.
    """
    if m < 0:
        raise DomainError("legendre_norm_table needs m >= 0")
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
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


def spherical_harmonic(L: int, M: int, theta, phi):
    """Orthonormal Y_LM(theta, phi) with the Condon-Shortley phase.

    Accepts scalars or broadcastable arrays for the angles.
    """
    L, M = int(L), int(M)
    if L < 0 or abs(M) > L:
        raise DomainError("need L >= 0 and |M| <= L")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    am = abs(M)
    p = legendre_norm_table(L, am, np.cos(theta))[-1]
    y = p * np.exp(1j * am * phi)
    if M < 0:
        y = np.conj(y) * ((-1) ** am)
    if y.ndim == 0:
        return complex(y)
    return y
