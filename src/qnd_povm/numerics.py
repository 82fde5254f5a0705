"""Numerically stable special functions used throughout the library.

Everything factorial-shaped is handled in log space: photon counts of order
10^2..10^4 overflow direct factorials long before the physically meaningful
combinations do.  Clebsch-Gordan coefficients need no factorials at all:
they are the eigenvectors of J^2 in each fixed-M product block, a
tridiagonal matrix with the known eigenvalues L(L+1), so each is the null
vector of a shifted tridiagonal, solved by twisted factorization (module
`_clebsch`).  Their Condon-Shortley signs follow a closed-form rule, so
every block is solved on its own, without a walk down from M = j1 + j2;
they stay accurate to ~1e-14 for spins out to j = 200.  Quantum numbers
are carried as doubled integers so half-integer spins and their selection
rules stay exact.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, count_text

# log(n!) exact to one ulp for the table range; lgamma beyond.
_LOGFACT_EXACT_MAX = 256
_LOGFACT_TABLE = np.empty(_LOGFACT_EXACT_MAX + 1)
_f = 1
for _n in range(_LOGFACT_EXACT_MAX + 1):
    if _n > 0:
        _f *= _n
    _LOGFACT_TABLE[_n] = math.log(_f) if _n > 0 else 0.0
del _f, _n


def finite(x, message: str, array: bool = False):
    """The one refusal of a real argument: x as a float, or with `array` a
    float64 array.  DomainError(message) for nan, +-inf, an int past the
    doubles, a non-real (a string, a complex, None) or, without `array`, an array."""
    if type(x) is float and math.isfinite(x) and not array:
        return x  # the common scalar, without numpy
    try:
        a = np.asarray(x)
        if a.dtype.kind not in "biufO" or a.ndim and not array:
            raise TypeError
        a = a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(message) from None
    if not np.isfinite(a).all():
        raise DomainError(message)
    return a if array else float(a)


def _whole(x, messages, lo=0, hi=None, array=False):
    """The one refusal of a whole-number argument: x as an int, or with
    `array` a numpy array.  messages = (below, fraction, above), each raised
    as DomainError, in that order: for x < lo; for a fraction, nan, +-inf, a
    bool or a non-number (an array, without `array`); for x >= hi (None: no
    bound).  Their "{}" is the refused value, by `format` (above, by
    `count_text`).  A sequence is read as Python objects, so an int past 64
    bits stays exact; an int, and an int or uint array, skip the integrality test."""
    below, fraction, above = messages
    if array:
        a = np.asarray(x, dtype=None if isinstance(x, np.ndarray) else object)
        if a.dtype.kind == "O":
            for v in a.flat:
                _whole(v, messages, lo, hi)
            return a
        if a.dtype.kind not in "iuf":
            raise DomainError(fraction.format(x))
        bad = a < lo
        if a.dtype.kind == "f":  # unlike %, floor and isinf raise no warning at inf
            bad |= np.isinf(a) | (np.floor(a) != a)
        if hi is not None:
            bad |= a >= hi
        if not bad.any():
            return a
        x = a[bad][0].item()  # the first element refused, read as a scalar
    elif isinstance(x, (np.generic, np.ndarray)) and not x.ndim:
        x = x.item()
    if type(x) not in (int, float):
        raise DomainError(fraction.format(x))
    if x < lo:
        raise DomainError(below.format(x))
    if type(x) is float and not x.is_integer():
        raise DomainError(fraction.format(x))
    if hi is not None and x >= hi:
        raise DomainError(above.format(count_text(int(x))))
    return int(x)


def twice(x) -> int:
    """Twice the half-integer x, as an exact int.

    J, m_z, L and M live on a half-integer lattice; carrying twice their
    value keeps selection rules (parity, triangle conditions) free of float
    equality.  Ints pass; a float passes when twice it is within 1e-9 of an
    integer.  Anything else raises DomainError, as do NaN, +-inf, a bool
    and a float whose double overflows.
    """
    if isinstance(x, (float, np.floating)):
        d = finite(2.0 * float(x), f"{x!r} is not a half-integer")
        if abs(d - round(d)) <= 1e-9:
            return round(d)
        raise DomainError(f"{x!r} is not a half-integer")
    return 2 * _whole(x, (None, "cannot interpret {} as a half-integer", None), -math.inf)


def log_factorial(n):
    """Natural log of n!, for an int or elementwise over a numpy array.

    Exact (table of big-integer factorials) up to n=256, log-gamma beyond.
    Total on the integers n >= 0 up to ~2.55e305, past which ln n! leaves
    the doubles; an integral float such as 3.0 passes, and anything else
    raises DomainError.  An int or uint array skips the integrality test.
    """
    n = _whole(n, ("factorial of a negative integer", "factorial of a non-integer", None),
               array=isinstance(n, np.ndarray) and n.ndim > 0)
    if not isinstance(n, np.ndarray):
        if n <= _LOGFACT_EXACT_MAX:
            return float(_LOGFACT_TABLE[n])
        return float(log_factorial(np.array([n]))[0])
    index = np.minimum(n, _LOGFACT_EXACT_MAX).astype(np.intp, copy=False)
    out = _LOGFACT_TABLE[index]
    big = n > _LOGFACT_EXACT_MAX
    try:
        # one double at a time, so a large table builds no list of Python floats
        out[big] = np.fromiter(map(math.lgamma, n[big] + 1.0), float, np.count_nonzero(big))
    except OverflowError:
        raise DomainError("ln n! overflows a double") from None
    return out


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients
# ---------------------------------------------------------------------------

def _triangle_ok(tj1: int, tj2: int, tL: int) -> bool:
    return abs(tj1 - tj2) <= tL <= tj1 + tj2 and (tj1 + tj2 + tL) % 2 == 0


def cg_blocks(tj1: int, tj2: int, tMs=None):
    """Yield (2M, C) for M = j1 + j2 down to 0 (or 1/2), one block at a time,
    or for the 2M >= 0 in `tMs` only, in their order.

    C[a, b] = <j1 m1; j2 M - m1 | L M>, rows m1 ascending from
    max(-j1, M - j2), columns L ascending from max(|j1 - j2|, M); the
    arguments are doubled integers.  Each column is the null vector of
    J^2 - L(L + 1), a tridiagonal matrix in the |m1, M - m1> basis, found
    by twisted factorization (`_clebsch`) in O(rows) from the known
    eigenvalue, with no eigensolver and no factorial or alternating sum; its
    Condon-Shortley sign follows a closed-form rule.
    Blocks are independent: none is derived from another, and consecutive
    ones are solved together in bounded memory.
    """
    # the solver is loaded with the first block: most commands need none
    from . import _clebsch

    yield from _clebsch.solve(tj1, tj2, range(tj1 + tj2, -1, -2) if tMs is None else tMs)


@functools.lru_cache(maxsize=32)
def _cg_block(tj1: int, tj2: int, tM: int) -> np.ndarray:
    """The read-only ``cg_blocks`` block at 2M = tM, solved on its own."""
    from . import _clebsch

    ((_, block),) = _clebsch.solve(tj1, tj2, [tM])
    block.setflags(write=False)
    return block


def clebsch_gordan(j1, m1, j2, m2, L, M) -> float:
    """Condon-Shortley Clebsch-Gordan coefficient <j1 m1; j2 m2 | L M>.

    Read from the J^2 eigenvector block of ``cg_blocks`` at |M|, which is
    solved on its own (no other block is needed) and cached, so repeated
    calls at one (j1, j2, |M|) solve it once.  Agrees with sympy to 1e-13
    absolute for j up to 200.  Returns 0 when M != m1 + m2 or the triangle
    rule fails; raises when the quantum numbers are not a valid set.
    """
    tj1, tm1, tj2, tm2, tL, tM = map(twice, (j1, m1, j2, m2, L, M))
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

def legendre_sum(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G[i, M] = sum_{L=M..lmax} coeffs[L, M] P~_L^M(x[i]), for M = 0..lmax.

    coeffs is a complex (lmax + 1, lmax + 1) table read on and below its
    diagonal.  P~_L^M(x) = sqrt((2L+1)/(4 pi) (L-M)!/(L+M)!) P_L^M(x), with
    the Condon-Shortley sign, so that Y_LM(theta, phi) =
    P~_L^M(cos theta) e^{i M phi}.  One upward three-term recurrence over L
    advances every M <= L together from the sectoral seeds P~_M^M, which
    carry sin(theta) = sqrt((1 - x)(1 + x)), a form with no cancellation
    near the poles.  Each P~_L^M is added into G as it is formed, and only
    the rows L - 1 and L - 2 are kept.  The recurrence and the sum run only
    for the M whose column holds a nonzero coefficient (a Dicke state's
    table has M = 0 alone); the sectoral seeds run up to the largest such M,
    and the other columns of G are exact zeros.
    """
    lmax = coeffs.shape[0] - 1
    x = finite(x, "legendre_sum needs finite real x", array=True)
    s = np.sqrt(np.maximum(0.0, (1.0 - x) * (1.0 + x)))
    used = np.flatnonzero(np.tril(coeffs != 0).any(axis=0))
    # real and imaginary parts, (L, M, 2), summed into (used M, 2, x)
    parts = np.ascontiguousarray(coeffs, dtype=complex).view(float).reshape(
        lmax + 1, lmax + 1, 2)
    acc = np.zeros((used.size, 2, x.size))
    # row j of each holds P~_L^M at M = used[j]; `sectoral` holds P~_L^L
    rows = [np.empty((used.size, x.size)) for _ in range(3)]
    tmp = np.empty((used.size, x.size))
    sectoral = np.full(x.size, 1.0 / math.sqrt(4.0 * math.pi))
    # at step L, used[:inner[L]] are the M < L - 1 and used[:upto[L]] the M <= L
    ls = np.arange(lmax + 1)
    inner = np.searchsorted(used, ls - 1).tolist()
    upto = np.searchsorted(used, ls + 1).tolist()
    is_used = np.isin(ls, used).tolist()
    top = int(used[-1]) if used.size else -1
    for L in range(lmax + 1):
        p, p1, p2 = rows[L % 3], rows[(L - 1) % 3], rows[(L - 2) % 3]
        i, k = inner[L], upto[L]
        if L > 0:
            m = used[:i]
            lm = L * L - m * m
            a = np.sqrt((4.0 * L * L - 1.0) / lm)
            b = np.sqrt((2.0 * L + 1.0) * (L - 1.0 + m) * (L - 1.0 - m)
                        / ((2.0 * L - 3.0) * lm))
            q = tmp[:i]
            np.multiply(a[:, None], x, out=p[:i])
            p[:i] *= p1[:i]
            np.multiply(b[:, None], p2[:i], out=q)
            p[:i] -= q
            if is_used[L - 1]:
                p[i] = math.sqrt(2 * (L - 1) + 3.0) * x * sectoral
            if L <= top:
                sectoral = -math.sqrt((2 * L + 1) / (2.0 * L)) * s * sectoral
        if is_used[L]:
            p[k - 1] = sectoral
        acc[:k] += parts[L, used[:k], :, None] * p[:k, None, :]
    g = np.zeros((lmax + 1, x.size), dtype=complex)
    g[used] = acc[:, 0] + 1j * acc[:, 1]
    return g.T
