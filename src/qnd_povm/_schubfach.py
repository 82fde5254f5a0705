"""The shortest decimal of doubles, vectorised in numpy: a port of
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020; cf.
U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018).

It picks the shortest decimal in each double's rounding interval and,
among equally short ones, the closest, ties to even.  That is the decimal
`repr` prints.  Unlike Java's `Double.toString`, one digit is allowed, so
`5e-324` stays `5e-324`.  Exponents are int32; the significands and the
128-bit products are uint64, with uint64 scalars (numpy 1.x promotes
uint64 with int64 to float64).  The products by g1 and g0 are one stacked
pass, and so are the three rounded values of an interval.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_M32, _M52, _M63 = _U(2 ** 32 - 1), _U(2 ** 52 - 1), _U(2 ** 63 - 1)
_K_MIN = -324
# int32 forms of Schubfach's floor(log10(2^q)) = (q * 661971961083) >> 41
# (less 274743187321 inside at a power of two) and floor(log2(10^-k)) =
# (-k * 913124641741) >> 38, equal over every exponent of a double
_LOG10_2, _LOG10_4_3, _LOG2_10 = np.int32(315_653), np.int32(131_008), np.int32(-1_741_647)


@functools.cache
def g_table():
    """Schubfach's 126-bit g(k) for k from K_MIN to 292, as (2, k) uint64
    rows g1 = g >> 63 and g0 = g mod 2^63: with 10^-k = beta 2^r and
    2^125 <= beta < 2^126, g = floor(beta) + 1."""
    g = []
    for k in range(_K_MIN, 293):
        p = 10 ** abs(k)
        g.append(1 + ((p << 125) >> (p.bit_length() - 1) if k <= 0
                      else (1 << (125 + p.bit_length())) // p))
    return np.array([[x >> 63 for x in g], [x & (2 ** 63 - 1) for x in g]], dtype=np.uint64)


def split(bits, bq, sub):
    """(c, k, h + 2, g(k), irregular) of doubles c 2^q (raw bits, biased
    exponents bq; sub indexes bq = 0).  irregular indexes the powers of
    two above the smallest normal, where the gap below is half the gap
    above."""
    t = bits & _M52
    c = t | _U(1 << 52)
    q = bq.astype(np.int32)
    q -= np.int32(1075)
    if sub.size:
        # subnormals: no hidden bit, and the exponent of the smallest normal
        c[sub] = t[sub]
        q[sub] = -1074
    irregular = np.flatnonzero(t == 0)
    if irregular.size:
        irregular = irregular[bq[irregular] > 1]
    # floor(log10(2^q)), or of (3/4) 2^q when irregular; then h as in the paper
    k = q * _LOG10_2
    if irregular.size:
        k[irregular] -= _LOG10_4_3
    k >>= np.int32(20)
    h2 = k * _LOG2_10
    h2 >>= np.int32(19)
    h2 += q
    h2 += np.int32(4)
    g = np.take(g_table(), (k - np.int32(_K_MIN)).astype(np.intp), axis=1)
    return c, k, h2.astype(_U), g, irregular


def shortest(bits, bq, sub):
    """(d, k): the shortest decimal d 10^k that reads back as each finite,
    nonzero double (as for `split`), the closest one on a tie, ties to
    even.  Other lanes give some d and a k in range.

    With cp = 4 c 2^h and g = g1 2^63 + g0, the interval's ends are cp -+
    2^(h+1), or cp - 2^h at a power of two; g times each, round-to-odd
    scaled (Schubfach's rop), is vb, vbl and vbr.  Temporaries are freed
    once used, as a call's memory peaks at the arrays alive at once.
    """
    c, k, e, g, irregular = split(bits, bq, sub)
    cp = c << e
    # high words from 32-bit limbs; for g < 2^63, cp < 2^61 mid < 2^64
    c0, c1 = cp & _M32, cp >> _U(32)
    g_lo, g_hi = g & _M32, g >> _U(32)
    mid = g_lo * c0
    mid >>= _U(32)
    mid += g_lo * c1
    del g_lo
    mid += g_hi * c0
    del c0
    mid >>= _U(32)
    # hi and lo: g1 cp = y1 2^64 + y0, g0 cp = x1 2^64 + x0 for cp (row 0)
    # and the lower and upper ends (rows 1, 2)
    hi = np.empty((3, 2, bits.size), _U)
    np.multiply(g_hi, c1, out=hi[0])
    del g_hi, c1
    hi[0] += mid
    del mid
    lo = np.empty_like(hi)
    np.multiply(g, cp, out=lo[0])
    del cp
    # g 2^e is exact in two words: an end is one wrapping add and a carry
    e -= _U(1)
    moved = g << e
    np.add(lo[0], moved, out=lo[2])
    np.subtract(lo[0], moved, out=lo[1])
    np.right_shift(g, _U(64) - e, out=moved)
    np.add(hi[0], moved, out=hi[2])
    hi[2] += lo[2] < lo[0]
    np.subtract(hi[0], moved, out=hi[1])
    hi[1] -= lo[1] > lo[0]
    del moved
    if irregular.size:
        # below a power of two the lower end is cp - 2^h
        e, g, y0 = e[irregular] - _U(1), g[:, irregular], lo[0][:, irregular]
        y = y0 - (g << e)
        hi[1][:, irregular] = hi[0][:, irregular] - (g >> (_U(64) - e)) - (y > y0)
        lo[1][:, irregular] = y
    del g, e
    # rop of all three from y1, y0 and x1, in place: x0 is spent
    y1, y0, x1, z = hi[:, 0], lo[:, 0], hi[:, 1], lo[:, 1]
    np.right_shift(y0, _U(1), out=z)
    z += x1
    np.right_shift(z, _U(63), out=y0)
    y1 += y0
    z &= _M63
    z += _M63
    z >>= _U(63)
    y1 |= z
    # the interval is closed when c is even, open when odd
    vb, vbl, vbr = y1
    odd = c & _U(1)
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    # one digit fewer: the one multiple of 10^(k+1) that may be in range
    sp10 = s // _U(10)
    sp10 *= _U(10)
    x = sp10 << _U(2)
    upin = vbl <= x
    x += _U(40)
    wpin = x <= vbr
    # the same length: s or s + 1, whichever is in range, else the closer;
    # with vb = 4 s + r, s is closer if r < 2, or r = 2 and s is even
    np.bitwise_and(vb, ~_U(3), out=x)
    uin = vbl <= x
    x += _U(4)
    win = x <= vbr
    r = (vb & _U(7)).astype(np.uint8)
    s += ~uin | (win & ((r == 3) | (r > 5)))
    upin ^= wpin
    if upin.any():
        shorter = np.flatnonzero(upin)
        s[shorter] = sp10[shorter] + wpin[shorter] * _U(10)
    return s, k
