"""CSV row text for numeric columns, formatted with numpy.

`format_rows` gives, for a block of rows, the ASCII bytes of the per-row
loop `"{},{},{!r}\\r\\n".format(...)`: ints as `str`, floats as `repr`,
fields joined by commas, CRLF line ends.  Byte for byte, at numpy speed.

Float digits come from a vectorised Schubfach conversion (R. Giulietti,
"The Schubfach way to render doubles", 2020; cf. U. Adams, "Ryu: fast
float-to-string conversion", PLDI 2018).  It picks the shortest decimal in
each double's rounding interval and, among equally short ones, the closest,
ties to even.  That is the decimal `repr` prints.  Unlike Java's
`Double.toString`, one digit is allowed, so `5e-324` stays `5e-324`.

Text is built in planes: a column of n values is a (width, n) uint8 array
whose row i holds character slot i of every value, NUL where a value has no
character there.  Planes keep every numpy operation running along n.  The
row matrix is the planes of all columns stacked and transposed, and
dropping its NULs leaves the text.  Selections on masks that follow the
data are products with boolean masks or wrapping arithmetic: `np.where`
branches per element and costs several times more there.
"""

from __future__ import annotations

import functools

import numpy as np

# uint64 arrays meet only uint64 scalars, bools and other uint64 arrays: under
# numpy 1.x promotion uint64 with an int64 array or a negative int is float64
_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)
_ONE_BITS = _U(0x3FF0000000000000)
_NUL, _MINUS, _PLUS, _DOT, _ZERO, _E = (np.uint8(ord(c)) for c in "\0-+.0e")
_LEAD = np.array([[48], [46], [48], [48], [48]], np.uint8)     # "0.000"
_LEAD_NEED = np.array([[0], [0], [1], [2], [3]])                # its slots need -decpt >= this
_PLACE = np.arange(1, 18, dtype=np.uint8)[:, None]              # digit j + 1 of 17
_COMMA = np.array([[44]], np.uint8)
_CRLF = np.array([[13], [10]], np.uint8)
_FLOAT_WIDTH = 45   # sign, "0.000", 17 digits each with a "." slot after, "e+324"
_SPECIALS = ("0.0", "-0.0", "inf", "-inf", "nan")


@functools.cache
def _g_table():
    """The 126-bit g(k) of Schubfach for k in [K_MIN, K_MAX], as uint64 arrays.

    With 10^-k = beta 2^r and 2^125 <= beta < 2^126, g = floor(beta) + 1, so
    (g - 1) 2^r <= 10^-k < g 2^r.  Returned as g1 = g >> 63 and
    g0 = g mod 2^63.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            shift = 125 - (p.bit_length() - 1)
            beta = p << shift if shift >= 0 else p >> -shift
        else:
            d = 10 ** k
            beta = (1 << (125 + d.bit_length())) // d
        g.append(beta + 1)
    return (np.array([x >> 63 for x in g], dtype=np.uint64),
            np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64))


def _select(cond, a, b):
    """`np.where(cond, a, b)` for uint64 arrays, by wrapping arithmetic."""
    return b + (a - b) * cond


def _mulhi(a0, a1, b0, b1):
    """High 64 bits of a * b from the 32-bit limbs a = a1 2^32 + a0, b alike.

    For a < 2^63 and b < 2^61 the middle sum stays below 2^64.  Here a is
    g1 or g0 and b is cp = 4 c 2^h, below 2^(55 + 5).
    """
    mid = ((a0 * b0) >> _U(32)) + a0 * b1 + a1 * b0
    return a1 * b1 + (mid >> _U(32))


def _rop(y1, y0, x1):
    """Round-to-odd of cp g 2^-127, for g = g1 2^63 + g0, from the words of
    g1 cp = y1 2^64 + y0 and g0 cp = x1 2^64 + x0 (Schubfach's rop)."""
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _moved(words, g1, g0, e, up):
    """The words of `_rop` for cp + 2^e if up, else cp - 2^e, from
    (y1, y0, x1, x0) of cp: g1 2^e and g0 2^e are exact in two words, so
    each product moves by one wrapping add or subtract and its carry."""
    y1, y0, x1, x0 = words
    shift = _U(64) - e
    if up:
        y, x = y0 + (g1 << e), x0 + (g0 << e)
        return y1 + (g1 >> shift) + (y < y0), y, x1 + (g0 >> shift) + (x < x0)
    y, x = y0 - (g1 << e), x0 - (g0 << e)
    return y1 - (g1 >> shift) - (y > y0), y, x1 - (g0 >> shift) - (x > x0)


def _shortest(bits):
    """(d, k): the shortest decimal d 10^k that reads back as each finite,
    nonzero double (raw bits), the closest one on a tie, ties to even."""
    bq = (bits >> _U(52)) & _U(0x7FF)
    t = bits & _U((1 << 52) - 1)
    c = t | (bq != 0) * _U(1 << 52)
    q = np.maximum(bq.astype(np.int64), 1) - 1075
    # at a power of two the gap below is half the gap above
    irregular = (t == 0) & (bq > 1)
    # floor(log10(2^q)), or of (3/4) 2^q when irregular; then h as in the paper
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g1, g0 = (table[k - _K_MIN] for table in _g_table())
    # one exact product g cp, cp = 4 c 2^h, as the words of g1 cp and g0 cp
    cp = (c << _U(2)) << h
    c0, c1 = cp & _M32, cp >> _U(32)
    words = (_mulhi(g1 & _M32, g1 >> _U(32), c0, c1), g1 * cp,
             _mulhi(g0 & _M32, g0 >> _U(32), c0, c1), g0 * cp)
    vb = _rop(*words[:3])
    # the interval ends are cp -+ 2^(h+1), or cp - 2^h below a power of two;
    # it is closed when c is even, open when odd
    e = h + _U(1)
    odd = c & _U(1)
    vbl = _rop(*_moved(words, g1, g0, e - irregular, False)) + odd
    vbr = _rop(*_moved(words, g1, g0, e, True)) - odd
    s = vb >> _U(2)
    # one digit fewer: the one multiple of 10^(k+1) that may be in range
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    # the same length: s or s + 1, whichever is in range, else the closer
    s1 = s + _U(1)
    uin = vbl <= s << _U(2)
    win = s1 << _U(2) <= vbr
    mid = (s + s1) << _U(1)
    closer = (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0))
    d = _select(upin != wpin, sp10 + wpin * _U(10), s + ~(uin & (~win | closer)))
    return d, k


def _digits(u, quads):
    """(4 * quads, n) ASCII planes of the low 4 * quads decimal digits of
    uint64 values, most significant first: plane i holds digit i of each."""
    q = np.empty((quads, u.size), np.uint16)
    for i in range(quads - 1, 0, -1):
        rest = u // _U(10_000)
        q[i] = u - rest * _U(10_000)
        u = rest
    q[0] = u
    # uint16 division is several times faster than a table gather here
    planes = np.empty((quads, 4, u.size), np.uint8)
    for i in (3, 2, 1):
        rest = q // np.uint16(10)
        planes[:, i] = q - rest * np.uint16(10)
        q = rest
    planes[:, 0] = q
    planes += _ZERO
    return planes.reshape(4 * quads, -1)


def _int_text(a):
    """(width, n) planes of an int or uint column, as `str` writes it."""
    if a.dtype.kind == "i":
        v = a.astype(np.int64, copy=False).view(np.uint64)
        neg = v >> _U(63) != 0
        # the two's complement magnitude, also of int64's minimum
        u = _select(neg, ~v + _U(1), v)
    else:
        u = a.astype(np.uint64, copy=False)
        neg = None
    width = len(str(int(u.max())))
    quads = -(-width // 4)
    digits = _digits(u, quads)[4 * quads - width:]
    # each value's digit count; the last digit shows also for 0
    place = np.arange(width, 0, -1, dtype=np.uint8)[:, None]
    ndig = np.maximum(((digits != _ZERO) * place).max(axis=0), 1)
    text = digits * (place <= ndig)
    if neg is not None and neg.any():
        text = np.concatenate([(neg * _MINUS)[None], text])
    return text


def _float_text(a):
    """(45, n) planes of a float column: `repr` of each value as a double.

    Planes: sign | "0.000" | 17 digits, each followed by a "." slot | "e+123".
    Python's layout, with the value 0.DDD x 10^decpt: scientific when
    decpt <= -4 or decpt > 16, with a signed exponent of at least two
    digits; else positional, with ".0" on integral values.
    """
    bits = a.astype(np.float64, copy=False).view(np.uint64)
    neg = bits >> _U(63) != 0
    exp_all_ones = (bits & _U(0x7FF0000000000000)) == _U(0x7FF0000000000000)
    special = exp_all_ones | ((bits & _M63) == 0)
    d, k = _shortest(np.where(special, _ONE_BITS, bits))
    ndig = np.searchsorted(_POW10, d, side="right")
    digits = _digits(d * _POW10[17 - ndig], 5)[3:]
    nd = ((digits != _ZERO) * _PLACE).max(axis=0)    # up to the last nonzero digit
    decpt = ndig + k
    sci = (decpt <= -4) | (decpt > 16)
    small = ~sci & (decpt <= 0)
    big = ~sci & ~small

    text = np.empty((_FLOAT_WIDTH, bits.size), np.uint8)
    text[0] = neg * _MINUS
    # "0." and then -decpt zeros, for positional values below 1
    text[1:6] = (small & (-decpt >= _LEAD_NEED)) * _LEAD
    # positional values also show the digits up to one past the point
    text[6:40:2] = digits * (_PLACE <= np.maximum(nd, (decpt + 1) * big))
    # the "." follows digit decpt, or the first digit in scientific form
    text[7:40:2] = (_PLACE == decpt * big + (sci & (nd > 1))) * _DOT
    exp = decpt - 1
    mag = np.abs(exp)
    text[40] = sci * _E
    text[41] = sci * np.where(exp < 0, _MINUS, _PLUS)
    text[42] = (sci & (mag >= 100)) * (mag // 100 + _ZERO)
    text[43] = sci * (mag // 10 % 10 + _ZERO)
    text[44] = sci * (mag % 10 + _ZERO)

    if special.any():
        inf = exp_all_ones & ((bits & _U((1 << 52) - 1)) == 0)
        for mask, word in zip((~exp_all_ones & ~neg, ~exp_all_ones & neg,
                               inf & ~neg, inf & neg, exp_all_ones & ~inf), _SPECIALS):
            cols = special & mask
            if cols.any():
                text[:, cols] = _NUL
                text[:len(word), cols] = np.frombuffer(word.encode(), np.uint8)[:, None]
    return text


def check_columns(columns, arrays):
    """Raise TypeError naming the first column `format_rows` cannot write."""
    for name, a in zip(columns, arrays):
        if a is not None and a.dtype.kind not in "iuf":
            raise TypeError(f"column {name!r} has dtype {a.dtype}; "
                            "CSV columns must be int, uint or float")


def format_rows(arrays):
    """CSV bytes (ASCII) of equal-length 1-D int/uint/float arrays; None is an
    empty field."""
    n = len(next(a for a in arrays if a is not None))
    if n == 0:
        return b""
    planes = []
    for i, a in enumerate(arrays):
        if i:
            planes.append(_COMMA)
        if a is not None:
            planes.append(_float_text(a) if a.dtype.kind == "f" else _int_text(a))
    planes.append(_CRLF)
    rows = np.concatenate([np.broadcast_to(p, (len(p), n)) for p in planes])
    # slots no row uses cost nothing to drop here and a pass each below
    rows = rows[rows.any(axis=1)]
    return rows.T.tobytes().translate(None, b"\0")
