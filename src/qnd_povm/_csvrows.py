"""Row text for numeric columns, formatted with numpy.

`format_rows` gives, for a block of rows, the ASCII bytes of a per-row
loop such as `"{},{},{!r}\\r\\n".format(...)`: ints as `str`, floats as
`repr`, each field followed by its literal text (for CSV, commas and a CRLF
line end).  Byte for byte, at numpy speed.  The same call writes the JSON
lines of `measure`: the literals are the record's keys and braces, and its
nullable fields (`null`) and JSON-string field (bytes) are columns too.

Float digits are the shortest decimal that reads back as each double
(`_schubfach.shortest`), the decimal `repr` prints.

Text is built in planes: a column of n values is a (width, n) uint8 array
whose row i holds character slot i of every value, NUL where a value has no
character there.  A kernel makes only the planes some value uses.  The row
matrix is the planes of all columns stacked and transposed, and dropping
its NULs leaves the text.

Each numpy pass is a same-dtype loop (a mixed one runs numpy's casting
loop) at the narrowest width the values allow.  Masks are bool arrays
viewed as uint8, the decimal point and exponent are int16, and the layout
of each value's text is uint8.  Past the conversion (see `_schubfach` for
its own dtypes) only the significand is uint64: its digits come one
division by 10 at a time, in uint32 once every value is below 10^9.
Zeros, subnormals, infs and nans go by index, so the common lanes skip
their steps.
"""

from __future__ import annotations

import functools

import numpy as np

from ._schubfach import shortest

_U = np.uint64
_M52 = _U(2 ** 52 - 1)
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)
_MINUS, _PLUS, _DOT, _ZERO, _E = (np.uint8(ord(c)) for c in "-+.0e")
_PLACE = np.arange(1, 18, dtype=np.uint8)[:, None]              # digit j + 1 of 17
# float values per `_float_text` call in `format_rows`: a call costs over a
# hundred numpy operations whatever its size
_PASS = 8192


def _digits(u, width):
    """(width, n) ASCII planes of unsigned ints u below 10^width, most
    significant digit first, by one division per digit from the last; a
    uint64 narrows to uint32 once nine or fewer digits remain."""
    out = np.empty((width, u.size), np.uint8)
    for i in range(width - 1, 0, -1):
        if u.dtype.itemsize > 4 and i < 9:
            u = u.astype(np.uint32)
        out[i] = u
        u = u // u.dtype.type(10)
    out[0] = u
    # plane i holds the low byte of u and plane i - 1 that of high = u // 10:
    # the digit u - 10 high is below 10, so in uint8 it comes out exact
    out[1:] -= out[:-1] * np.uint8(10)
    out += _ZERO
    return out


def _float_text(a):
    """(width, n) planes of a float column: `repr` of each value as a double.

    Planes, where some value uses them: sign | "0.000" | 17 digits, each
    with a "." slot after it | "e+123".  For 0.DDD x 10^decpt, Python
    writes scientific when decpt <= -4 or decpt > 16, with two exponent
    digits at least; else positional, ".0" on integers.  Zero is written
    as the positional 0, and inf and nan as three digits.
    """
    bits = a.astype(np.float64, copy=False).view(np.uint64)
    top = (bits >> _U(52)).astype(np.uint16)
    bq = top & np.uint16(0x7FF)
    neg = top > np.uint16(0x7FF)
    # zeros and subnormals (bq = 0), infs and nans (bq = 2047), by index
    edge = np.flatnonzero(bq - np.uint16(1) >= np.uint16(2046))
    low = infnan = edge
    if edge.size:
        low, infnan = edge[bq[edge] == 0], edge[bq[edge] != 0]
    d, k = shortest(bits, bq, low)
    # d has 16 or 17 digits for a normal double, and is scaled to 17
    short = d < _POW10[16]
    decpt = k.astype(np.int16)
    decpt += np.int16(17)
    decpt -= short
    d_low = d[low]
    d = np.where(short, d * _U(10), d)
    if edge.size:
        ndig = np.searchsorted(_POW10, d_low, side="right")
        d[low] = d_low * _POW10[17 - np.minimum(ndig, 17)]
        decpt[low] = k[low] + ndig
        # zero is 0 x 10^1; the digits of inf and nan are overwritten
        special = np.concatenate([low[(bits[low] & _M52) == 0], infnan])
        d[special] = 0
        decpt[special] = 1
    digits = _digits(d, 17)
    if infnan.size:
        nan = (bits[infnan] & _M52) != 0
        digits[:3, infnan] = np.where(nan, *(np.frombuffer(w, np.uint8)[:, None]
                                             for w in (b"nan", b"inf")))
        neg[infnan[nan]] = False
    nd = ((digits != _ZERO).view(np.uint8) * _PLACE).max(axis=0)    # up to the last nonzero digit
    # decpt + 3, unsigned: above 19 scientific, up to 3 "0." and -decpt zeros
    w = (decpt + np.int16(3)).view(np.uint16)
    sci = w > np.uint16(19)
    small = w <= np.uint16(3)
    big = ~(sci | small).view(np.uint8) & np.uint8(1)
    # positional values show the digits up to one past the point, which
    # follows digit decpt; a scientific one follows the first digit
    point = (w - np.uint16(3)).astype(np.uint8)
    point *= big
    shown = np.maximum(nd, point + big)
    point += (sci & (nd > 1)).view(np.uint8)
    if infnan.size:
        point[infnan] = 0

    sign = int(neg.any())
    lead = max(0, 5 - int(w.min()))
    width = int(shown.max())
    used = int(np.bitwise_or.reduce(np.left_shift(1, point, dtype=np.uint32)))
    dots = [j for j in range(1, width) if used >> j & 1]
    exp = 0
    if sci.any():
        mag = np.abs(decpt - np.int16(1)).view(np.uint16)
        # only a scientific value has |decpt - 1| >= 100
        exp = 4 + int(mag.max() >= 100)
    text = np.empty((sign + lead + width + len(dots) + exp, bits.size), np.uint8)
    if sign:
        np.multiply(neg.view(np.uint8), _MINUS, out=text[0])
    row = sign
    if lead:
        np.multiply(small.view(np.uint8), _ZERO, out=text[row])
        np.multiply(small.view(np.uint8), _DOT, out=text[row + 1])
        for i in range(lead - 2):
            np.multiply((small & (decpt < -i)).view(np.uint8), _ZERO, out=text[row + 2 + i])
        row += lead
    keep = (_PLACE[:width] <= shown).view(np.uint8)
    for start, stop in zip([0, *dots], [*dots, width]):
        np.multiply(digits[start:stop], keep[start:stop], out=text[row:row + stop - start])
        row += stop - start
        if stop < width:
            np.multiply((point == stop).view(np.uint8), _DOT, out=text[row])
            row += 1
    if exp:
        sci8 = sci.view(np.uint8)
        np.multiply(sci8, _E, out=text[row])
        # "-" is "+" + 2
        np.multiply((decpt <= 0).view(np.uint8) * np.uint8(2) + _PLUS, sci8, out=text[row + 1])
        exp_digits = _digits(mag, exp - 2)
        if exp == 5:
            exp_digits[0] *= (mag >= np.uint16(100)).view(np.uint8)
        np.multiply(exp_digits, sci8, out=text[row + 2:])
    return text


def _int_text(a):
    """(width, n) planes of an int or uint column, as `str` writes it."""
    u = a.view(f"u{a.dtype.itemsize}")
    neg = a < 0 if a.dtype.kind == "i" and a.min() < 0 else None
    if neg is not None:
        # the two's complement magnitude, also of the type's minimum
        u = np.where(neg, -u, u)
    top = int(u.max())
    width = len(str(top))
    u = u.astype(np.min_scalar_type(top), copy=False)
    text = _digits(u, width)
    # each value's leading zeros are NULs; the last digit shows also for 0
    text[:-1] *= (u >= _POW10[width - 1:0:-1, None].astype(u.dtype)).view(np.uint8)
    if neg is not None:
        text = np.concatenate([(neg.view(np.uint8) * _MINUS)[None], text])
    return text


def float_field(a, per_pass=_PASS):
    """A non-empty float column as a bytes (S) column that `format_rows`
    writes as it writes the floats, converted `per_pass` values at a time.

    A value's field is its planes of `_float_text`: its characters in order,
    with NULs among and after them, which `format_rows` drops.  So text
    formed once may be repeated or gathered, and written row by row.
    """
    return np.concatenate([np.ascontiguousarray(t.T).view(f"S{len(t)}").ravel()
                           for t in (_float_text(a[i:i + per_pass])
                                     for i in range(0, a.size, per_pass))])


def check_columns(columns, arrays):
    """Raise TypeError naming the first column `format_rows` cannot write."""
    for name, a in zip(columns, arrays):
        if a is not None and a.dtype.kind not in "iufS":
            raise TypeError(f"column {name!r} has dtype {a.dtype}; "
                            "table columns must be int, uint, float or bytes")


@functools.cache
def _literal(text):
    """(len, 1) planes of a literal text."""
    return np.frombuffer(text.encode("ascii"), np.uint8)[:, None]


def format_rows(columns, after=None, before="", null=""):
    """ASCII bytes of rows of equal-length 1-D columns, one field per column.

    Each row is `before`, then each field followed by its text in `after`
    (default CSV: "," after each field but the last, "\\r\\n" after it).
    Ints are written as `str` and floats as `repr` write them; a bytes (S)
    column is written as it is, up to its NUL padding.  None is a column of
    null fields, and a pair (array, mask) makes the rows where mask is True
    null; a null field is the text `null`.  Float columns are converted
    together, as many per pass as fit in _PASS values.
    """
    if after is None:
        after = [","] * (len(columns) - 1) + ["\r\n"]
    pairs = [col if isinstance(col, tuple) else (col, None) for col in columns]
    n = len(next(a for a, _ in pairs if a is not None))
    if n == 0:
        return b""
    floats = [a for a, _ in pairs if a is not None and a.dtype.kind == "f"]
    # float fields are converted together, up to _PASS values at a time; a
    # lone column goes in as it is, with no copy
    per_pass = max(1, _PASS // n)
    groups = [floats[i:i + per_pass] for i in range(0, len(floats), per_pass)]
    float_text = (text for group in groups for text in np.split(
        _float_text(group[0] if len(group) == 1 else np.concatenate(group)), len(group), axis=1))
    null_text = _literal(null)
    planes = [_literal(before)]
    for (a, nulls), tail in zip(pairs, after):
        if a is None:
            planes.append(null_text)
        elif a.dtype.kind == "S":
            planes.append(a.view(np.uint8).reshape(n, a.itemsize).T)
        elif a.dtype.kind == "f":
            planes.append(next(float_text))
        else:
            planes.append(_int_text(a))
        if nulls is not None:
            planes[-1] = planes[-1] * (~nulls).view(np.uint8)
            planes.append(null_text * nulls.view(np.uint8))
        planes.append(_literal(tail))
    del float_text
    rows = np.empty((sum(len(p) for p in planes), n), np.uint8)
    # each column's planes are freed once copied
    planes.reverse()
    at = 0
    while planes:
        p = planes.pop()
        rows[at:at + len(p)] = p
        at += len(p)
        del p
    text = rows.T.tobytes()
    del rows
    return text.translate(None, b"\0")
