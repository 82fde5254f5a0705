"""The table writer against the per-row loop and `json.dump` it replaced.

The float text must be `repr` and the int text `str`, byte for byte; the
oracles are Python's own formatting of the same values.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnd_povm import _csvrows, _schubfach, cli
from qnd_povm.errors import DomainError


def reference_csv(columns, arrays, meta=None):
    """The per-row writer the vectorised one replaced (ints with str, floats
    with repr, CRLF rows, LF header and footers)."""
    n = len(arrays[0])
    arrays = [np.asarray([""] * n if a is None else a) for a in arrays]
    line = ",".join("{!r}" if a.dtype.kind == "f" else "{}" for a in arrays) + "\r\n"
    return "".join([cli.HEADER + "\n", ",".join(columns) + "\r\n",
                    "".join(map(line.format, *(a.tolist() for a in arrays))),
                    *(f"# {key} = {value!r}\n" for key, value in (meta or {}).items())])


def fields(column):
    """The formatter's text of one column, value by value."""
    column = np.asarray(column)
    text = b"".join(_csvrows.format_rows([column[lo:lo + cli._CHUNK_ROWS]])
                    for lo in range(0, column.size, cli._CHUNK_ROWS))
    return text.decode("ascii").split("\r\n")[:-1]


def test_floats_match_repr_on_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert fields(values) == [repr(v) for v in values.tolist()]


def test_floats_match_repr_at_the_edges():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    near = [np.nextafter(p, d) for p in (1e-5, 1e-4, 1e16, 1e-323, 2.0 ** 53)
            for d in (0.0, math.inf)]
    values = np.concatenate([
        # subnormals: the smallest, a random spread, and the largest
        np.arange(0, 5000, dtype=np.uint64).view(np.float64),
        np.random.default_rng(7).integers(1, 1 << 52, 20_000, dtype=np.uint64).view(np.float64),
        [np.nextafter(2.2250738585072014e-308, 0.0)],
        # powers of two, one ulp either side, and their negatives
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf), -powers,
        # both sides of the positional/scientific switches and of 2^53
        [1e-5, 1e-4, 0.0001, 0.00012, 1e16, 1e15, 9999999999999998.0, 123456789012345678.0,
         2.0 ** 53, 2.0 ** 53 + 2.0], near,
        # every power of ten, integral values and short decimals
        [float(f"1e{e}") for e in range(-323, 309)], np.arange(-1000, 1000, dtype=float),
        [float(f"{m}e{e}") for m in (1, 15, 999, 1234567) for e in range(-20, 20)],
        [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
         1.7976931348623157e308, -1.7976931348623157e308],
    ])
    assert fields(values) == [repr(v) for v in values.tolist()]


def test_floats_match_repr_within_3_ulp_of_every_power_of_two():
    # at a power of two the gap below is half the gap above (the irregular
    # interval); its neighbours take the regular one
    powers = np.ldexp(1.0, np.arange(-1074, 1024)).view(np.int64)
    bits = (powers[:, None] + np.arange(-3, 4)).ravel()
    values = bits[(bits > 0) & (bits < 0x7FF0000000000000)].view(np.float64)
    values = np.concatenate([values, -values])
    assert fields(values) == [repr(v) for v in values.tolist()]


def test_floats_match_repr_across_the_subnormal_boundary():
    # the largest subnormals take the general digit count, the smallest
    # normals the 16-or-17-digit one, in the same pass
    bits = np.arange(0x000FFFFFFFFFF000, 0x0010000000001000, dtype=np.uint64)
    values = np.concatenate([bits.view(np.float64), -bits.view(np.float64)])
    assert fields(values) == [repr(v) for v in values.tolist()]


def _normal_bits():
    """Powers of two within 3 ulp, and random patterns, of normal doubles."""
    powers = np.ldexp(1.0, np.arange(-1022, 1024)).view(np.int64)
    near = (powers[:, None] + np.arange(-3, 4)).ravel()
    rng = np.random.default_rng(24)
    spread = rng.integers(0x0010000000000000, 0x7FF0000000000000, 200_000, dtype=np.int64)
    bits = np.concatenate([near, spread]).astype(np.uint64)
    bits = bits[(bits >= np.uint64(0x0010000000000000)) & (bits < np.uint64(0x7FF0000000000000))]
    return np.concatenate([bits, bits | np.uint64(1 << 63)])


def test_shortest_decimal_of_a_normal_double_has_16_or_17_digits():
    # the float text counts digits by one comparison with 10^16, except on
    # subnormals; that holds only if every normal d is in [10^15, 10^17)
    bits = _normal_bits()
    bq = ((bits >> np.uint64(52)).astype(np.uint16) & np.uint16(0x7FF))
    d, _ = _schubfach.shortest(bits, bq, np.flatnonzero(bq == 0))
    assert d.min() >= 10 ** 15 and d.max() < 10 ** 17


def test_exponent_arithmetic_equals_schubfach_int64_forms():
    # k and h + 2 come from int32 constants; Schubfach's own need int64
    bq = np.arange(2048, dtype=np.uint16)
    for t in (0, 1):
        bits = (bq.astype(np.uint64) << np.uint64(52)) | np.uint64(t)
        _, k, h2, _, irregular = _schubfach.split(bits, bq, np.flatnonzero(bq == 0))
        assert irregular.tolist() == (list(range(2, 2048)) if t == 0 else [])
        for e in range(2048):
            q = max(e, 1) - 1075
            kk = (q * 661_971_961_083 - (t == 0 and e > 1) * 274_743_187_321) >> 41
            assert (int(k[e]), int(h2[e])) == (kk, q + ((-kk * 913_124_641_741) >> 38) + 4)


_SPECIALS = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-5, 1e16, 1e17,
                      0.0001, 9999999999999998.0, 1.7976931348623157e308])
_INT_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _raw(draw, n, dtype):
    """n values of `dtype` from one block of drawn bytes."""
    dtype = np.dtype(dtype)
    return np.frombuffer(draw(st.binary(min_size=n * dtype.itemsize,
                                        max_size=n * dtype.itemsize)), dtype)


def _doubles(draw, n):
    """n doubles of every form `repr` writes, each of a drawn family:
    positional below and above 1, integral, scientific, subnormal, signed
    zeros, infinities and nans with payloads."""
    bits, family = _raw(draw, n, np.uint64), _raw(draw, n, np.uint8) % 7
    sign = np.where(bits & 1, -1.0, 1.0)
    return np.choose(family, [
        bits.view(np.float64),  # any bit pattern
        sign * 10.0 ** ((bits >> 11) * 2.0 ** -53 * 20.0 - 4.0),  # |x| in [1e-4, 1e16)
        sign * ((bits >> 12) % 10 ** 6) / 10.0 ** ((bits >> 4) % 12),  # short decimals
        (bits.view(np.int64) >> 3).astype(float),  # integral, |x| <= 2^60
        (bits & (1 << 63 | (1 << 52) - 1)).view(np.float64),  # subnormal or signed zero
        _SPECIALS[bits % _SPECIALS.size],
        (bits | 0x7FF0000000000001).view(np.float64),  # nan with a payload
    ])


def _ints(draw, n, dtype):
    """n ints of `dtype`: drawn bits shifted right by a drawn amount (so every
    digit count turns up), or the dtype's min, max or 0."""
    raw, family = _raw(draw, n, dtype), _raw(draw, n, np.uint8)
    info = np.iinfo(dtype)
    extremes = np.array([info.min, info.max, 0], dtype=dtype)
    shifted = raw >> (family >> 2) % info.bits
    return np.where(family % 4 == 3, extremes[raw % 3], shifted).astype(dtype)


@st.composite
def _blocks(draw):
    """Equal-length float columns, and int columns of each width, each
    drawn as one block."""
    n = draw(st.integers(1, 40))
    floats = [_doubles(draw, n) for _ in range(draw(st.integers(1, 5)))]
    ints = [_ints(draw, n, dtype)
            for dtype in draw(st.lists(st.sampled_from(_INT_TYPES), max_size=4))]
    columns = floats + ints
    order = draw(st.permutations(range(len(columns))))
    return [columns[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(_blocks())
def test_format_rows_matches_the_per_row_loop(columns):
    line = ",".join("{!r}" if a.dtype.kind == "f" else "{}" for a in columns) + "\r\n"
    want = "".join(map(line.format, *(a.tolist() for a in columns)))
    assert _csvrows.format_rows(columns) == want.encode("ascii")


def test_zero_rows_format_to_no_bytes():
    assert _csvrows.format_rows([np.array([], dtype=np.int64), np.array([])]) == b""


def test_nan_payloads_and_signs_print_nan():
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    assert fields(bits.view(np.float64)) == ["nan"] * 4


def test_ints_match_str_at_the_extremes():
    i64 = np.iinfo(np.int64)
    u64 = np.iinfo(np.uint64)
    rng = np.random.default_rng(11)
    signed = np.concatenate([[0, 1, -1, 9, 10, -10, 99, 100, -1000, i64.min, i64.min + 1,
                              i64.max, i64.max - 1],
                             rng.integers(i64.min, i64.max, 5000, dtype=np.int64, endpoint=True),
                             rng.integers(-10 ** 6, 10 ** 6, 5000)]).astype(np.int64)
    unsigned = np.concatenate([np.array([0, 1, 9, 10, 2 ** 63, 2 ** 63 - 1, u64.max,
                                         10 ** 19, 10 ** 19 - 1], dtype=np.uint64),
                               rng.integers(0, u64.max, 5000, dtype=np.uint64, endpoint=True)])
    assert fields(signed) == [str(v) for v in signed.tolist()]
    assert fields(unsigned) == [str(v) for v in unsigned.tolist()]
    for dtype in (np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32):
        info = np.iinfo(dtype)
        column = np.array([info.min, info.max, 0, info.max // 3], dtype=dtype)
        assert fields(column) == [str(v) for v in column.tolist()]


@pytest.mark.parametrize("n", [0, 1, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS,
                               cli._CHUNK_ROWS + 1])
def test_write_table_matches_the_per_row_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    arrays = [np.arange(n) - n // 2, rng.integers(0, 2 ** 64, n, dtype=np.uint64),
              None, rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n),
              rng.random(n).astype(np.float32), -np.zeros(n)]
    columns = ["i", "u", "empty", "f", "f32", "negzero"]
    meta = {"captured_mass": 0.1 + 0.2, "cutoff_total": n}
    out = tmp_path / "t.csv"
    cli.write_table(str(out), columns, [arrays], meta)
    assert out.read_bytes() == reference_csv(columns, arrays, meta).encode("ascii")


@pytest.mark.parametrize("n", [0, 1, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS,
                               cli._CHUNK_ROWS + 1])
def test_write_table_json_equals_json_dump(tmp_path, n):
    # the rows stream in chunks after an empty block; the text is still what
    # json.dump writes of the whole stamped record
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    refs = [f"shot_{k:06d}/\u00e9" for k in range(n)]
    arrays = [np.arange(n) - n // 2, rng.integers(0, 2 ** 64, n, dtype=np.uint64),
              None, np.where(np.isfinite(bits), bits, 0.5),
              rng.random(n).astype(np.float32), -np.zeros(n),
              np.array([json.dumps(r).encode() for r in refs], dtype="S")]
    columns = ["i", "u", "empty", "f", "f32", "negzero", "ref"]
    meta = {"captured_mass": 0.1 + 0.2, "cutoff_total": n}
    out = tmp_path / "t.json"
    empty = [None if a is None else a[:0] for a in arrays]
    cli.write_table(str(out), columns, [empty, arrays], meta, fmt="json")
    rows = [list(row) for row in zip(*([None] * n if a is None else a.tolist()
                                       for a in arrays[:-1]), refs)]
    want = json.dumps({"tool": "qnd-povm", "version": cli.__version__, "schema": "v1",
                       "columns": columns, "rows": rows, **meta}, indent=2, sort_keys=True)
    assert out.read_bytes() == (want + "\n").encode("ascii")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_table_json_refuses_non_finite_floats(tmp_path, capsys, bad):
    # JSON has no nan or inf: the block that holds one is refused before it
    # is written, and a file output is not left behind
    blocks = [[np.arange(3), np.ones(3)], [np.arange(3), np.array([1.0, bad, 2.0])]]
    out = tmp_path / "t.json"
    with pytest.raises(DomainError, match="column 'x' holds a non-finite value"):
        cli.write_table(str(out), ["k", "x"], blocks, fmt="json")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(DomainError):
        cli.write_table(None, ["k", "x"], blocks, fmt="json")
    # on stdout the first block's three rows are out, and none of the second
    assert capsys.readouterr().out.count("\n    [\n") == 3
    # CSV writes them as repr does
    cli.write_table(str(out), ["k", "x"], blocks)
    assert out.read_text().splitlines()[-2] == f"1,{bad!r}"


def test_write_table_accepts_python_lists(tmp_path):
    # as the scripts pass them: ints stay ints, floats stay floats
    arrays = [list(range(-5, 6)), [0.1 * k for k in range(11)]]
    out = tmp_path / "t.csv"
    cli.write_table(str(out), ["m", "x"], [arrays])
    assert out.read_bytes() == reference_csv(["m", "x"], arrays).encode("ascii")


@pytest.mark.parametrize("column", [np.array([True, False]), np.array([1 + 2j, 3j]),
                                    np.array(["a", "b"]), np.array([None, 1.0], dtype=object)])
def test_unsupported_column_dtype_raises_before_writing(tmp_path, column):
    # both table formats check their columns the same way
    for fmt in ("csv", "json"):
        out = tmp_path / f"t.{fmt}"
        with pytest.raises(TypeError, match=f"column 'bad' has dtype {column.dtype}; table "
                                            "columns must be int, uint, float or bytes"):
            cli.write_table(str(out), ["ok", "bad"], [[np.arange(2), column]], fmt=fmt)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_digits_match_str_zfill_for_every_width(dtype):
    # 0, 10^k - 1 and 10^k, the dtype's maximum, and both sides of 10^9
    # (where a uint64 narrows to uint32) and of 2^32
    top = int(np.iinfo(dtype).max)
    for width in range(1, 21):
        cap = min(top, 10 ** width - 1)
        edges = {0, top, 10 ** 9 - 1, 10 ** 9, 2 ** 32 - 1, 2 ** 32}
        edges |= {10 ** k + d for k in range(21) for d in (-1, 0)}
        values = np.array(sorted(v for v in edges if 0 <= v <= cap), dtype=dtype)
        got = [col.tobytes().decode("ascii") for col in _csvrows._digits(values, width).T]
        assert got == [str(v).zfill(width) for v in values.tolist()], width
