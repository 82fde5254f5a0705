"""The table writer against the per-row loop and `json.dump` it replaced.

The float text must be `repr` and the int text `str`, byte for byte; the
oracles are Python's own formatting of the same values.
"""

import json
import math

import numpy as np
import pytest

from qnd_povm import _csvrows, cli
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
    out = tmp_path / "t.csv"
    with pytest.raises(TypeError, match=f"column 'bad' has dtype {column.dtype}"):
        cli.write_table(str(out), ["ok", "bad"], [[np.arange(2), column]])
    assert list(tmp_path.iterdir()) == []
