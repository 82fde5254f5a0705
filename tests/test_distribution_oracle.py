"""The columnar outcome distribution against the per-entry enumeration.

`reference_distribution` is the enumeration as it was written before the
Poisson-mixture kernel: one probability row per total photon number, built
by the out-of-place log-space expression, then walked entry by entry into
(PhotonOutcome, p) pairs.  The row set must equal it exactly: the outcomes,
the cutoff and the entries that are exactly zero.  The two kernels round
differently, so p is compared at 1e-11 relative; accuracy itself is pinned
against a 60-digit sum in test_mpmath_oracle.py, not against this kernel.

`reference_rows` is the per-total contraction the blocked GEMM engine
(`povm._mixture_rows`) replaced: one einsum over m per total.  The engine
must give the same rows to 1e-14 relative (the sums run in another order),
bit-identical from call to call, one block of totals at a time, without a
matrix of all totals or of all (n_c, n_d) pairs.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from qnd_povm import povm
from qnd_povm.numerics import log_factorial
from qnd_povm.povm import (PhotonOutcome, QndParams, _log_bases,
                           outcome_distribution, sample_outcomes)
from qnd_povm.spin_state import coherent_state, dicke_state
from qnd_povm.validate import random_state

import shot_oracle

P_REF = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 100.0)
P_SYM = QndParams(gamma=5.0, chi=5.0, gt=math.pi / 2.0)


def reference_distribution(params, state, mass_tolerance):
    """(entries, cutoff_total, captured_mass) by per-total, per-entry loops."""
    s = params.photon_mean
    cap = int(4.0 * s + 100.0)
    sigma_p = math.sqrt(s)
    m_all = state.m_values()
    weights = np.abs(state.amps) ** 2
    lc, ld = _log_bases(params, m_all)
    lf = log_factorial(np.arange(cap + 2))
    rows = {}

    def row(total):
        if total not in rows:
            ncs = np.arange(total + 1)
            x = (
                ncs[:, None] * lc[None, :]
                + (total - ncs)[:, None] * ld[None, :]
                - (lf[ncs] + lf[total - ncs])[:, None]
                + (-s + total * math.log(s / 2.0))
            )
            with np.errstate(under="ignore"):
                rows[total] = np.exp(x) @ weights
        return rows[total]

    k = 4.0
    while True:
        lo = max(0, math.ceil(s - k * sigma_p))
        hi = math.floor(s + k * sigma_p)
        assert hi <= cap
        mass = 0.0
        for t in range(lo, hi + 1):
            mass += float(np.sum(row(t)))
        if mass >= 1.0 - mass_tolerance:
            break
        k += 1.0
    entries = []
    for t in range(lo, hi + 1):
        for nc in range(t + 1):
            entries.append((PhotonOutcome(nc, t - nc), float(rows[t][nc])))
    return tuple(entries), hi, mass


CASES = {
    "coherent": (P_REF, lambda: coherent_state(20, math.pi / 3.0), 1e-9),
    # half-integer m_z, every amplitude nonzero
    "half_spin": (P_REF, lambda: random_state(np.random.default_rng(13), 9), 1e-9),
    # at gt = pi/2 an odd m nearly closes one port, so most rows underflow to 0
    "dicke_zero_rows": (P_SYM, lambda: dicke_state(8, 1), 1e-9),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    params, make_state, tol = CASES[request.param]
    state = make_state()
    dist = outcome_distribution(params, state, tol)
    ref = reference_distribution(params, state, tol)
    return request.param, dist, ref


def test_columns_equal_reference_enumeration(case):
    name, dist, (entries, cutoff, mass) = case
    assert dist.n_c.dtype == np.int64 and dist.n_d.dtype == np.int64
    assert dist.p.dtype == np.float64
    assert dist.n_c.tolist() == [o.n_c for o, _ in entries]
    assert dist.n_d.tolist() == [o.n_d for o, _ in entries]
    ref_p = np.array([p for _, p in entries])
    assert np.array_equal(dist.p == 0.0, ref_p == 0.0)
    np.testing.assert_allclose(dist.p, ref_p, rtol=1e-11, atol=0.0)
    assert [o for o, _ in dist.entries] == [o for o, _ in entries]
    assert dist.cutoff_total == cutoff
    assert dist.captured_mass == pytest.approx(mass, rel=1e-11, abs=0.0)
    tot = np.array([o.total for o, _ in entries], dtype=float)
    assert dist.mean_total() == pytest.approx(float(np.dot(tot, ref_p) / mass),
                                              rel=1e-11, abs=0.0)
    if name == "dicke_zero_rows":
        assert np.count_nonzero(dist.p == 0.0) > dist.p.size // 2


# consecutive seeds that pass 2^64 - 1 halfway, as measure's seed + shot can
SHOT_SEEDS = [(2**64 - 500 + i) % 2**64 for i in range(1000)]


@pytest.mark.parametrize("name", [*sorted(CASES), "dim_light"])
def test_sample_matches_reference_inverse_cdf(name):
    if name == "dim_light":
        # s = 0.45: about two shots in three count no photon
        params = QndParams(gamma=complex(0.5, 0.2), chi=0.4, gt=math.pi / 40.0)
        state = coherent_state(40, math.pi / 2.0)
    else:
        params, make_state, _ = CASES[name]
        state = make_state()
    n_c, n_d = sample_outcomes(params, state, SHOT_SEEDS)
    got = list(zip(n_c.tolist(), n_d.tolist()))
    assert got == [shot_oracle.draw(params, state, seed) for seed in SHOT_SEEDS]
    zero = got.count((0, 0))
    assert 550 < zero < 750 if name == "dim_light" else zero == 0


def test_sample_chi_square_against_the_distribution():
    # 200k shots at N = 10 and s = 10.0 against the enumerated law, in
    # bins of at least 5 expected shots and one bin for the rest
    params = QndParams(gamma=2.3, chi=2.17, gt=math.pi / 10.0)
    state = coherent_state(10, 1.1)
    dist = outcome_distribution(params, state, 1e-12)
    shots = 200_000
    n_c, n_d = sample_outcomes(params, state, np.arange(shots, dtype=np.uint64) + 77)
    width = int(max(n_c.max(), n_d.max(), dist.n_c.max(), dist.n_d.max())) + 1
    seen = np.bincount(n_c * width + n_d, minlength=width * width)
    want = np.zeros(width * width)
    want[dist.n_c * width + dist.n_d] = dist.p / dist.captured_mass * shots
    assert not seen[want == 0.0].any()
    big = want >= 5.0
    observed = np.append(seen[big], seen[~big].sum())
    expected = np.append(want[big], shots - want[big].sum())
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert big.sum() > 100
    assert scipy.stats.chi2.sf(chi2, observed.size - 1) > 1e-3


def test_columns_are_read_only(case):
    _, dist, _ = case
    for col in (dist.n_c, dist.n_d, dist.p):
        with pytest.raises(ValueError):
            col[0] = 0


# ------------------------------------------------------------ the GEMM engine

def reference_rows(a, b, lo):
    """p of totals lo..hi by one contraction per total: entry n_c of total t
    is sum_m a[n_c, m] b[m, t - n_c]."""
    hi = a.shape[0] - 1
    return np.concatenate([np.einsum("im,mi->i", a[:t + 1], b[:, t::-1])
                           for t in range(lo, hi + 1)])


def reference_columns(lo, hi):
    """(n_c, n_d) of the window in row order, as concatenated ranges."""
    n_c = np.concatenate([np.arange(t + 1) for t in range(lo, hi + 1)])
    return n_c, np.repeat(np.arange(lo, hi + 1), np.arange(lo, hi + 1) + 1) - n_c


def engine_rows(a, b, lo):
    """The engine's rows, each block copied out before the next overwrites it."""
    return np.concatenate([block.copy() for block in povm._mixture_rows(a, b, lo)])


def assert_rows_close(p, want):
    assert p.dtype == np.float64 and p.shape == want.shape
    assert np.array_equal(p == 0.0, want == 0.0)
    np.testing.assert_allclose(p, want, rtol=1e-14, atol=0.0)


B = povm._BLOCK
WINDOWS = [(0, 0), (0, 40), (0, 2 * B - 2), (0, 2 * B - 1), (0, 2 * B),
           # narrower than one block, away from n_c = 0
           (300, 340),
           # hi + 1 - lo one short of, at and one past a block multiple
           (37, 37 + 2 * B - 2), (37, 37 + 2 * B - 1), (37, 37 + 2 * B)]


@pytest.mark.parametrize("lo, hi", WINDOWS)
def test_engine_matches_per_total_contraction(lo, hi):
    rng = np.random.default_rng(hi)
    k = 1 + hi % 9
    a, b = rng.random((hi + 1, k)), rng.random((k, hi + 1))
    p = engine_rows(a, b, lo)
    assert_rows_close(p, reference_rows(a, b, lo))
    assert engine_rows(a, b, lo).tobytes() == p.tobytes()


@pytest.mark.parametrize("lo, hi", WINDOWS)
def test_engine_reads_a_dark_port_at_n_d_zero(lo, hi):
    # a dark port d counts no photon: its rows are [n_d == 0], so the only
    # nonzero row of each total is n_c = t, and none of the n_d < 0 columns
    # a tile reads past the diagonal may land on it
    rng = np.random.default_rng(hi)
    k = 1 + hi % 9
    a, b = rng.random((hi + 1, k)), np.zeros((k, hi + 1))
    b[:, 0] = 1.0
    p = engine_rows(a, b, lo)
    n_c, n_d = reference_columns(lo, hi)
    assert np.array_equal(p != 0.0, n_d == 0)
    np.testing.assert_allclose(p[n_d == 0], a[lo:].sum(axis=1), rtol=1e-14, atol=0.0)


def padded_engine_rows(a, b, lo):
    """The engine's rows, every tile read from a copy of all of b behind
    _BLOCK - 1 zero columns, and a tile of one row computed as the last row
    of a two-row product."""
    hi = a.shape[0] - 1
    pad = B - 1
    b_pad = np.zeros((b.shape[0], pad + hi + 1))
    b_pad[:, pad:] = b
    rows = []
    for t0 in range(lo, hi + 1, B):
        t1 = min(t0 + B, hi + 1)
        block = np.empty((t1 - t0, t1))
        for i0 in range(0, t1, povm._TILE):
            i1 = min(i0 + povm._TILE, t1)
            r0 = max(min(i0, i1 - 2), 0)
            prod = np.empty((i1 - r0, t1 - t0 + i1 - r0 - 1))
            j0 = pad + t0 - (i1 - 1)
            np.matmul(a[r0:i1], b_pad[:, j0:j0 + prod.shape[1]], out=prod)
            for r in range(i0 - r0, i1 - r0):
                # n_c = r0 + r at total t0 + u is column i1 - 1 - r0 - r + u
                block[:, r0 + r] = prod[r, i1 - 1 - r0 - r:][:t1 - t0]
        rows += [block[t - t0, :t + 1] for t in range(t0, t1)]
    return np.concatenate(rows)


# blocks that end one past a tile multiple: each block's last tile has one row
ONE_ROW_TILES = [(1, 1 + B + 40), (33, 33 + 2 * B)]


@pytest.mark.parametrize("lo, hi", [
    # (0, 0) among them: one total, so b has one column
    *WINDOWS,
    # a last tile of one row
    (0, 3 * povm._TILE),
    *ONE_ROW_TILES])
def test_engine_rounds_as_on_a_padded_table(lo, hi):
    # every product keeps the shape it has on a fully padded b, and a
    # one-row tile is the last row of a two-row GEMM (as a vector-matrix
    # product it rounds differently in about a third of these draws)
    rng = np.random.default_rng(hi + 7)
    for k in range(4, 12):
        a, b = rng.random((k, hi + 1)).T, rng.random((k, hi + 1))
        assert engine_rows(a, b, lo).tobytes() == padded_engine_rows(a, b, lo).tobytes()


@pytest.mark.parametrize("lo, hi", [*WINDOWS, *ONE_ROW_TILES, (65, 65 + 5 * B)])
def test_row_bits_do_not_depend_on_the_block(monkeypatch, lo, hi):
    # every product is a GEMM, whose entries OpenBLAS rounds alike in any
    # tile, so where the tiles fall moves no bit: a block of 32, 64 or 128
    # totals gives the same rows, on a random and on a dark port d, up to
    # the 201 m_z of N = 200.  This holds while BLAS sums over m in one pass
    # (0.3.31 does up to 384 m_z)
    rng = np.random.default_rng(hi + 11)
    for k in (1 + hi % 9, 101, 201):
        a, b = rng.random((k, hi + 1)).T, rng.random((k, hi + 1))
        dark = np.zeros_like(b)
        dark[:, 0] = 1.0
        for b in (b, dark):
            rows = set()
            for block in (32, 64, 128):
                monkeypatch.setattr(povm, "_BLOCK", block)
                rows.add(engine_rows(a, b, lo).tobytes())
            assert len(rows) == 1


def _captured(monkeypatch, params, state, tol):
    """The distribution and the engine's (a, b, lo) for it."""
    seen = []
    real = povm._mixture_rows

    def spy(a, b, lo):
        seen.append((a.copy(), b.copy(), lo))
        return real(a, b, lo)

    monkeypatch.setattr(povm, "_mixture_rows", spy)
    dist = outcome_distribution(params, state, tol)
    assert len(seen) == 1
    return dist, seen[0]


BRIGHT = (QndParams(gamma=30.0, chi=30.0 * complex(math.cos(0.7), math.sin(0.7)),
                    gt=math.pi / 100.0), lambda: coherent_state(100, 1.2))


@pytest.mark.parametrize("params, make_state", [
    # support of one m_z
    (P_SYM, lambda: dicke_state(8, 1)),
    (P_REF, lambda: dicke_state(20, 0)),
    # at gt = pi/2, port c is all but dark on m_z = -3 and 1, and port d on
    # -1 and 3: those rows of a table are [n == 0] to 1e-30
    (P_SYM, lambda: coherent_state(8, 1.0)),
    # the bright benchmark's size: N = 100, s = 1800, 1.07M rows
    BRIGHT,
], ids=["dicke_odd", "dicke_zero", "dark_ports", "bright"])
def test_distribution_rows_match_per_total_contraction(monkeypatch, params, make_state):
    state = make_state()
    dist, (a, b, lo) = _captured(monkeypatch, params, state, 1e-9)
    hi = dist.cutoff_total
    assert a.shape == (hi + 1, state.support()[0].size) and b.shape == a.shape[::-1]
    n_c, n_d = reference_columns(lo, hi)
    assert np.array_equal(dist.n_c, n_c) and np.array_equal(dist.n_d, n_d)
    assert_rows_close(dist.p, reference_rows(a, b, lo))
    again = outcome_distribution(params, state, 1e-9)
    assert again.p.tobytes() == dist.p.tobytes()
    assert again.captured_mass == dist.captured_mass


def test_counts_of_any_run_of_rows():
    # photon-dist asks for the counts of writer chunks, which start and end
    # inside totals and span several
    table = povm._OutcomeTable(P_REF, coherent_state(20, math.pi / 3.0), 1e-9)
    n_c, n_d = reference_columns(table.lo, table.cutoff_total)
    assert n_c.size == table.size
    rng = np.random.default_rng(3)
    for start in [0, 1, table.size - 1, *rng.integers(0, table.size, 40).tolist()]:
        for n in {1, 2, 97, 1000, table.size - start}:
            n = min(n, table.size - start)
            got_c, got_d = table.counts(start, n)
            assert got_c.dtype == got_d.dtype == np.int64
            assert np.array_equal(got_c, n_c[start:start + n])
            assert np.array_equal(got_d, n_d[start:start + n])


def test_engine_builds_no_matrix_of_all_totals():
    # the bright window: 593 totals over n = 0..2096, 101 m_z; a matrix of
    # every total by every n_c, or of every (n_c, n_d), beside p breaks this
    lo, hi, k = 1504, 2096, 101
    rng = np.random.default_rng(5)
    a, b = rng.random((hi + 1, k)), rng.random((k, hi + 1))
    matrix = 8 * (hi - lo + 1) * (hi + 1)
    tracemalloc.start()
    try:
        rows = sum(block.size for block in povm._mixture_rows(a, b, lo))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == (hi - lo + 1) * (lo + hi + 2) // 2
    # the engine yields one block at a time, so it holds no p of all rows either
    assert peak < 0.6 * matrix < 8 * (hi + 1) ** 2


def test_enumeration_holds_each_per_port_table_once():
    # the bright window's two per-port tables take 3.39 MB.  Beside them the
    # engine holds one block buffer of _BLOCK totals (0.32x the tables here),
    # where `pmf` held one log table of as many rows before it, and a
    # zero-padded copy of port d's first _BLOCK + _TILE - 1 columns (0.04x):
    # 1.36x in all.  A block of 128 totals (1.72x), a full-size log table
    # beside the tables, or a padded copy of all of port d breaks the bound
    params, make_state = BRIGHT
    state = make_state()
    table = povm._OutcomeTable(params, state, 1e-9)
    tables = 2 * state.support()[0].size * (table.cutoff_total + 1) * 8
    tracemalloc.start()
    try:
        rows = sum(p.size for _, p in table.pieces(8192))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == table.size
    assert peak <= 1.45 * tables


def test_pmf_holds_its_tables_and_one_block_of_rows():
    # N = 200 at a mean of 5000 photons: the two tables take 17.7 MB, and one
    # port's log table beside them took 8.8 MB more before `pmf` formed it
    # _BLOCK rows of m_z at a time
    params = QndParams(gamma=50.0, chi=50.0, gt=math.pi / 200.0)
    table = povm._OutcomeTable(params, coherent_state(200, math.pi / 2.0), 1e-9)
    width = table.cutoff_total + 1
    tracemalloc.start()
    try:
        out = table._mixture.pmf(0, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (2, 201, width)
    # the output, one _BLOCK x (hi + 1) slice, and ln n! of the counts
    assert peak <= out.nbytes + 8 * (povm._BLOCK + 2) * width


def test_sampler_holds_its_tables_and_one_block_of_rows():
    # N = 200 at a mean of 20000 photons: the two CDF tables, 2 x 201 x 2654,
    # take 8.5 MB.  Each _BLOCK-row slice forms its own counts and gathers
    # its ln n!, one slice of scratch (1.16x the tables); an int64 array of
    # every entry's count beside the tables (2.3x) breaks the bound
    params = QndParams(gamma=100.0, chi=100.0, gt=math.pi / 200.0)
    mixture = povm._Mixture(params, coherent_state(200, math.pi / 2.0))
    lo, width = mixture.window(povm._TAIL)
    tables = 2 * lo.shape[1] * width * 8
    # the kernel and ln lam are built before the trace, by `window`
    tracemalloc.start()
    try:
        mixture.sampler()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * tables


def test_sampler_reads_ln_factorial_over_its_window():
    # a Dicke state under 1e7 photons: each port's window, about 41k counts
    # around 5e6, is all the sampler reads ln n! over; a table from n = 0 to
    # its largest count took 196 MB
    a = math.sqrt(5e6)
    params, state = QndParams(a, a, math.pi / 10), dicke_state(5, 0)
    lo, width = povm._Mixture(params, state).window(povm._TAIL)
    tables = 2 * lo.shape[1] * width * 8
    tracemalloc.start()
    try:
        sample_outcomes(params, state, [1, 2, 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * tables


def test_distribution_peak_is_its_three_columns():
    # n_c and n_d are built in place after the tables and the engine's
    # scratch are freed: no list of ranges, concatenation or repeat beside them
    params, make_state = BRIGHT
    state = make_state()
    tracemalloc.start()
    try:
        dist = outcome_distribution(params, state, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * dist.p.nbytes + (1 << 20)


# the law of the enumerated rows, from the beam amplitudes alone: the total
# n is Pois(s), and given m_z each photon leaves by port c with probability
# lam_c(m) / s, so P(n_c, n_d) = Pois(n; s) sum_m |psi_m|^2 Binom(n_c; n,
# lam_c(m) / s).  It shares no code with the engine: lam from the direct-form
# amplitudes of shot_oracle, the pmfs from scipy.
LAW_RTOL = 1e-10
LAW_FLOOR = 1e-300


def law_rows(params, state, n_c, n_d):
    """P(n_c[i], n_d[i]) by the binomial law above."""
    s = params.photon_mean
    m, w = state.support()
    p_c = np.clip([shot_oracle.port_means(params, mi)[0] / s for mi in m.tolist()], 0.0, 1.0)
    n = n_c + n_d
    binom = scipy.stats.binom.pmf(n_c[:, None], n[:, None], p_c[None, :])
    return scipy.stats.poisson.pmf(n, s) * (binom @ w)


def law_miss(got, want):
    """The largest relative miss where either side is above LAW_FLOOR."""
    big = np.maximum(got, want) > LAW_FLOOR
    return float(np.max(np.abs(got - want)[big] / np.maximum(got, want)[big]))


@pytest.mark.parametrize("params, make_state, rows", [
    (QndParams(3.1, 3.1 * complex(math.cos(0.4), math.sin(0.4)), math.pi / 20.0),
     lambda: coherent_state(20, 0.9), None),
    (QndParams(30.0, 30.0 * complex(math.cos(0.7), math.sin(0.7)), math.pi / 200.0),
     lambda: coherent_state(200, 1.3), 20000),
], ids=["N20-every-row", "N200-drawn-rows"])
def test_rows_follow_the_binomial_law(params, make_state, rows):
    state = make_state()
    dist = outcome_distribution(params, state, 1e-9)
    pick = (slice(None) if rows is None
            else np.random.default_rng(35).choice(dist.p.size, rows, replace=False))
    n_c, n_d, got = dist.n_c[pick], dist.n_d[pick], dist.p[pick]
    assert law_miss(got, law_rows(params, state, n_c, n_d)) <= LAW_RTOL
    # the law tells the two signs of gt apart: flipped, it misses by far
    flipped = QndParams(params.gamma, params.chi, -params.gt)
    assert law_miss(got, law_rows(flipped, state, n_c, n_d)) > 1e-2
