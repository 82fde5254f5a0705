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

from qnd_povm import povm
from qnd_povm.numerics import log_factorial
from qnd_povm.povm import (PhotonOutcome, QndParams, _log_bases,
                           outcome_distribution, sample_outcome)
from qnd_povm.spin_state import coherent_state, dicke_state
from qnd_povm.validate import random_state

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


def reference_sample(entries, captured_mass, cumulative, seed):
    """Inverse-CDF draw over (outcome, p) pairs, stepping off zero-mass entries."""
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    target = rng.random() * captured_mass
    idx = min(int(np.searchsorted(cumulative, target, side="right")),
              len(entries) - 1)
    while idx > 0 and entries[idx][1] == 0.0:
        idx -= 1
    return entries[idx][0]


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


def test_sample_matches_reference_inverse_cdf(case):
    _, dist, (entries, _, mass) = case
    cumulative = np.cumsum(np.array([p for _, p in entries]))
    for seed in range(1000):
        assert sample_outcome(dist, seed) == reference_sample(
            entries, mass, cumulative, seed)


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
    # the bright benchmark's size: N = 100, s = 1800, 1.07M rows
    BRIGHT,
], ids=["dicke_odd", "dicke_zero", "bright"])
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
