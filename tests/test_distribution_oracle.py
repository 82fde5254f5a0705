"""The columnar outcome distribution against the per-entry enumeration.

`reference_distribution` is the enumeration as it was written before the
Poisson-mixture kernel: one probability row per total photon number, built
by the out-of-place log-space expression, then walked entry by entry into
(PhotonOutcome, p) pairs.  The row set must equal it exactly: the outcomes,
the cutoff and the entries that are exactly zero.  The two kernels round
differently, so p is compared at 1e-11 relative; accuracy itself is pinned
against a 60-digit sum in test_mpmath_oracle.py, not against this kernel.
"""

import math

import numpy as np
import pytest

from qnd_povm.numerics import log_factorial_array
from qnd_povm.povm import (PhotonOutcome, QndParams, _log_bases,
                           outcome_distribution, sample_outcome)
from qnd_povm.spin_state import (CollectiveState, Sector, coherent_state,
                                 dicke_state, normalize)

P_REF = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 100.0)
P_SYM = QndParams(gamma=5.0, chi=5.0, gt=math.pi / 2.0)


def reference_distribution(params, state, mass_tolerance):
    """(entries, cutoff_total, captured_mass) by per-total, per-entry loops."""
    s = params.photon_mean
    cap = int(4.0 * s + 100.0)
    sigma_p = math.sqrt(s)
    m_all = np.concatenate([sec.m_values() for sec in state.sectors])
    weights = np.concatenate([np.abs(sec.amps) ** 2 for sec in state.sectors])
    lc, ld = _log_bases(params, m_all)
    lf = log_factorial_array(cap + 1)
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


def _two_sector_state():
    rng = np.random.default_rng(13)
    a = rng.normal(size=5) + 1j * rng.normal(size=5)
    b = rng.normal(size=10) + 1j * rng.normal(size=10)
    return normalize(CollectiveState((Sector(4, a), Sector(9, b))))


CASES = {
    "coherent": (P_REF, lambda: coherent_state(20, math.pi / 3.0), 1e-9),
    "two_sector": (P_REF, _two_sector_state, 1e-9),
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
