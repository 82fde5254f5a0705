import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnd_povm import _pcg64, povm, validate
from qnd_povm.approx import approx_apply
from qnd_povm.errors import DomainError, PreconditionError, ResourceCapError
from qnd_povm.povm import (OutcomeDistribution, PhotonOutcome, QndParams,
                           amplitude, apply, condition, detector_phases,
                           log_matrix_element, log_matrix_element_direct,
                           outcome_distribution, outcome_probability,
                           params_from_json, params_to_json, phase_phi,
                           posterior, sample_outcome, sample_outcomes)
from qnd_povm.spin_state import (CollectiveState, coherent_state,
                                 dicke_state, moments, normalize, overlap)
from qnd_povm.validate import (check_dicke_invariance, check_dual_form,
                               check_photon_conservation, check_unity, random_state)

P_REF = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 100.0)
P_SYM = QndParams(gamma=5.0, chi=5.0, gt=math.pi / 2.0)


def poisson_pmf(lam, n):
    return math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1))


def wrapped(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


# ------------------------------------------------------------------ parameters

def test_params_derived_quantities():
    p = QndParams(gamma=5.1, chi=5.0, gt=0.1)
    assert abs(math.tan(p.eta) - (5.0 - 5.1) / (5.0 + 5.1)) < 1e-15
    assert p.phi_chigamma == 0.0
    assert abs(p.photon_mean - 51.01) < 1e-12
    q = QndParams(gamma=2.0 * 1j, chi=2.0, gt=0.1)
    assert abs(q.phi_chigamma + math.pi / 2.0) < 1e-15
    assert abs(q.eta) < 1e-15
    with pytest.raises(DomainError):
        QndParams(gamma=0.0, chi=1.0, gt=0.1)


def test_params_json_roundtrip():
    p = QndParams(gamma=1.0 + 2.0j, chi=0.5 - 0.25j, gt=0.77)
    q = params_from_json(params_to_json(p))
    assert q.gamma == p.gamma and q.chi == p.chi and q.gt == p.gt
    with pytest.raises(DomainError):
        params_from_json({"gamma": [1, 0], "chi": [1, 0]})


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
def test_outcome_uvr_relations(nc, nd):
    o = PhotonOutcome(nc, nd)
    assert o.u == (nc + nd) / 2.0
    assert o.v == (nd - nc) / 2.0
    if o.total:
        assert abs(o.r * o.total - (nd - nc)) < 1e-12
        assert o.u * o.u - o.v * o.v == pytest.approx(nc * nd)


def test_outcome_r_zero_total():
    with pytest.raises(DomainError):
        PhotonOutcome(0, 0).r


def test_outcome_counts_below_2_53():
    assert PhotonOutcome((1 << 53) - 1, (1 << 53) - 1).total == (1 << 54) - 2
    for counts in ((1 << 53, 0), (0, 1 << 53), (10 ** 29, 3)):
        with pytest.raises(DomainError, match="below 2\\^53"):
            PhotonOutcome(*counts)


def test_batched_counts_meet_the_same_bounds():
    # condition_many checks its counts with PhotonOutcome's helper, so a
    # count of 2^53 raises instead of reading as an impossible outcome
    from qnd_povm import condition_many

    st = coherent_state(10, 1.0)
    for n_c, n_d in (([1 << 53], [3]), ([3, 4], [5, 10 ** 29])):
        with pytest.raises(DomainError, match="below 2\\^53"):
            condition_many(P_REF, n_c, n_d, st)
    with pytest.raises(DomainError, match="non-negative"):
        condition_many(P_REF, [3], [-1], st)
    assert condition_many(P_REF, np.array([(1 << 53) - 1]), [0], st)[0].shape == (1,)


def test_wrap_pi_on_scalars_and_arrays():
    x = np.array([-7.0, -math.pi, -1e-300, 0.0, 1.0, math.pi, 3.5, 2e3])
    got = povm._wrap_pi(x)
    assert got.tolist() == [povm._wrap_pi(float(v)) for v in x]
    assert ((got > -math.pi) & (got <= math.pi)).all()
    assert got[[1, 5]].tolist() == [math.pi, math.pi]
    assert math.copysign(1.0, povm._wrap_pi(0.0)) == 1.0  # +0.0, not -0.0


# ---------------------------------------------------------------------- phases

def test_phase_phi_affine():
    p = QndParams(gamma=5.1, chi=5.0, gt=0.0)
    assert phase_phi(p, 7) == math.pi / 4.0
    p2 = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 100.0)
    assert abs(phase_phi(p2, 50) - math.pi / 2.0) < 1e-15
    p3 = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 2.0)
    assert abs(phase_phi(p3, 1) - math.pi / 2.0) < 1e-15


def test_detector_phases_at_phi_zero():
    # phi(m) = 0 at m = -1 for gt = pi/2: phi_c = 0 and phi_d = -pi/2,
    # independent of the sign of eta
    for gamma, chi in ((5.0, 5.0), (5.1, 5.0), (5.0, 5.1)):
        p = QndParams(gamma=gamma, chi=chi, gt=math.pi / 2.0)
        pc, pd = detector_phases(p, -1)
        assert abs(pc) < 1e-15
        assert abs(pd + math.pi / 2.0) < 1e-12


def test_detector_phases_symmetric_light():
    # at eta = 0 the c phase carries only the sign of cos(phi): 0 or pi
    p = QndParams(gamma=5.0, chi=5.0, gt=math.pi / 2.0)
    for m in range(-6, 7):
        pc, _ = detector_phases(p, m)
        cphi = math.cos(phase_phi(p, m))
        if cphi > 1e-9:
            assert pc == 0.0
        elif cphi < -1e-9:
            assert abs(abs(pc) - math.pi) < 1e-12


def test_detector_phases_against_formula_oracle():
    # principal-branch oracle in extended precision, away from branch points
    with mp.workdps(40):
        eta = 0.1
        # build amplitudes with tan(eta) = (|chi|-|gamma|)/(|chi|+|gamma|)
        t = math.tan(eta)
        gamma, chi = 1.0 - t, 1.0 + t
        p = QndParams(gamma=gamma, chi=chi, gt=2.0)
        for m in (-0.4, 0.05, 0.3):  # phi stays inside (-pi/2, pi/2)
            phi = phase_phi(p, m)
            assert abs(phi) < math.pi / 2.0
            want_c = float(mp.atan(mp.tan(eta) * mp.tan(phi)))
            want_d = float(mp.atan(mp.tan(phi) / mp.tan(eta)) - mp.pi / 2)
            pc, pd = detector_phases(p, m)
            assert abs(pc - want_c) < 1e-13
            assert abs(wrapped(pd - want_d)) < 1e-13


# ------------------------------------------------------------------- amplitude

def test_amplitude_empty_product():
    assert amplitude(P_REF, PhotonOutcome(0, 0), 3) == 1.0


def test_amplitude_parity_point_values():
    # symmetric light at gt = pi/2: on even m the two bases are exactly 1,
    # so A = 1/sqrt(nc! nd!)
    o = PhotonOutcome(4, 6)
    want = math.exp(-0.5 * (math.log(math.factorial(4)) + math.log(math.factorial(6))))
    for m in (-4, -2, 0, 2, 4):
        assert abs(amplitude(P_SYM, o, m) - want) < 1e-12 * want
    # odd m: one of the bases vanishes
    for m in (-3, -1, 1, 3):
        assert amplitude(P_SYM, o, m) < 1e-14 * want


def test_amplitude_gaussian_peak_location():
    # envelope peaks where cos(2 eta) sin(gt m) matches the count asymmetry
    o = PhotonOutcome(15, 35)
    m_grid = np.arange(-50, 51)
    vals = [amplitude(P_REF, o, int(m)) for m in m_grid]
    m_star = m_grid[int(np.argmax(vals))]
    target = math.asin(o.r / P_REF.cos_2eta) / P_REF.gt
    assert abs(m_star - target) <= 0.5 + 1e-9


def test_amplitude_swap_symmetry():
    # swapping gamma<->chi with n_c<->n_d and m -> -m leaves A unchanged
    # when the light phases are aligned
    p = QndParams(gamma=4.2, chi=3.1, gt=0.31)
    q = QndParams(gamma=3.1, chi=4.2, gt=0.31)
    for m in (-3, -0.5, 0, 1.5, 4):
        a = amplitude(p, PhotonOutcome(7, 3), m)
        b = amplitude(q, PhotonOutcome(3, 7), -m)
        assert abs(a - b) < 1e-14 * max(a, 1e-300)


# ------------------------------------------------------------ dual-form oracle

def test_dual_form_random_draws():
    check = check_dual_form(np.random.default_rng(101), draws=400, total_cap=40, two_m_cap=100)
    assert check.passed, check.detail


@pytest.mark.parametrize("name, fake", [
    ("log_matrix_element", lambda real: lambda *a: (real(*a)[0] + 5e-10, real(*a)[1])),
    ("log_amplitude", lambda real: lambda *a: -math.inf),  # every draw excluded: no hang
], ids=["shift-5e-10", "all-excluded"])
def test_dual_form_check_can_fail(monkeypatch, name, fake):
    monkeypatch.setattr(validate, name, fake(getattr(validate, name)))
    assert not check_dual_form(np.random.default_rng(1)).passed


def test_dual_form_special_points():
    # long interaction time, symmetric and asymmetric light, both eta signs
    worst = 0.0
    for params in (
        QndParams(gamma=5.0, chi=5.0, gt=math.pi / 2.0),
        QndParams(gamma=5.1, chi=5.0, gt=math.pi / 2.0),
        QndParams(gamma=5.0, chi=5.1, gt=math.pi / 2.0),
        QndParams(gamma=5.0 * 1j, chi=5.0, gt=math.pi / 7.0),
        QndParams(gamma=3.0, chi=4.0 * np.exp(0.7j), gt=math.pi / 3.0),
    ):
        for m in (-5, -2, -0.5, 0, 1, 2.5, 6):
            for (nc, nd) in ((0, 7), (7, 0), (3, 3), (2, 5)):
                out = PhotonOutcome(nc, nd)
                lm_s, ph_s = log_matrix_element(params, out, m)
                lm_d, ph_d = log_matrix_element_direct(params, out, m)
                if lm_d < -40.0 and lm_s < -40.0:
                    continue  # structural zero, both agree it vanishes
                worst = max(worst, abs(lm_s - lm_d), abs(wrapped(ph_s - ph_d)))
    assert worst < 1e-10


def test_matrix_element_magnitude_phase_invariance():
    # rotating both light phases together changes only the global phase
    p0 = QndParams(gamma=2.0, chi=3.0, gt=0.9)
    p1 = QndParams(gamma=2.0 * np.exp(0.4j), chi=3.0 * np.exp(0.4j), gt=0.9)
    for m in (-2, 0.5, 3):
        a0, _ = log_matrix_element(p0, PhotonOutcome(4, 5), m)
        a1, _ = log_matrix_element(p1, PhotonOutcome(4, 5), m)
        assert abs(a0 - a1) < 1e-12


# ------------------------------------------------------------ operator action

def test_apply_dicke_proportional():
    st = dicke_state(20, 6)
    out = apply(P_REF, PhotonOutcome(26, 25), st)
    nz = np.flatnonzero(np.abs(out.amps))
    assert list(nz) == [st.index_of(6)]
    assert abs(overlap(st, normalize(out))) == pytest.approx(1.0, abs=1e-13)


def test_apply_gt_zero_uniform_scalar():
    p = QndParams(gamma=5.0, chi=5.0, gt=0.0)
    st = coherent_state(12, 1.1)
    out = apply(p, PhotonOutcome(20, 20), st)
    ratio = out.amps / st.amps
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_apply_norm_matches_probability():
    rng = np.random.default_rng(7)
    for _ in range(20):
        two_j = int(rng.integers(1, 30))
        st = random_state(rng, two_j)
        nc = int(rng.integers(0, 60))
        nd = int(rng.integers(0, 60))
        out = PhotonOutcome(nc, nd)
        p = outcome_probability(P_REF, out, st)
        ap = apply(P_REF, out, st)
        if p > 1e-280:
            assert abs(p - ap.squared_norm()) <= 1e-12 * p


def test_apply_preserves_zeros():
    a = np.array([0.0, 1.0, 0.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    st = CollectiveState(4, a)
    out = apply(P_REF, PhotonOutcome(30, 21), st)
    assert np.all(out.amps[[0, 2, 4]] == 0.0)



# ------------------------------------------------------- outcome probabilities

def test_probability_poisson_product_at_gt_zero():
    # with no interaction the two ports are independent Poisson counters
    # with means |gamma + i chi|^2 / 2 and |i gamma + chi|^2 / 2
    gamma, chi = 1.3, 0.9 + 0.4j
    p = QndParams(gamma=gamma, chi=chi, gt=0.0)
    lam_c = abs(gamma + 1j * chi) ** 2 / 2.0
    lam_d = abs(1j * gamma + chi) ** 2 / 2.0
    st = normalize(CollectiveState(3, np.array([0.6, 0.2j, -0.4, 0.1])))
    for nc in (0, 1, 3):
        for nd in (0, 2, 4):
            got = outcome_probability(p, PhotonOutcome(nc, nd), st)
            want = poisson_pmf(lam_c, nc) * poisson_pmf(lam_d, nd)
            assert got == pytest.approx(want, rel=1e-12)


def test_probability_requires_normalized():
    bad = CollectiveState(2, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(PreconditionError):
        outcome_probability(P_REF, PhotonOutcome(1, 1), bad)


def test_probability_coherent_modal_outcome():
    st = coherent_state(100, math.pi / 2.0)
    dist = outcome_distribution(P_REF, st, 1e-8)
    modal = max(dist.entries, key=lambda e: e[1])[0]
    assert abs(modal.total - P_REF.photon_mean) <= 2.0
    assert abs(modal.n_c - modal.n_d) <= 1


def test_probability_dicke_edge_on_axis():
    # fully polarized Dicke states push all the light into one port
    st_plus = dicke_state(50, 50)
    dist = outcome_distribution(P_REF, st_plus, 1e-8)
    modal = max(dist.entries, key=lambda e: e[1])[0]
    assert modal.n_c <= 1
    st_minus = dicke_state(50, -50)
    dist = outcome_distribution(P_REF, st_minus, 1e-8)
    modal = max(dist.entries, key=lambda e: e[1])[0]
    assert modal.n_d <= 1


# ----------------------------------------------------------------- enumeration

def test_distribution_contract():
    rng = np.random.default_rng(3)
    st = random_state(rng, 14)
    dist = outcome_distribution(P_REF, st, 1e-6)
    assert dist.captured_mass >= 1.0 - 1e-6
    assert dist.captured_mass <= 1.0 + 1e-12
    keys = [(o.total, o.n_c) for o, _ in dist.entries]
    assert keys == sorted(keys)
    assert all(p >= 0.0 for _, p in dist.entries)


def test_distribution_mean_total():
    check = check_photon_conservation(np.random.default_rng(4), P_REF, (11,) * 3)
    assert check.passed, check.detail


def test_distribution_resource_cap():
    st = coherent_state(10, math.pi / 2.0)
    with pytest.raises(ResourceCapError) as err:
        outcome_distribution(P_REF, st, 1e-12, max_total=55)
    assert 0.0 < err.value.captured_mass < 1.0


def _no_tables(*args):
    raise AssertionError("a per-port table was built")


def test_distribution_cap_mass_is_the_poisson_marginal(monkeypatch):
    # the window is fixed from Pois(s) before any table is built, so the
    # partial mass is the marginal over [lo, max_total] whatever the state
    monkeypatch.setattr(povm, "_log_bases", _no_tables)
    st = coherent_state(10, math.pi / 2.0)
    with pytest.raises(ResourceCapError) as err:
        outcome_distribution(P_REF, st, 1e-12, max_total=55)
    s = P_REF.photon_mean
    lo = math.ceil(s - 4.0 * math.sqrt(s))
    want = math.fsum(poisson_pmf(s, t) for t in range(lo, 56))
    assert err.value.captured_mass == pytest.approx(want, rel=1e-12)


def test_distribution_row_cap_before_any_table(monkeypatch):
    monkeypatch.setattr(povm, "_log_bases", _no_tables)
    bright = QndParams(gamma=1e4, chi=1e4, gt=0.01)
    with pytest.raises(ResourceCapError, match="over the cap of 16777216"):
        outcome_distribution(bright, coherent_state(4, 1.0), 1e-9)


def test_distribution_table_cap_before_any_table(monkeypatch):
    # 610539 rows pass the row cap; the 2 x 6380 x 1970 table entries (one
    # row per nonzero amplitude) do not
    monkeypatch.setattr(povm, "_log_bases", _no_tables)
    monkeypatch.setattr(povm, "log_factorial", _no_tables)
    bright = QndParams(gamma=30.0, chi=30.0, gt=0.01)
    with pytest.raises(ResourceCapError, match="over the cap of 16777216 entries"):
        outcome_distribution(bright, coherent_state(20000, 1.0), 1e-9)


def test_distribution_rows_guard_rejects_corrupt_bases(monkeypatch):
    real = povm._log_bases

    def corrupt(params, m):
        lc, ld = real(params, m)
        lc[len(lc) // 2] += 1e-6
        return lc, ld

    st = coherent_state(20, math.pi / 3.0)
    outcome_distribution(P_REF, st, 1e-9)
    monkeypatch.setattr(povm, "_log_bases", corrupt)
    with pytest.raises(DomainError, match="Poisson mass"):
        outcome_distribution(P_REF, st, 1e-9)


def test_distribution_mass_tolerance_domain():
    st = coherent_state(4, math.pi / 2.0)
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(DomainError):
            outcome_distribution(P_REF, st, bad)
    with pytest.raises(DomainError):
        outcome_distribution(P_REF, st, 1e-6, max_total=-1)


def test_unity_decomposition_random_states():
    rng = np.random.default_rng(12)
    for two_j, gt in ((8, math.pi / 8.0), (24, math.pi / 24.0)):
        params = QndParams(gamma=5.1, chi=5.0, gt=gt)
        assert check_unity(rng, params, (two_j,)).passed


def test_unity_detail_prints_the_mass_to_ten_decimals():
    # the last digits of the mass depend on the BLAS build; its check stands
    # on 1e-8, and the line prints it to 1e-10
    check = check_unity(np.random.default_rng(12), P_REF, (8,))
    assert check.detail == f"min mass {check.value:.10f}"
    assert len(check.detail.split()[-1]) == 12



# -------------------------------------------------------------------- sampling

def test_sample_single_entry():
    dist = OutcomeDistribution(n_c=np.array([3]), n_d=np.array([4]),
                               p=np.array([1.0]), cutoff_total=7,
                               captured_mass=1.0)
    for seed in (0, 1, 99, 2**63):
        assert sample_outcome(dist, seed) == PhotonOutcome(3, 4)


def test_sample_two_equal_entries_frequencies():
    dist = OutcomeDistribution(
        n_c=np.array([0, 1]), n_d=np.array([1, 0]), p=np.array([0.5, 0.5]),
        cutoff_total=1, captured_mass=1.0)
    n = 100_000
    hits = int(sample_outcomes(dist, np.arange(n, dtype=np.uint64))[0].sum())
    # 6-sigma band around one half at this sample size is about +-0.01
    assert abs(hits / n - 0.5) < 0.01


def test_sample_deterministic():
    st = coherent_state(30, math.pi / 2.0)
    dist = outcome_distribution(P_REF, st, 1e-6)
    a = sample_outcome(dist, 123456789)
    b = sample_outcome(dist, 123456789)
    assert a == b


def test_sample_empty_distribution():
    dist = OutcomeDistribution(n_c=np.array([], dtype=np.int64),
                               n_d=np.array([], dtype=np.int64),
                               p=np.array([]), cutoff_total=0, captured_mass=0.0)
    with pytest.raises(DomainError):
        sample_outcome(dist, 1)


def numpy_first_uniform(seed):
    return np.random.Generator(np.random.PCG64(int(seed))).random()


@pytest.mark.parametrize("block", [1, 128])
def test_first_uniforms_equal_numpy_pcg64(block):
    rng = np.random.default_rng(20261018)
    seeds = np.concatenate([
        np.array([0, 1, 2**32 - 1, 2**32, 2**48, 2**63, 2**64 - 1], dtype=np.uint64),
        rng.integers(0, 2**64, 10_000, dtype=np.uint64, endpoint=False),
        rng.integers(0, 2**32, 10_000, dtype=np.uint64, endpoint=False),
    ])
    got = np.concatenate([_pcg64.first_uniforms(seeds[lo:lo + block])
                          for lo in range(0, seeds.size, block)])
    want = np.array([numpy_first_uniform(s) for s in seeds.tolist()])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [-1, -(2**64), 2**64, 2**70])
def test_sample_rejects_seeds_outside_uint64(seed):
    dist = OutcomeDistribution(n_c=np.array([3]), n_d=np.array([4]),
                               p=np.array([1.0]), cutoff_total=7,
                               captured_mass=1.0)
    with pytest.raises(DomainError, match="outside"):
        sample_outcome(dist, seed)
    with pytest.raises(DomainError, match="outside"):
        sample_outcomes(dist, np.array([5, seed], dtype=object))
    with pytest.raises(DomainError, match="outside"):
        sample_outcomes(dist, [2**64 - 1, seed])


def test_sample_outcomes_is_the_per_seed_draw():
    dist = outcome_distribution(P_REF, coherent_state(30, math.pi / 2.0), 1e-9)
    seeds = np.arange(2**64 - 150, 2**64, dtype=np.uint64)
    n_c, n_d = sample_outcomes(dist, seeds)
    assert n_c.dtype == n_d.dtype == np.int64
    assert [PhotonOutcome(c, d) for c, d in zip(n_c.tolist(), n_d.tolist())] == [
        sample_outcome(dist, s) for s in seeds.tolist()]
    # signed arrays and Python ints draw as the same seeds do as uint64
    low = seeds >> np.uint64(2)
    for same in (low.astype(np.int64), low.tolist()):
        assert np.array_equal(sample_outcomes(dist, same)[0], sample_outcomes(dist, low)[0])


def test_sample_steps_off_trailing_zero_mass():
    # a captured mass past the cumulative sum sends draws past the last entry;
    # they land on the last entry that carries probability, never a zero
    dist = OutcomeDistribution(n_c=np.arange(5), n_d=np.zeros(5, dtype=np.int64),
                               p=np.array([0.0, 0.5, 0.0, 0.5, 0.0]), cutoff_total=4,
                               captured_mass=2.0)
    n_c, _ = sample_outcomes(dist, np.arange(4000, dtype=np.uint64))
    assert set(n_c.tolist()) == {1, 3}
    assert abs(np.mean(n_c == 3) - 0.75) < 0.05
    dead = OutcomeDistribution(n_c=np.arange(2), n_d=np.zeros(2, dtype=np.int64),
                               p=np.zeros(2), cutoff_total=1, captured_mass=1.0)
    with pytest.raises(DomainError, match="no probability mass"):
        sample_outcome(dead, 0)


# ------------------------------------------------------------------- posterior

def test_posterior_dicke_invariance():
    st = dicke_state(50, 14)
    post = posterior(P_REF, PhotonOutcome(24, 27), st)
    assert abs(overlap(st, post)) ** 2 == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("light", [1e-150])
def test_dicke_check_fails_at_a_structural_zero(light):
    # at gt = pi/2 with symmetric light, outcome (26, 25) is impossible on an
    # odd m: faint light, whose base underflows to an exact zero there, finds
    # no posterior
    params = QndParams(gamma=light, chi=light, gt=math.pi / 2.0)
    assert not check_dicke_invariance(params, 20, (-7, 0, 13)).passed


def test_posterior_at_a_structural_zero_is_the_dicke_ket():
    # with bright light the same outcome keeps a float residue on odd m
    # (cos(pi/2) is 6e-17, so ln P ~ -1900): the posterior is the ket itself,
    # not 0 * inf from the empty m_z where the envelope peaks
    assert check_dicke_invariance(P_SYM, 20, (-7, 0, 13)).passed
    for m in (-7, 13):
        st = dicke_state(20, m)
        log_p, post = condition(P_SYM, PhotonOutcome(26, 25), st)
        assert -2500.0 < log_p < -1000.0
        amps = post.amps
        assert np.isfinite(amps).all()
        assert np.abs(amps) == pytest.approx(np.abs(st.amps), abs=1e-15)


def test_operator_is_finite_off_the_envelope_peak():
    # the occupied odd m_z = 1, 3 sit ~1900 e-folds below the unoccupied even
    # ones; no factor is ever evaluated on a zero amplitude, so none meets an
    # overflowing one
    st = normalize(CollectiveState(10, np.eye(11)[6] + np.eye(11)[8]))
    out = PhotonOutcome(26, 25)
    post = posterior(P_SYM, out, st)
    assert abs(post.squared_norm() - 1.0) < 1e-12
    for state in (post, apply(P_SYM, out, st)):
        amps = state.amps
        assert np.isfinite(amps).all()
        assert amps[[0, 1, 2, 3, 4, 5, 7, 9, 10]].tolist() == [0j] * 9


def test_posterior_dicke_mixture_weights():
    # diagonal weights of an incoherent Dicke mixture are reweighted by the
    # envelope only; repeated identical measurements keep the support
    st = normalize(CollectiveState(8, np.array([0, 0.6, 0, 0.8, 0, 0, 0, 0, 0])))
    out = PhotonOutcome(26, 25)
    p1 = posterior(P_REF, out, st)
    p2 = posterior(P_REF, out, p1)
    assert np.all((np.abs(p1.amps) > 0) == (np.abs(st.amps) > 0))
    assert np.all((np.abs(p2.amps) > 0) == (np.abs(st.amps) > 0))


def test_posterior_survives_deep_tail_outcome():
    # probabilities ~1e-100 still produce a normalized posterior: the
    # internal log shift keeps the scale representable
    st = dicke_state(5, 1)  # heavily suppressed at the symmetric point
    post = posterior(P_SYM, PhotonOutcome(3, 3), st)
    assert abs(post.squared_norm() - 1.0) < 1e-12
    assert abs(overlap(st, post)) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_posterior_squeezes_coherent_state():
    st = coherent_state(100, math.pi / 2.0)
    prior_var = moments(st).var_jz
    post = posterior(P_REF, PhotonOutcome(25, 25), st)
    assert moments(post).var_jz < prior_var


def test_posterior_pulled_toward_count_asymmetry():
    # the posterior is prior times envelope: its peak sits strictly between
    # the prior mean (0) and the envelope peak m0, on the m0 side
    st = coherent_state(100, math.pi / 2.0)
    o = PhotonOutcome(15, 36)
    post = posterior(P_REF, o, st)
    m_peak = float(post.m_values()[int(np.argmax(np.abs(post.amps)))])
    m0 = math.asin(o.r / P_REF.cos_2eta) / P_REF.gt
    assert 0.0 < m_peak < m0
    assert moments(post).mean_jz > 1.0


# ------------------------------------------------------- batched conditioning

P_N200 = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 200.0)
# shallow and deep outcomes in one batch: ln P from about -10 down to -176
BATCH = [(25, 26), (0, 0), (60, 20), (5, 100), (140, 0), (0, 160), (161, 0),
         (26, 25), (1, 0)]


def _half_spin_state():
    """A random state of spin J = 9/2, so half-integer m_z are covered."""
    return random_state(np.random.default_rng(11), 9)


@pytest.mark.parametrize("params, state", [
    (P_REF, _half_spin_state()),
    (P_REF, dicke_state(8, 1)),           # zero amplitudes drop out
    (P_N200, coherent_state(200, 1.2)),
])
def test_condition_many_matches_condition_and_moments(params, state):
    n_c, n_d = zip(*BATCH)
    log_p, mean_jz, var_jz = povm.condition_many(params, n_c, n_d, state)
    assert log_p.shape == mean_jz.shape == var_jz.shape == (len(BATCH),)
    for i, out in enumerate(BATCH):
        want_p, post = condition(params, PhotonOutcome(*out), state)
        want = moments(post)
        assert abs(log_p[i] - want_p) <= 1e-12 * max(1.0, abs(want_p))
        assert abs(mean_jz[i] - want.mean_jz) <= 1e-12 * max(1.0, abs(want.mean_jz))
        assert abs(var_jz[i] - want.var_jz) <= 1e-12 * max(1.0, want.var_jz)
    if state.two_j == 200:
        assert log_p.min() < -175.0 and log_p.max() > -11.0


def test_condition_many_zero_probability_row():
    # beams so faint that port c's base underflows to an exact zero at
    # gt m = pi/2: on that Dicke ket (1, 0) is impossible, (0, 1) is not
    faint = QndParams(gamma=1e-150, chi=1e-150, gt=math.pi / 2.0)
    st = dicke_state(5, 1)
    assert condition(faint, PhotonOutcome(1, 0), st) == (-math.inf, None)
    log_p, mean_jz, var_jz = povm.condition_many(faint, [0, 1, 0], [1, 0, 0], st)
    assert list(np.isfinite(log_p)) == [True, False, True]
    assert log_p[1] == -math.inf
    assert math.isnan(mean_jz[1]) and math.isnan(var_jz[1])
    assert mean_jz[0] == mean_jz[2] == 1.0 and var_jz[0] == var_jz[2] == 0.0


def test_condition_many_domain():
    st = coherent_state(10, 1.0)
    with pytest.raises(PreconditionError):
        povm.condition_many(P_REF, [1], [1],
                            CollectiveState(10, 2.0 * st.amps))
    with pytest.raises(DomainError):
        povm.condition_many(P_REF, [1, 2], [1], st)
    with pytest.raises(DomainError):
        povm.condition_many(P_REF, [-1], [1], st)
    empty = povm.condition_many(P_REF, [], [], st)
    assert all(a.shape == (0,) for a in empty)


def test_envelope_is_minus_inf_only_at_exact_zero_bases(monkeypatch):
    # a sentinel base meets a positive count: -inf; at count 0 it is 0^0 = 1
    m = np.array([-1.0, 0.0, 1.0])
    real = povm._log_bases

    def zero_bases(params, m):
        lc, ld = real(params, m)
        lc[0] = ld[2] = povm._LOG_ZERO
        return lc, ld

    monkeypatch.setattr(povm, "_log_bases", zero_bases)
    _, log_e = povm._envelope(P_REF, [0, 3, 0, 3], [0, 0, 4, 4], m)
    assert np.array_equal(np.isinf(log_e), [[False, False, False], [True, False, False],
                                            [False, False, True], [True, False, True]])
    assert (log_e[np.isinf(log_e)] < 0).all()


def test_condition_finite_at_1e8_photons_per_port():
    # the envelope at the mean outcome lies about 1.7e9 below zero before its
    # constant, under _LOG_ZERO / 4, yet no base is zero.  The reference is
    # the Poisson mixture sum_m |psi_m|^2 Pois(n_c; lam_c) Pois(n_d; lam_d)
    params = QndParams(gamma=1e4, chi=1e4, gt=0.001)
    state = coherent_state(10, math.pi / 2.0)
    n = 10 ** 8
    log_p, post = condition(params, PhotonOutcome(n, n), state)
    m, w = state.support()
    s = params.photon_mean
    terms = [math.log(wi) + sum(n * (math.log(s / 2.0) + lb) - s / 2.0 * math.exp(lb)
                                - math.lgamma(n + 1) for lb in (lc, ld))
             for wi, lc, ld in zip(w.tolist(), *(b.tolist() for b in povm._log_bases(params, m)))]
    peak = max(terms)
    want = peak + math.log(math.fsum(math.exp(t - peak) for t in terms))
    assert log_p == pytest.approx(want, abs=1e-6)
    assert post is not None and post.is_normalized()
    assert povm.condition_many(params, [n], [n], state)[0][0] == pytest.approx(want, abs=1e-6)


def test_condition_keeps_a_weight_too_small_for_a_double():
    # |psi|^2 = 1e-340 at m = 0 underflows to 0, but the envelope there lies
    # e^971 above the one at m = 1, so m = 0 carries the outcome: each term
    # is shifted by the peak of 2 E + ln w, not of E alone
    amps = np.zeros(11, dtype=complex)
    amps[6], amps[5] = 1.0, 1e-170        # m = 1 and m = 0 of 2J = 10
    state = CollectiveState(10, amps)
    outcome = PhotonOutcome(26, 25)
    log_c, log_e, _ = povm.eigen(P_SYM, outcome, [0.0, 1.0])
    alone = 2.0 * (log_c + log_e[1])
    assert alone == pytest.approx(-1947.05, abs=0.01)
    tiny = 2.0 * (log_c + log_e[0]) + 2.0 * math.log(1e-170)
    want = tiny + math.log1p(math.exp(alone - tiny))
    assert want == pytest.approx(-787.98, abs=0.01)
    log_p, post = condition(P_SYM, outcome, state)
    assert log_p == pytest.approx(want, rel=1e-14)
    assert abs(post.amps[5]) == pytest.approx(1.0, rel=1e-14)
    many = povm.condition_many(P_SYM, [26], [25], state)
    assert many[0][0] == pytest.approx(want, rel=1e-14)
    assert abs(many[1][0]) < 1e-300 and abs(many[2][0]) < 1e-300
    # the state without the tiny amplitude gives the m = 1 term alone
    assert condition(P_SYM, outcome, dicke_state(5, 1))[0] == pytest.approx(alone, rel=1e-14)


def test_eigen_unchanged_on_a_grid():
    # the envelope as it was assembled inline, before the batch helper
    m = np.arange(-50, 51) / 2.0
    lc, ld = povm._log_bases(P_REF, m)
    for nc, nd in ((25, 26), (0, 0), (300, 0), (0, 7)):
        log_c, log_e, _ = povm.eigen(P_REF, PhotonOutcome(nc, nd), m)
        s = P_REF.photon_mean
        assert log_c == -s / 2.0 + 0.5 * (nc + nd) * math.log(s / 2.0)
        want = 0.5 * nc * lc + 0.5 * nd * ld - 0.5 * (
            povm.log_factorial(nc) + povm.log_factorial(nd))
        want[want < povm._LOG_ZERO / 4] = -math.inf
        assert np.array_equal(log_e, want)
    # a batch row is bitwise the single-outcome envelope
    batch_c, batch_e = povm._envelope(P_REF, [25, 300], [26, 0], m)
    for row, (nc, nd) in enumerate(((25, 26), (300, 0))):
        log_c, log_e, _ = povm.eigen(P_REF, PhotonOutcome(nc, nd), m)
        assert batch_c[row] == log_c and np.array_equal(batch_e[row], log_e)


def test_peak_condition_across_outcomes():
    # grid argmax of the envelope obeys the peak condition within half a step
    for (nc, nd) in ((25, 25), (20, 31), (35, 16)):
        o = PhotonOutcome(nc, nd)
        vals = [amplitude(P_REF, o, int(m)) for m in range(-50, 51)]
        m_star = int(np.argmax(vals)) - 50
        lhs = P_REF.cos_2eta * math.sin(P_REF.gt * m_star + P_REF.phi_chigamma)
        lhs_lo = P_REF.cos_2eta * math.sin(P_REF.gt * (m_star - 0.5))
        lhs_hi = P_REF.cos_2eta * math.sin(P_REF.gt * (m_star + 0.5))
        assert min(lhs_lo, lhs_hi) - 1e-12 <= o.r <= max(lhs_lo, lhs_hi) + 1e-12
        assert abs(lhs - o.r) <= abs(lhs_hi - lhs_lo)


def test_distribution_three_lobes_long_time():
    # long interaction on an equatorial state: outcomes bunch at the two
    # axes and at equal counts, with little mass in between
    p = QndParams(gamma=5.05, chi=5.0, gt=math.pi / 2.0)
    st = coherent_state(10, math.pi / 2.0)
    dist = outcome_distribution(p, st, 1e-8)

    def mass(pred):
        return sum(pp for o, pp in dist.entries if o.total > 0 and pred(o))

    assert mass(lambda o: o.r <= -0.8) > 0.2
    assert mass(lambda o: o.r >= 0.8) > 0.2
    assert mass(lambda o: abs(o.r) <= 0.2) > 0.2
    assert mass(lambda o: 0.3 <= abs(o.r) <= 0.7) < 0.05


# ------------------------------------- state-level operator vs the oracles
# The state-level functions read one kernel; here they are checked against
# amplitudes built from the direct form and against the Poisson mixture
# P(n_c, n_d) = sum_m |psi_m|^2 Pois(n_c; lam_c(m)) Pois(n_d; lam_d(m)).

def direct_log_eigenvalues(params, outcome, m_values):
    pairs = [log_matrix_element_direct(params, outcome, m) for m in m_values]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def log_poisson_mixture(params, outcome, state):
    """ln P(outcome) from the port intensities of the interfered beams."""
    m = state.m_values()
    rot = np.exp(-0.5j * params.gt * m)
    lam_c = np.abs(params.gamma * rot + 1j * params.chi / rot) ** 2 / 2.0
    lam_d = np.abs(1j * params.gamma * rot + params.chi / rot) ** 2 / 2.0
    terms = np.log(np.abs(state.amps) ** 2)
    for n, lam in ((outcome.n_c, lam_c), (outcome.n_d, lam_d)):
        terms = terms - lam - math.lgamma(n + 1) + (n * np.log(lam) if n else 0.0)
    top = float(np.max(terms))
    return top + math.log(float(np.sum(np.exp(terms - top))))


ORACLE_PARAMS = (P_REF, QndParams(gamma=2.0 + 1.0j, chi=1.5 - 0.7j, gt=0.37))
# the last outcome lies deep in the tail: ln P is -70 and -176 on the two
# parameter sets
ORACLE_OUTCOMES = (PhotonOutcome(25, 26), PhotonOutcome(30, 18),
                   PhotonOutcome(0, 7), PhotonOutcome(4, 1), PhotonOutcome(2, 95))


@pytest.mark.parametrize("params", ORACLE_PARAMS)
@pytest.mark.parametrize("out", ORACLE_OUTCOMES)
def test_state_operator_against_direct_form(params, out):
    st = _half_spin_state()
    psi = st.amps
    logmag, phase = direct_log_eigenvalues(params, out, st.m_values())

    got = apply(params, out, st).amps
    want = psi * np.exp(logmag + 1j * phase)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    got = posterior(params, out, st).amps
    want = psi * np.exp(logmag - np.max(logmag) + 1j * phase)
    want /= np.linalg.norm(want)
    assert np.max(np.abs(got - want)) <= 1e-12

    if out.n_c >= 1 and out.n_d >= 1 and abs(out.r) < params.cos_2eta:
        approx = approx_apply(params, out, st).amps
        seen = np.abs(approx) > 0.0
        assert np.count_nonzero(seen) >= 5
        dphi = np.angle(approx[seen] / psi[seen]) - phase[seen]
        assert np.max(np.abs(wrapped(dphi))) <= 1e-12


@pytest.mark.parametrize("params", ORACLE_PARAMS)
@pytest.mark.parametrize("out", ORACLE_OUTCOMES)
def test_probability_against_poisson_mixture(params, out):
    st = _half_spin_state()
    want = log_poisson_mixture(params, out, st)
    log_prob, post = condition(params, out, st)
    assert post is not None
    assert abs(log_prob - want) <= 1e-12 * max(1.0, abs(want))
    got = outcome_probability(params, out, st)
    assert abs(got - math.exp(want)) <= 1e-12 * math.exp(want)
