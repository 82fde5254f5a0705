import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnd_povm.approx import (approx_apply, gaussian_amplitude,
                             gaussian_model, peak_solutions, project,
                             projective_params, round_to_sector_parity)
from qnd_povm.errors import (DomainError, PreconditionError,
                             ZeroProjectionError)
from qnd_povm.povm import PhotonOutcome, QndParams, amplitude, posterior
from qnd_povm.spin_state import (CollectiveState, coherent_state,
                                 dicke_state, normalize, overlap)
from qnd_povm.validate import check_gaussian_width

P_REF = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 100.0)


# -------------------------------------------------------------- Gaussian model

def test_model_symmetric_counts_variance():
    # equal counts with symmetric light: sigma^2 = 1/(gt^2 n)
    p = QndParams(gamma=5.0, chi=5.0, gt=math.pi / 100.0)
    for n in (5, 25, 100):
        model = gaussian_model(p, PhotonOutcome(n, n))
        want = 1.0 / (p.gt**2 * n)
        assert model.sigma2 == pytest.approx(want, rel=1e-12)
        assert model.m0 == 0.0


def test_model_peak_position_formula():
    o = PhotonOutcome(20, 31)
    model = gaussian_model(P_REF, o)
    want = math.asin(o.r / P_REF.cos_2eta) / P_REF.gt
    assert model.m0 == pytest.approx(want, rel=1e-14)


def test_model_width_scales_with_ensemble_size():
    # at the equivalent time gt = pi/N the width grows linearly with N
    m50 = gaussian_model(QndParams(gamma=5.1, chi=5.0, gt=math.pi / 50.0),
                         PhotonOutcome(25, 25))
    m200 = gaussian_model(QndParams(gamma=5.1, chi=5.0, gt=math.pi / 200.0),
                          PhotonOutcome(25, 25))
    assert m200.sigma2 / m50.sigma2 == pytest.approx((200.0 / 50.0) ** 2, rel=1e-12)


def test_model_domain_errors():
    with pytest.raises(DomainError):
        gaussian_model(P_REF, PhotonOutcome(0, 10))
    with pytest.raises(DomainError):
        gaussian_model(P_REF, PhotonOutcome(10, 0))
    with pytest.raises(DomainError):
        # strongly asymmetric light: r = 0.98 exceeds cos(2 eta) = 15/17
        gaussian_model(QndParams(gamma=3.0, chi=5.0, gt=math.pi / 100.0),
                       PhotonOutcome(1, 99))
    with pytest.raises(DomainError):
        gaussian_model(QndParams(gamma=5.1, chi=5.0, gt=0.0), PhotonOutcome(5, 5))


def test_gaussian_amplitude_shape():
    model = gaussian_model(P_REF, PhotonOutcome(25, 25))
    peak = gaussian_amplitude(model, model.m0)
    sig = math.sqrt(model.sigma2)
    assert gaussian_amplitude(model, model.m0 + sig) / peak == pytest.approx(
        math.exp(-0.5), rel=1e-12)
    grid = [gaussian_amplitude(model, m) for m in range(-50, 51)]
    assert max(grid) <= peak + 1e-15


def test_gaussian_amplitude_tracks_exact_envelope():
    # measured against the exact envelope: mismatch below 1 percent within
    # one width of the peak and below 7 percent out to two widths
    o = PhotonOutcome(25, 25)
    model = gaussian_model(P_REF, o)
    sig = math.sqrt(model.sigma2)
    for m in np.linspace(model.m0 - sig, model.m0 + sig, 21):
        exact = amplitude(P_REF, o, float(m))
        assert abs(gaussian_amplitude(model, float(m)) - exact) / exact < 0.01
    for m in np.linspace(model.m0 - 2 * sig, model.m0 + 2 * sig, 41):
        exact = amplitude(P_REF, o, float(m))
        assert abs(gaussian_amplitude(model, float(m)) - exact) / exact < 0.07


def test_model_width_matches_log_curvature():
    check = check_gaussian_width(P_REF, PhotonOutcome(25, 25))
    assert check.passed, check.detail


# -------------------------------------------------------------- peak solutions

def test_peak_solutions_single_branch():
    sols = peak_solutions(P_REF, PhotonOutcome(25, 25), 50)
    assert len(sols) == 1
    assert abs(sols[0]) < 1e-12


def test_peak_solutions_multiple_branches():
    p4 = QndParams(gamma=5.1, chi=5.0, gt=4.0 * math.pi / 100.0)
    sols = peak_solutions(p4, PhotonOutcome(25, 25), 50)
    assert len(sols) == 5
    for s in sols:
        resid = p4.cos_2eta * math.sin(p4.gt * s) - 0.0
        assert abs(resid) < 1e-12


def test_peak_solutions_sine_zeros():
    p = QndParams(gamma=5.0, chi=5.0, gt=math.pi / 10.0)
    sols = peak_solutions(p, PhotonOutcome(10, 10), 50)
    want = [k * math.pi / p.gt for k in range(-5, 6)]
    assert np.allclose(sols, want, atol=1e-9)


def test_peak_solutions_out_of_reach():
    assert peak_solutions(P_REF, PhotonOutcome(0, 60), 50) == []
    # no interaction, no peak: the envelope is flat in m_z
    assert peak_solutions(QndParams(5.0, 5.0, 0.0), PhotonOutcome(25, 25), 50) == []
    with pytest.raises(PreconditionError):
        peak_solutions(P_REF, PhotonOutcome(0, 0), 50)


@pytest.mark.parametrize("gt", [math.pi / 10.0, 4.0 * math.pi / 10.0])
@pytest.mark.parametrize("J", [5, 50])
def test_peak_solutions_at_negative_gt_mirror_positive_gt(gt, J):
    # with real light the envelope at -gt is the one at gt mirrored in m
    outcome = PhotonOutcome(20, 30)
    plus = peak_solutions(QndParams(gamma=5.1, chi=5.0, gt=gt), outcome, J)
    minus = peak_solutions(QndParams(gamma=5.1, chi=5.0, gt=-gt), outcome, J)
    assert plus and len(minus) == len(plus)
    assert np.allclose(minus, [-m for m in reversed(plus)], rtol=0, atol=1e-12)


# ------------------------------------------------------------- envelope action

def test_approx_apply_high_fidelity_at_short_time():
    state = coherent_state(100, math.pi / 2.0)
    o = PhotonOutcome(25, 25)
    exact = posterior(P_REF, o, state)
    approx = normalize(approx_apply(P_REF, o, state))
    assert abs(overlap(exact, approx)) ** 2 > 0.99


def test_approx_apply_dicke_stays_dicke():
    st = dicke_state(20, 4)
    out = approx_apply(P_REF, PhotonOutcome(25, 25), st)
    nz = np.flatnonzero(np.abs(out.amps))
    assert list(nz) == [st.index_of(4)]


def test_approx_apply_degrades_monotonically():
    state = coherent_state(100, math.pi / 2.0)
    o = PhotonOutcome(25, 25)
    infid = []
    for div in (400, 200, 100, 50, 25, 10):
        p = QndParams(gamma=5.1, chi=5.0, gt=math.pi / div)
        exact = posterior(p, o, state)
        approx = normalize(approx_apply(p, o, state))
        infid.append(1.0 - abs(overlap(exact, approx)) ** 2)
    assert all(a < b for a, b in zip(infid, infid[1:]))


# ---------------------------------------------------------- projective limit

def test_projective_params_structure():
    o = PhotonOutcome(20, 31)
    pp = projective_params(P_REF, o)
    assert pp.u == o.u and pp.v == o.v
    assert pp.xi_plus == pytest.approx(1.0 - pp.xi_c - pp.xi_d, rel=1e-14)
    assert pp.xi_minus == pytest.approx(pp.xi_d - pp.xi_c, abs=1e-14)
    assert pp.u**2 > pp.v**2


def test_projective_params_symmetric_light():
    p0 = QndParams(gamma=5.0, chi=5.0, gt=math.pi / 100.0)
    pp = projective_params(p0, PhotonOutcome(25, 26))
    assert pp.xi_c == 0.0
    assert pp.xi_d == 0.0  # continuous limit for a peak away from phi = 0


def test_projective_params_small_eta_against_high_precision():
    # eta ~ 1e-8: the rearranged slope formula must match an extended
    # precision evaluation of the same closed form
    with mp.workdps(50):
        chi = 5.0 * (1.0 + 2.0e-8)
        p = QndParams(gamma=5.0, chi=chi, gt=math.pi / 100.0)
        o = PhotonOutcome(25, 26)
        pp = projective_params(p, o)
        eta = mp.atan((mp.mpf(chi) - 5) / (mp.mpf(chi) + 5))
        m0 = mp.asin(mp.mpf(o.r) / mp.cos(2 * eta)) / mp.mpf(p.gt)
        phi0 = mp.mpf(p.gt) * m0 / 2 + mp.pi / 4
        te = mp.tan(eta)
        want_c = te / (2 * (mp.cos(phi0) ** 2 + te**2 * mp.sin(phi0) ** 2))
        want_d = te / (2 * (mp.sin(phi0) ** 2 + te**2 * mp.cos(phi0) ** 2))
        assert abs(pp.xi_c - float(want_c)) < 1e-20
        assert abs(pp.xi_d - float(want_d)) < 1e-20


def test_round_to_sector_parity():
    # integer sector
    assert round_to_sector_parity(0.2, 4) == 0
    assert round_to_sector_parity(1.6, 4) == 4
    assert round_to_sector_parity(0.5, 4) == 0      # tie toward zero
    assert round_to_sector_parity(-0.5, 4) == 0
    assert round_to_sector_parity(2.5, 4) == 4      # tie, smaller magnitude
    # half-integer sector rounds onto the half-integer lattice
    assert round_to_sector_parity(0.2, 5) == 1      # m = 1/2
    assert round_to_sector_parity(0.0, 5) == -1     # tie -1/2 vs 1/2 -> equal |.|
    assert round_to_sector_parity(0.9, 5) == 1
    assert round_to_sector_parity(1.3, 5) == 3


@settings(max_examples=80)
@given(st.floats(min_value=-20.0, max_value=20.0),
       st.integers(min_value=0, max_value=15))
def test_round_to_sector_parity_oracle(m0, two_j):
    # enumeration oracle: nearest lattice point, ties toward zero
    lattice = [t for t in range(-60, 61) if (t - two_j) % 2 == 0]
    best = min(lattice, key=lambda t: (abs(2.0 * m0 - t), abs(t)))
    assert round_to_sector_parity(m0, two_j) == best


def test_project_dicke_idempotent():
    st = dicke_state(5, 2)
    amp, out = project(P_REF, st, 25.0, 2.0)
    assert abs(overlap(st, out)) ** 2 == pytest.approx(1.0, abs=1e-14)
    amp2, out2 = project(P_REF, out, 25.0, 2.0)
    assert abs(overlap(out, out2)) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_project_coherent_to_dicke():
    st = coherent_state(100, math.pi / 2.0)
    s = P_REF.photon_mean
    amp, out = project(P_REF, st, s / 2.0, 0.0)
    want = dicke_state(50, 0)
    assert abs(overlap(want, out)) ** 2 == pytest.approx(1.0, abs=1e-14)
    # classical factor at the distribution center: (pi u)^(-1/4)
    assert amp == pytest.approx((math.pi * s / 2.0) ** -0.25, rel=1e-12)


def test_project_amplitude_where_its_square_overflows():
    # at gamma = chi = 1e78, s = 2e156 and (u - s/2)^2 overflows: the
    # amplitude is the limit of exp(-x), 0, and the collapse still happens
    p = QndParams(gamma=1e78, chi=1e78, gt=math.pi / 10.0)
    st = dicke_state(5, 2)
    amp, out = project(p, st, 2.5, 2.0)
    assert amp == 0.0
    assert abs(overlap(st, out)) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_project_zero_support():
    st = dicke_state(5, 2)
    with pytest.raises(ZeroProjectionError):
        project(P_REF, st, 25.0, -1.0)  # collapse point away from support
    with pytest.raises(DomainError):
        project(P_REF, st, 0.0, 2.0)


def test_project_refuses_an_unnormalized_state():
    with pytest.raises(PreconditionError, match="^project needs a normalized state$"):
        project(P_REF, CollectiveState(2, [1.0, 1.0, 0.0]), 25.0, 0.0)


@pytest.mark.parametrize("u, m0", [(math.nan, 0.0), (math.inf, 0.0), (25.0, math.nan),
                                   (25.0, math.inf), (25.0, -math.inf)])
def test_project_refuses_a_non_finite_u_or_m0(u, m0):
    with pytest.raises(DomainError, match="finite"):
        project(P_REF, dicke_state(5, 2), u, m0)


@pytest.mark.parametrize("m0", [1e308, -1.7976931348623157e308])
def test_project_refuses_a_huge_m0_as_off_the_lattice(m0):
    # 2 m0 overflows to inf here, which round_to_sector_parity cannot floor
    with pytest.raises(ZeroProjectionError):
        project(P_REF, dicke_state(5, 2), 25.0, m0)


@pytest.mark.parametrize("two_j", range(7))
def test_project_collapses_where_the_nearest_lattice_point_is(two_j):
    # every m0 from |m0| = J + 1 on is off the lattice, as project assumes
    state = normalize(CollectiveState(two_j, np.ones(two_j + 1)))
    for m0 in np.linspace(-two_j - 3.0, two_j + 3.0, 241).tolist():
        tm = round_to_sector_parity(m0, two_j)
        if abs(tm) > two_j:
            with pytest.raises(ZeroProjectionError):
                project(P_REF, state, 25.0, m0)
        else:
            _, out = project(P_REF, state, 25.0, m0)
            assert np.flatnonzero(out.amps).tolist() == [(tm + two_j) // 2]


def test_project_half_integer_parity_rounding():
    # integer and half-integer spins collapse to their own lattice points:
    # m0 = 0.7 rounds to m = 1 at 2J = 4 and to m = 1/2 at 2J = 5
    for two_j, m in ((4, 1), (5, 0.5)):
        stt = normalize(CollectiveState(two_j, np.ones(two_j + 1)))
        _, out = project(P_REF, stt, 25.0, 0.7)
        assert np.flatnonzero(out.amps).tolist() == [stt.index_of(m)]
        assert abs(out.squared_norm() - 1.0) < 1e-12


def test_projector_weights_reproduce_unity():
    # classical weight times collapse-cell tiling integrates to one in the
    # many-photon regime; the leading correction is 3/(8 S)
    s_mean = 5.0e5
    p = QndParams(gamma=math.sqrt(s_mean / 2.0), chi=math.sqrt(s_mean / 2.0),
                  gt=1e-3)
    rng = np.random.default_rng(8)
    # a half-integer spin: the collapse cells sit at m = +-1/2, +-3/2, +-5/2
    state = normalize(CollectiveState(5, rng.normal(size=6) + 1j * rng.normal(size=6)))

    u0 = s_mean / 2.0
    su = math.sqrt(s_mean) / 2.0
    nu = 4000
    us = np.linspace(u0 - 8.0 * su, u0 + 8.0 * su, nu + 1)
    us = 0.5 * (us[1:] + us[:-1])  # midpoint rule
    du = (16.0 * su) / nu
    u_quad = 0.0
    for u in us:
        amp, _ = project(p, state, float(u), 0.0)
        u_quad += amp * amp * du

    h = 0.125  # eight midpoints per half-unit collapse cell, never on an edge
    m0s = np.arange(-3.0 + h / 2.0, 3.0, h)
    m_quad = 0.0
    for m0 in m0s:
        t = round_to_sector_parity(float(m0), state.two_j)
        if abs(t) <= state.two_j:
            m_quad += abs(state.amps[(t + state.two_j) // 2]) ** 2 * h
    total = u_quad * m_quad
    assert abs(m_quad - 1.0) < 1e-12
    assert abs(total - 1.0) < 1e-6


def test_grid_argmax_tracks_model_peak():
    # for gt <= pi/N and moderate asymmetry the exact-envelope argmax sits
    # within one grid unit of the Gaussian peak position
    j = 50
    for (nc, nd) in ((25, 25), (20, 30), (30, 22), (18, 32)):
        o = PhotonOutcome(nc, nd)
        if abs(o.r) > 0.5 * P_REF.cos_2eta:
            continue
        model = gaussian_model(P_REF, o)
        vals = [amplitude(P_REF, o, m) for m in range(-j, j + 1)]
        m_star = int(np.argmax(vals)) - j
        assert abs(m_star - model.m0) <= 1.0
