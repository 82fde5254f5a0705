"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import cmath
import math
import time

import numpy as np

from qnd_povm.analysis import (cat_fidelity, density_from_state,
                               parity_pattern_check, squeezing_report, wigner)
from qnd_povm.approx import approx_apply
from qnd_povm.povm import (PhotonOutcome, QndParams, log_amplitude,
                           outcome_distribution, posterior)
from qnd_povm.spin_state import coherent_state, dicke_state, normalize, overlap
from qnd_povm.validate import (check_composition, check_dicke_invariance, check_dual_form,
                               check_gaussian_width, check_photon_conservation,
                               check_table_against_conditioner, check_unity,
                               check_wigner_covariance)

P100 = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 100.0)


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_unity_decomposition():
    t0 = time.monotonic()
    params = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 20.0)
    check = check_unity(np.random.default_rng(2024), params, (20,) * 10)
    elapsed = time.monotonic() - t0
    _report(1, check.name, check.passed and elapsed < 30.0,
            f"{check.detail}, {elapsed:.1f} s")


def test_criterion_02_dicke_invariance():
    check = check_dicke_invariance(P100, 50, range(-50, 51))
    _report(2, check.name, check.passed, check.detail)


def test_criterion_03_photon_conservation():
    params = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 30.0)
    check = check_photon_conservation(np.random.default_rng(77), params, (6, 11, 16, 21, 40))
    _report(3, check.name, check.passed, check.detail)


def test_criterion_04_peak_position_law():
    worst_step = 0.0
    axis_ok = True
    for m in (-50, -25, 0, 25, 50):
        st = dicke_state(50, m)
        dist = outcome_distribution(P100, st, 1e-8)
        best = max(dist.entries, key=lambda e: e[1])[0]
        target = P100.cos_2eta * math.sin(P100.gt * m + P100.phi_chigamma)
        # one grid step along the difference axis changes n_d - n_c by two
        step = abs((best.n_d - best.n_c) - best.total * target) / 2.0
        worst_step = max(worst_step, step)
        if m == -50:
            axis_ok &= best.n_d <= 1
            axis_mass = sum(p for o, p in dist.entries if o.n_d <= 1)
            axis_ok &= axis_mass > 0.5
        if m == 50:
            axis_ok &= best.n_c <= 1
            axis_mass = sum(p for o, p in dist.entries if o.n_c <= 1)
            axis_ok &= axis_mass > 0.5
    ok = worst_step <= 1.0 and axis_ok
    _report(4, "peak-position law", ok,
            f"worst offset {worst_step:.3f} grid steps, edge mass on axes: {axis_ok}")


def test_criterion_05_gaussian_approximation():
    state = coherent_state(100, math.pi / 2.0)
    out = PhotonOutcome(25, 25)
    exact = posterior(P100, out, state)
    approx = normalize(approx_apply(P100, out, state))
    fid = abs(overlap(exact, approx)) ** 2
    width = check_gaussian_width(P100, out)
    _report(5, "Gaussian approximation", fid >= 0.99 and width.passed,
            f"posterior fidelity {fid:.6f}, width mismatch {width.value:.4f}")


def test_criterion_06_equivalent_time_scaling():
    out = PhotonOutcome(25, 25)
    curves = {}
    for n in (50, 100, 200):
        params = QndParams(gamma=5.1, chi=5.0, gt=math.pi / n)
        j = n // 2
        vals = np.array([math.exp(log_amplitude(params, out, m))
                         for m in range(-j, j + 1)])
        vals = vals / vals.max()
        curves[n] = {m / j: v for m, v in zip(range(-j, j + 1), vals)}
    worst = 0.0
    for k in range(-25, 26):
        x = k / 25.0
        vals = [curves[50][x], curves[100][x], curves[200][x]]
        worst = max(worst, max(vals) - min(vals))
    ok = worst < 1e-3
    _report(6, "equivalent-time scaling", ok, f"worst spread {worst:.2e}")


def test_criterion_07_squeezing():
    state = coherent_state(100, math.pi / 2.0)
    dist = outcome_distribution(P100, state, 1e-8)
    modal = max(((o, p) for o, p in dist.entries if o.n_c == o.n_d),
                key=lambda e: e[1])[0]
    ratios = []
    for div in (400, 200, 100):
        params = QndParams(gamma=5.1, chi=5.0, gt=math.pi / div)
        d = outcome_distribution(params, state, 1e-8)
        m = max(((o, p) for o, p in d.entries if o.n_c == o.n_d),
                key=lambda e: e[1])[0]
        rep = squeezing_report(state, posterior(params, m, state))
        ratios.append(rep.ratio)
    ok = ratios[2] < 1.0 and ratios[0] > ratios[1] > ratios[2]
    _report(7, "measurement-induced squeezing", ok,
            f"modal outcome {modal.n_c}={modal.n_d}, ratios {np.round(ratios, 4)}")


def test_criterion_08_cat_state():
    t0 = time.monotonic()
    params = QndParams(gamma=5.0, chi=5.0, gt=math.pi / 2.0)
    state = coherent_state(10, math.pi / 2.0)
    post = posterior(params, PhotonOutcome(26, 26), state)
    fid = cat_fidelity(post, 10)
    wg = wigner(density_from_state(post), n_theta=61, n_phi=121)
    elapsed = time.monotonic() - t0
    ok = abs(fid - 1.0) <= 1e-10 and wg.values.min() < 0.0 and elapsed < 10.0
    _report(8, "cat-state generation", ok,
            f"fidelity err {abs(fid - 1.0):.2e}, Wigner min {wg.values.min():.3f}, "
            f"{elapsed:.1f} s")


def test_criterion_09_parity_cases():
    params = QndParams(gamma=5.0, chi=5.0, gt=math.pi / 2.0)
    n_atoms = 10
    checks = []

    pat = parity_pattern_check(params, PhotonOutcome(26, 26), n_atoms)
    want = -0.5 * (math.lgamma(27.0) + math.lgamma(27.0))
    checks.append(abs(pat.log_on_support - want) < 1e-10)
    checks.append(pat.max_off_support_ratio < 1e-12)  # exact structural zeros

    for outcome, n in ((PhotonOutcome(0, 51), 51), (PhotonOutcome(51, 0), 51)):
        pat = parity_pattern_check(params, outcome, n_atoms)
        want = 0.5 * n * math.log(2.0) - 0.5 * math.lgamma(n + 1.0)
        checks.append(abs(pat.log_on_support - want) < 1e-10)
        # absolute off-support amplitude: peak * ratio
        checks.append(math.exp(pat.log_on_support) * pat.max_off_support_ratio
                      < 1e-12)
        # the opposite odd lattice carries exact zeros
        off_m = [m for m in range(-n_atoms // 2, n_atoms // 2 + 1)
                 if m % 2 != 0 and m not in pat.support]
        worst = max(math.exp(log_amplitude(params, outcome, m) -
                             pat.log_on_support) for m in off_m)
        checks.append(worst < 1e-12)
    ok = all(checks)
    _report(9, "long-time parity cases", ok, f"{sum(checks)}/{len(checks)} checks")


def test_criterion_10_dual_form_oracle():
    check = check_dual_form(np.random.default_rng(424242), draws=1000, two_m_cap=120)
    _report(10, "dual-form oracle", check.passed, check.detail)


def test_criterion_11_composition_law():
    # two bright readouts of an N = 200 coherent state, with counts in the
    # hundreds and in the thousands, commute in ln P and in the posterior
    t0 = time.monotonic()
    params = QndParams(gamma=30.0, chi=30.0 * cmath.exp(0.7j), gt=math.pi / 200.0)
    state = coherent_state(200, 1.3)
    checks = [check_composition(params, state, first, second) for first, second in
              (((880, 900), (950, 850)), ((2500, 2400), (2400, 2500)))]
    elapsed = time.monotonic() - t0
    _report(11, checks[0].name, all(c.passed for c in checks) and elapsed < 10.0,
            f"{'; '.join(c.detail for c in checks)}, {elapsed:.1f} s")


def test_criterion_12_table_against_conditioner():
    # the 1.07M-row table of an N = 200 coherent state at a mean of 1800
    # photons: 20000 rows drawn from it, with counts in the thousands, are
    # the conditioner's P of the same outcomes
    t0 = time.monotonic()
    params = QndParams(gamma=30.0, chi=30.0 * cmath.exp(0.7j), gt=math.pi / 200.0)
    check = check_table_against_conditioner(params, coherent_state(200, 1.3), 1e-9,
                                            np.random.default_rng(2612), 20000)
    elapsed = time.monotonic() - t0
    _report(12, check.name, check.passed and elapsed < 10.0,
            f"{check.detail}, {elapsed:.1f} s")


def test_criterion_13_wigner_covariance():
    # the turned coherent map at N = 200, the largest size the Wigner map
    # claims, read against the Dicke map's M = 0 path at two polar angles
    t0 = time.monotonic()
    checks = [check_wigner_covariance(200, k) for k in (41, 77)]
    elapsed = time.monotonic() - t0
    _report(13, "Wigner rotation covariance at N=200",
            all(c.passed for c in checks) and elapsed < 10.0,
            f"{', '.join(c.detail for c in checks)}, {elapsed:.1f} s")
