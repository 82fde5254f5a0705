"""Self-contained invariant suite behind the ``validate`` subcommand.

Each check returns (name, passed, detail).  Deterministic for a given seed.
"""

from __future__ import annotations

import math

import numpy as np

from .approx import gaussian_model
from .numerics import clebsch_gordan, legendre_norm_table
from .povm import (PhotonOutcome, QndParams, condition, log_amplitude,
                   log_matrix_element, log_matrix_element_direct,
                   outcome_distribution)
from .spin_state import (CollectiveState, Sector, dicke_state, normalize,
                         overlap)


def _random_state(rng, two_j: int) -> CollectiveState:
    a = rng.normal(size=two_j + 1) + 1j * rng.normal(size=two_j + 1)
    return normalize(CollectiveState((Sector(two_j, a),), norm_hint=1.0))


def check_dual_form(seed: int):
    rng = np.random.default_rng(seed)
    worst = 0.0
    draws = 0
    while draws < 200:
        g = rng.uniform(0.3, 6.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        c = rng.uniform(0.3, 6.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        params = QndParams(gamma=complex(g), chi=complex(c),
                           gt=rng.uniform(0.01, 3.0))
        m = rng.integers(-40, 41) / 2.0
        nc = int(rng.integers(0, 31))
        nd = int(rng.integers(0, 31))
        out = PhotonOutcome(nc, nd)
        la = log_amplitude(params, out, m)
        # skip draws pinned to a structural zero where phases are undefined
        if la < -200.0 + 0.5 * out.total * math.log(2.0):
            continue
        draws += 1
        lm_s, ph_s = log_matrix_element(params, out, m)
        lm_d, ph_d = log_matrix_element_direct(params, out, m)
        dphi = abs((ph_s - ph_d + math.pi) % (2.0 * math.pi) - math.pi)
        worst = max(worst, abs(lm_s - lm_d), dphi)
    return "dual-form agreement", worst < 1e-9, f"worst deviation {worst:.2e}"


def check_unity(seed: int):
    rng = np.random.default_rng(seed + 1)
    params = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 12.0)
    worst = 1.0
    for _ in range(3):
        state = _random_state(rng, 12)
        dist = outcome_distribution(params, state, 1e-9)
        worst = min(worst, dist.captured_mass)
    return "unity decomposition", worst >= 1.0 - 1e-8, f"min mass {worst!r}"


def check_photon_conservation(seed: int):
    rng = np.random.default_rng(seed + 2)
    params = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 20.0)
    worst = 0.0
    for _ in range(2):
        state = _random_state(rng, 16)
        dist = outcome_distribution(params, state, 1e-10)
        rel = abs(dist.mean_total() - params.photon_mean) / params.photon_mean
        worst = max(worst, rel)
    return "photon conservation", worst < 1e-6, f"worst rel err {worst:.2e}"


def check_dicke_invariance(seed: int):
    params = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 40.0)
    out = PhotonOutcome(26, 25)
    worst = 1.0
    for m in (-20, -7, 0, 13, 20):
        st = dicke_state(20, m)
        post = condition(params, out, st)[1]
        if post is None:
            continue
        fid = abs(overlap(st, post)) ** 2
        worst = min(worst, fid)
    return "Dicke invariance", worst >= 1.0 - 1e-12, f"min fidelity {worst!r}"


def check_cg_orthogonality(seed: int):
    worst = 0.0
    for tj1, tj2 in ((2, 2), (3, 2), (4, 4)):
        for tL in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            for tLp in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tM in range(-tL, tL + 1, 2):
                    if abs(tM) > tLp:
                        continue
                    acc = 0.0
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = tM - tm1
                        if abs(tm2) > tj2:
                            continue
                        a = clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2,
                                           tL / 2, tM / 2)
                        b = clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2,
                                           tLp / 2, tM / 2)
                        acc += a * b
                    want = 1.0 if tL == tLp else 0.0
                    worst = max(worst, abs(acc - want))
    return "CG orthogonality", worst < 1e-10, f"worst deviation {worst:.2e}"


def check_harmonic_orthonormality(seed: int):
    lmax = 6
    x, wq = np.polynomial.legendre.leggauss(2 * lmax + 2)
    worst = 0.0
    for m in range(0, lmax + 1):
        rows = legendre_norm_table(lmax, m, x)
        gram = (rows * wq) @ rows.T * (2.0 * math.pi)
        want = np.eye(rows.shape[0])
        worst = max(worst, float(np.max(np.abs(gram - want))))
    return "spherical-harmonic orthonormality", worst < 1e-8, \
        f"worst deviation {worst:.2e}"


def check_gaussian_width(seed: int):
    params = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 100.0)
    out = PhotonOutcome(25, 25)
    model = gaussian_model(params, out)
    m0 = model.m0
    h = 1.0
    f = lambda m: log_amplitude(params, out, m)
    curv = (f(m0 + h) - 2.0 * f(m0) + f(m0 - h)) / h**2
    sigma2_fd = -1.0 / curv
    rel = abs(sigma2_fd - model.sigma2) / model.sigma2
    return "Gaussian width vs log-curvature", rel < 0.05, f"rel err {rel:.3f}"


def run_all(seed: int = 20260810):
    checks = (
        check_dual_form,
        check_unity,
        check_photon_conservation,
        check_dicke_invariance,
        check_cg_orthogonality,
        check_harmonic_orthonormality,
        check_gaussian_width,
    )
    return [c(seed) for c in checks]
