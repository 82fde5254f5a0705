"""Invariants behind the ``validate`` subcommand and the acceptance tests.

Each check takes the sizes it runs at as arguments and returns a `Check`.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from .analysis import DensityMatrix
from .approx import gaussian_model
from .numerics import clebsch_gordan, legendre_norm_table
from .povm import (PhotonOutcome, QndParams, condition, log_amplitude,
                   log_matrix_element, log_matrix_element_direct,
                   outcome_distribution)
from .spin_state import CollectiveState, dicke_state, normalize, overlap


# one invariant's verdict; `value` is the figure its detail reports
Check = namedtuple("Check", "name passed detail value")


def random_state(rng, two_j: int) -> CollectiveState:
    """A normalized state of 2J = `two_j` with complex Gaussian amplitudes."""
    a = rng.normal(size=two_j + 1) + 1j * rng.normal(size=two_j + 1)
    return normalize(CollectiveState(two_j, a))


def check_dual_form(rng, draws=200, total_cap=60, two_m_cap=40) -> Check:
    """The spectral and direct forms agree to 1e-10 over `draws` random draws.

    A draw whose envelope bases come within 1e-3 of a structural zero, where
    the phase of an almost-vanishing eigenvalue is ill-conditioned for any
    evaluator, is excluded; both routes must still find it negligible.
    """
    checked = skipped = unsettled = 0
    worst = 0.0
    while checked < draws and skipped <= draws:  # FAIL, not a hang, if all skip
        g = rng.uniform(0.3, 6.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        c = rng.uniform(0.3, 6.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        params = QndParams(gamma=complex(g), chi=complex(c), gt=rng.uniform(0.005, 3.2))
        m = float(rng.integers(-two_m_cap, two_m_cap + 1)) / 2.0
        nc = int(rng.integers(0, total_cap + 1))
        nd = int(rng.integers(0, total_cap + 1 - nc))
        out = PhotonOutcome(nc, nd)
        lm_s, ph_s = log_matrix_element(params, out, m)
        lm_d, ph_d = log_matrix_element_direct(params, out, m)
        floor = log_amplitude(params, out, m) + 0.5 * (
            math.lgamma(nc + 1.0) + math.lgamma(nd + 1.0)
        ) - 0.5 * out.total * math.log(2.0)
        if floor < 0.5 * out.total * math.log(1e-3):
            skipped += 1
            unsettled += not (lm_s < -20.0 or
                              abs(lm_s - lm_d) < 1e-6 * max(1.0, abs(lm_d)))
            continue
        checked += 1
        dph = abs((ph_s - ph_d + math.pi) % (2.0 * math.pi) - math.pi)
        worst = max(worst, abs(lm_s - lm_d), dph)
    detail = (f"worst deviation {worst:.2e} over {checked} draws "
              f"({skipped} near-zero draws excluded)")
    if unsettled:
        detail += f", {unsettled} of them not negligible on both routes"
    ok = worst < 1e-10 and skipped < checked and not unsettled
    return Check("dual-form agreement", ok, detail, worst)


def check_unity(rng, params: QndParams, two_js) -> Check:
    """The outcome probabilities of a random state of each 2J sum to one."""
    worst = 1.0
    for two_j in two_js:
        dist = outcome_distribution(params, random_state(rng, two_j), 1e-9)
        worst = min(worst, dist.captured_mass)
    return Check("unity decomposition", worst >= 1.0 - 1e-8, f"min mass {worst:.10f}", worst)


def check_photon_conservation(rng, params: QndParams, two_js) -> Check:
    """The mean detected photon number of each random state is |gamma|^2 + |chi|^2."""
    worst = 0.0
    for two_j in two_js:
        dist = outcome_distribution(params, random_state(rng, two_j), 1e-10)
        rel = abs(dist.mean_total() - params.photon_mean) / params.photon_mean
        worst = max(worst, rel)
    return Check("photon conservation", worst < 1e-6, f"worst rel err {worst:.2e}", worst)


def check_dicke_invariance(params: QndParams, J, ms) -> Check:
    """Outcome (26, 25) leaves each |J, m> unchanged; a point with no
    posterior (zero probability) or a nan one counts as fidelity 0."""
    out = PhotonOutcome(26, 25)
    worst = 1.0
    for m in ms:
        st = dicke_state(J, m)
        post = condition(params, out, st)[1]
        fid = 0.0 if post is None else abs(overlap(st, post)) ** 2
        worst = min(worst, 0.0 if math.isnan(fid) else fid)
    return Check("Dicke invariance", worst >= 1.0 - 1e-12, f"min fidelity {worst!r}", worst)


def check_cg_orthogonality() -> Check:
    # sum over m1 of <j1 m1; j2 M-m1|L M><j1 m1; j2 M-m1|L' M> = [L == L']
    worst = 0.0
    for tj1, tj2 in ((2, 2), (3, 2), (4, 4)):
        ls = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        for tL, tLp in itertools.product(ls, ls):
            for tM in range(-min(tL, tLp), min(tL, tLp) + 1, 2):
                acc = 0.0
                for tm1 in range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2):
                    a, b = (clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2, (tM - tm1) / 2,
                                           t / 2, tM / 2) for t in (tL, tLp))
                    acc += a * b
                worst = max(worst, abs(acc - (tL == tLp)))
    return Check("CG orthogonality", worst < 1e-10, f"worst deviation {worst:.2e}", worst)


def check_multipole_parseval(rng) -> Check:
    # a random full-rank density matrix at the largest J the Wigner map
    # claims; an exact multipole table satisfies sum |rho_LM|^2 = Tr rho^2
    a = rng.normal(size=(101, 101)) + 1j * rng.normal(size=(101, 101))
    h = a @ a.conj().T
    dev = DensityMatrix(two_j=100, rho=h / np.trace(h).real).parseval_residual()
    return Check("multipole Parseval at 2J=100", dev <= 1e-10, f"rel deviation {dev:.2e}", dev)


def check_harmonic_orthonormality() -> Check:
    lmax = 6
    x, wq = np.polynomial.legendre.leggauss(2 * lmax + 2)
    worst = 0.0
    for m in range(0, lmax + 1):
        rows = legendre_norm_table(lmax, m, x)
        gram = (rows * wq) @ rows.T * (2.0 * math.pi)
        want = np.eye(rows.shape[0])
        worst = max(worst, float(np.max(np.abs(gram - want))))
    return Check("spherical-harmonic orthonormality", worst < 1e-8,
                 f"worst deviation {worst:.2e}", worst)


def check_gaussian_width(params: QndParams, outcome: PhotonOutcome) -> Check:
    """The Gaussian model's variance is -1 / (d^2/dm^2 ln A) at its centre, to 5%."""
    model = gaussian_model(params, outcome)
    f = lambda m: log_amplitude(params, outcome, m)
    curv = f(model.m0 + 1.0) - 2.0 * f(model.m0) + f(model.m0 - 1.0)
    rel = abs(-1.0 / curv - model.sigma2) / model.sigma2
    return Check("Gaussian width vs log-curvature", rel < 0.05, f"rel err {rel:.3f}", rel)


def run_all(seed: int = 20260810) -> list[Check]:
    rng = lambda k: np.random.default_rng(seed + k)
    light = lambda n: QndParams(gamma=5.1, chi=5.0, gt=math.pi / n)
    return [
        check_dual_form(rng(0)),
        check_unity(rng(1), light(12), (12,) * 3),
        check_photon_conservation(rng(2), light(20), (16,) * 2),
        check_dicke_invariance(light(40), 20, (-20, -7, 0, 13, 20)),
        check_cg_orthogonality(),
        check_multipole_parseval(rng(3)),
        check_harmonic_orthonormality(),
        check_gaussian_width(light(100), PhotonOutcome(25, 25)),
    ]
