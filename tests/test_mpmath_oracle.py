"""Outcome statistics at the claimed sizes against a 60-digit sum.

Given m_z the two output ports hold coherent states of amplitudes
    alpha_c = (gamma e^{-i gt m/2} + i chi e^{+i gt m/2}) / sqrt(2)
    alpha_d = (i gamma e^{-i gt m/2} + chi e^{+i gt m/2}) / sqrt(2),
so an outcome has probability
    P(n_c, n_d) = sum_m |psi_m|^2 e^{-s} |alpha_c|^{2 n_c} |alpha_d|^{2 n_d} / (n_c! n_d!).
`oracle` evaluates that sum, and the posterior's <J_z> and Var J_z, in
mpmath at 60 digits from the beam amplitudes alone, sharing no code with
the package's kernels.  The package must match it to 1e-10 relative at
N = 200 and a mean of 1800 photons, and on rows of the bright photon table.
"""

import math

import mpmath
import numpy as np
import pytest

from qnd_povm.povm import (PhotonOutcome, QndParams, condition, condition_many,
                           outcome_distribution)
from qnd_povm.spin_state import coherent_state, moments

import shot_oracle

RTOL = 1e-10


def oracle(params, state, n_c, n_d):
    """(P, <J_z>, Var J_z) of the outcome (n_c, n_d), summed at 60 digits."""
    with mpmath.workdps(60):
        g = mpmath.mpc(params.gamma.real, params.gamma.imag)
        c = mpmath.mpc(params.chi.real, params.chi.imag)
        half_gt = mpmath.mpf(params.gt) / 2
        root2 = mpmath.sqrt(2)
        pref = mpmath.exp(-(abs(g) ** 2 + abs(c) ** 2)) / (
            mpmath.factorial(n_c) * mpmath.factorial(n_d))
        p = mz = mz2 = mpmath.mpf(0)
        for m, amp in zip(state.m_values().tolist(), state.amps.tolist()):
            rot = mpmath.expj(-half_gt * m)
            a_c = (g * rot + 1j * c / rot) / root2
            a_d = (1j * g * rot + c / rot) / root2
            term = (abs(mpmath.mpc(amp)) ** 2 * pref
                    * abs(a_c) ** (2 * n_c) * abs(a_d) ** (2 * n_d))
            p += term
            mz += m * term
            mz2 += m * m * term
        mean = mz / p
        return p, float(mean), float(mz2 / p - mean ** 2)


def _light(phase, n_atoms):
    """|gamma|^2 + |chi|^2 = 1800, both ports lit near the state's m_z."""
    return QndParams(gamma=30.0, chi=30.0 * complex(math.cos(phase), math.sin(phase)),
                     gt=math.pi / n_atoms)


# ln P is about -10, -23 and -45
N200_OUTCOMES = [(850, 950), (1300, 650), (300, 1250)]


@pytest.mark.parametrize("n_c, n_d", N200_OUTCOMES)
def test_condition_against_oracle_at_n200(n_c, n_d):
    params = _light(-0.5, 200)
    state = coherent_state(200, 1.2)
    log_p, post = condition(params, PhotonOutcome(n_c, n_d), state)
    p, mean, var = oracle(params, state, n_c, n_d)
    want = float(mpmath.log(p))
    assert abs(log_p - want) <= RTOL * abs(want)
    got = moments(post)
    assert got.mean_jz == pytest.approx(mean, rel=RTOL, abs=0.0)
    assert got.var_jz == pytest.approx(var, rel=RTOL, abs=0.0)


def test_condition_many_against_oracle_at_n200():
    params = _light(-0.5, 200)
    state = coherent_state(200, 1.2)
    log_p, mean_jz, var_jz = condition_many(params, *zip(*N200_OUTCOMES), state)
    for i, (n_c, n_d) in enumerate(N200_OUTCOMES):
        p, mean, var = oracle(params, state, n_c, n_d)
        want = float(mpmath.log(p))
        assert abs(log_p[i] - want) <= RTOL * abs(want)
        assert mean_jz[i] == pytest.approx(mean, rel=RTOL, abs=0.0)
        assert var_jz[i] == pytest.approx(var, rel=RTOL, abs=0.0)


def test_bright_rows_against_oracle():
    # the bright photon table: N = 100, mean 1800 photons, 1.07M rows
    params = _light(-0.5, 100)
    state = coherent_state(100, 1.2)
    dist = outcome_distribution(params, state, 1e-9)
    assert dist.p.size == 1_067_993
    rows = [int(np.argmax(dist.p))]
    for seed in range(10):
        n_c, n_d = shot_oracle.draw(params, state, seed)
        rows.append(int(np.flatnonzero((dist.n_c == n_c) & (dist.n_d == n_d))[0]))
    for i in rows:
        want = float(oracle(params, state, int(dist.n_c[i]), int(dist.n_d[i]))[0])
        assert dist.p[i] == pytest.approx(want, rel=RTOL, abs=0.0)
