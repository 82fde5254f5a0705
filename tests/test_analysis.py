import math

import numpy as np
import pytest

from qnd_povm import analysis
from qnd_povm.analysis import (DensityMatrix, ParityCase, cat_fidelity,
                               cat_state, density_from_state,
                               parity_pattern_check, rho_lm, squeezing_report,
                               wigner)
from qnd_povm.errors import DomainError, PreconditionError, ResourceCapError
from qnd_povm.povm import PhotonOutcome, QndParams, posterior
from qnd_povm.spin_state import (CollectiveState, coherent_state,
                                 dicke_state, normalize, overlap)

P_SYM = QndParams(gamma=5.0, chi=5.0, gt=math.pi / 2.0)


def sympy_cg(tj1, tm1, tj2, tm2, tL, tM):
    from sympy import N as sN
    from sympy import Rational
    from sympy.physics.quantum.cg import CG

    return float(sN(CG(Rational(tj1, 2), Rational(tm1, 2),
                       Rational(tj2, 2), Rational(tm2, 2),
                       Rational(tL, 2), Rational(tM, 2)).doit()))


def rho_lm_oracle(rho_mat, two_j, L, M):
    """Direct multipole sum with an independent coefficient source."""
    acc = 0.0 + 0.0j
    for i, tm in enumerate(range(-two_j, two_j + 1, 2)):
        tmp = tm - 2 * M
        if abs(tmp) > two_j:
            continue
        col = (tmp + two_j) // 2
        cg = sympy_cg(two_j, tm, two_j, -tmp, 2 * L, 2 * M)
        sign = (-1) ** (((two_j - tm) // 2 - M) % 2)
        acc += sign * cg * rho_mat[i, col]
    return complex(acc)


def random_density(rng, two_j):
    d = two_j + 1
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = a @ a.conj().T
    h = h / np.trace(h).real
    return DensityMatrix(two_j=two_j, rho=h)


# ------------------------------------------------------------- density matrix

def test_density_from_dicke():
    dm = density_from_state(dicke_state(4, -1))
    i = dicke_state(4, -1).index_of(-1)
    want = np.zeros((9, 9))
    want[i, i] = 1.0
    assert np.allclose(dm.rho, want)
    assert abs(np.trace(dm.rho) - 1.0) < 1e-14
    assert abs(np.trace(dm.rho @ dm.rho) - 1.0) < 1e-13  # pure state


def test_density_validation():
    with pytest.raises(DomainError):
        DensityMatrix(two_j=2, rho=np.eye(3) * (1.0 / 3.0) + 0.1j * np.eye(3))
    with pytest.raises(DomainError):
        DensityMatrix(two_j=2, rho=np.eye(3))  # trace 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_density_matrix_rejects_non_finite_entries(bad):
    # nan passes every `> tol` guard, so without this check an all-nan
    # matrix reached `wigner` and came back as an all-nan grid
    rho = np.eye(3) / 3.0
    with pytest.raises(DomainError, match="non-finite"):
        DensityMatrix(two_j=2, rho=np.full((3, 3), bad))
    rho = rho.astype(complex)
    rho[0, 2] = rho[2, 0] = bad
    with pytest.raises(DomainError, match="non-finite"):
        DensityMatrix(two_j=2, rho=rho)


# ------------------------------------------------------------------ multipoles

def test_rho_lm_maximally_mixed():
    for two_j in (2, 4, 5):
        d = two_j + 1
        dm = DensityMatrix(two_j=two_j, rho=np.eye(d) / d)
        for L in range(1, two_j + 1):
            for M in range(-L, L + 1):
                assert abs(rho_lm(dm, L, M)) < 1e-12
        want = rho_lm_oracle(np.eye(d) / d, two_j, 0, 0)
        assert abs(rho_lm(dm, 0, 0) - want) < 1e-12


def test_rho_lm_phase_invariant_monopole():
    a = normalize(CollectiveState(4, np.array([0.5, 0.1j, 0.2, -0.3, 0.6])))
    b = normalize(CollectiveState(4, np.exp(1j * 0.83) * a.amps))
    da, db = density_from_state(a), density_from_state(b)
    assert rho_lm(da, 0, 0) == pytest.approx(rho_lm(db, 0, 0), rel=1e-12)


def test_rho_lm_against_oracle():
    rng = np.random.default_rng(21)
    for two_j in (2, 3, 5):
        dm = random_density(rng, two_j)
        for L in range(0, two_j + 1):
            for M in range(-L, L + 1):
                want = rho_lm_oracle(dm.rho, two_j, L, M)
                got = rho_lm(dm, L, M)
                assert abs(got - want) < 1e-11, (two_j, L, M)


def test_rho_lm_hermitian_descendant():
    rng = np.random.default_rng(22)
    for two_j in (2, 4, 6):
        dm = random_density(rng, two_j)
        for L in range(0, two_j + 1):
            for M in range(0, L + 1):
                lhs = rho_lm(dm, L, -M)
                rhs = ((-1) ** M) * np.conj(rho_lm(dm, L, M))
                assert abs(lhs - rhs) < 1e-12


def test_rho_lm_roundtrip():
    # rebuild rho from its multipoles through the same coupling kernel
    rng = np.random.default_rng(23)
    for two_j in (4, 7, 10):  # J = 2, 7/2, 5
        dm = random_density(rng, two_j)
        table = {(L, M): rho_lm(dm, L, M)
                 for L in range(two_j + 1) for M in range(-L, L + 1)}
        rebuilt = np.zeros_like(dm.rho)
        for i, tm in enumerate(range(-two_j, two_j + 1, 2)):
            for ip, tmp in enumerate(range(-two_j, two_j + 1, 2)):
                M = (tm - tmp) // 2
                acc = 0.0 + 0.0j
                for L in range(abs(M), two_j + 1):
                    cg = sympy_cg(two_j, tm, two_j, -tmp, 2 * L, 2 * M)
                    sign = (-1) ** (((two_j - tm) // 2 - M) % 2)
                    acc += sign * cg * table[(L, M)]
                rebuilt[i, ip] = acc
        assert np.max(np.abs(rebuilt - dm.rho)) < 1e-8


def test_rho_lm_domain():
    dm = DensityMatrix(two_j=2, rho=np.eye(3) / 3.0)
    with pytest.raises(DomainError):
        rho_lm(dm, 3, 0)
    with pytest.raises(DomainError):
        rho_lm(dm, 1, 2)


# ------------------------------------------------------------- Wigner function

def test_wigner_real_and_linear():
    rng = np.random.default_rng(31)
    d1, d2 = random_density(rng, 6), random_density(rng, 6)
    alpha = 0.37
    mix = DensityMatrix(two_j=6, rho=alpha * d1.rho + (1 - alpha) * d2.rho)
    kw = dict(n_theta=21, n_phi=41)
    w1, w2, wm = wigner(d1, **kw), wigner(d2, **kw), wigner(mix, **kw)
    assert np.max(np.abs(wm.values - (alpha * w1.values + (1 - alpha) * w2.values))) < 1e-10
    assert wm.values.dtype == float


@pytest.mark.parametrize("n_theta,n_phi", [(5000, 5000), (1 << 23, 2), (2, 1 << 23)])
def test_wigner_grid_cap(n_theta, n_phi, monkeypatch):
    # W (theta x phi), G (theta x M) and E (M x phi) are each capped, before
    # any Legendre table is built
    def failing(*args, **kwargs):
        raise AssertionError("a Legendre table was built")

    monkeypatch.setattr(analysis, "legendre_norm_table", failing)
    dm = density_from_state(dicke_state(1, 1))
    with pytest.raises(ResourceCapError, match="over the cap"):
        wigner(dm, n_theta=n_theta, n_phi=n_phi)


def test_wigner_flush_of_subnormals_keeps_every_bit(monkeypatch):
    # the posterior of the sphere benchmark's seed-9002 outcome leaves
    # subnormal parts in G, which slow the complex GEMM about 40-fold;
    # zeroing them must not move a bit of W
    state = posterior(P_SYM, PhotonOutcome(28, 22), coherent_state(100, math.pi / 2.0))
    rho = density_from_state(state)
    real = analysis._flush_subnormals
    seen = []

    def subnormals(g):
        parts = np.abs(g.view(float))
        return int(np.count_nonzero((parts > 0.0) & (parts < np.finfo(float).tiny)))

    def counting(g):
        seen.append(subnormals(g))
        g = real(g)
        seen.append(subnormals(g))
        return g

    monkeypatch.setattr(analysis, "_flush_subnormals", counting)
    flushed = wigner(rho)
    monkeypatch.setattr(analysis, "_flush_subnormals", lambda g: g)
    kept = wigner(rho)
    assert seen[0] > 1000 and seen[1] == 0
    assert flushed.values.tobytes() == kept.values.tobytes()


def test_wigner_dicke_top_concentrated_at_pole():
    dm = density_from_state(dicke_state(5, 5))
    wg = wigner(dm, n_theta=41, n_phi=31)
    # azimuthally symmetric: every row is constant
    assert np.max(np.std(wg.values, axis=1)) < 1e-12
    assert np.argmax(wg.values[:, 0]) == 0  # peak at theta = 0
    assert wg.values[0, 0] > wg.values[-1, 0]


def test_wigner_against_independent_construction():
    from scipy.special import sph_harm_y

    st = coherent_state(6, math.pi / 2.0)
    dm = density_from_state(st)
    ths = np.linspace(0.0, math.pi, 13)
    phs = np.linspace(0.0, 2.0 * math.pi, 17)
    want = np.zeros((13, 17), dtype=complex)
    for L in range(0, 7):
        for M in range(-L, L + 1):
            c = rho_lm_oracle(dm.rho, 6, L, M)
            want += c * sph_harm_y(L, M, ths[:, None], phs[None, :])
    got = wigner(dm, n_theta=13, n_phi=17)
    assert np.max(np.abs(got.values - want.real)) < 1e-10
    assert np.max(np.abs(want.imag)) < 1e-10


def test_wigner_cat_fringes():
    post = posterior(P_SYM, PhotonOutcome(26, 26), coherent_state(10, math.pi / 2.0))
    wg = wigner(density_from_state(post), n_theta=61, n_phi=121)
    assert wg.values.min() < -0.05
    # dominant positive lobes near the equator
    eq = np.argmin(np.abs(wg.thetas - math.pi / 2.0))
    assert wg.values[eq].max() > 0.5


def test_wigner_coherent_prior_floor():
    # frozen from an independent multipole construction: the equatorial
    # coherent state dips no lower than about -1.33e-4 at N = 10
    wg = wigner(density_from_state(coherent_state(10, math.pi / 2.0)),
                n_theta=61, n_phi=121)
    assert wg.values.min() > -2e-4
    assert wg.values.max() > 1.0


def _cat_posterior_density(n):
    post = posterior(P_SYM, PhotonOutcome(26, 26), coherent_state(n, math.pi / 2.0))
    return density_from_state(post)


def test_wigner_large_j_cat():
    # the Racah sum gave a map from -290 to +296 here, with exit 0
    dm = _cat_posterior_density(160)
    wg = wigner(dm)
    assert np.max(np.abs(wg.values)) < 4.0
    t2 = np.abs(dm.multipoles) ** 2
    parseval = 2.0 * t2.sum() - t2[:, 0].sum()
    assert abs(parseval - 1.0) <= 1e-12


def test_multipoles_against_oracle_at_2j_100():
    dm = _cat_posterior_density(100)
    assert dm.parseval_residual() <= 1e-12
    for L, M in ((0, 0), (3, 2), (40, 1), (77, 40), (100, 0), (100, 100)):
        want = rho_lm_oracle(dm.rho, 100, L, M)
        assert abs(rho_lm(dm, L, M) - want) < 1e-12, (L, M)


def test_parseval_guard_rejects_corrupt_table(monkeypatch):
    real = analysis.cg_blocks

    def corrupt(tj1, tj2):
        for tM, block in real(tj1, tj2):
            yield tM, (1.0 + 1e-6 * (tM == 2)) * block

    monkeypatch.setattr(analysis, "cg_blocks", corrupt)
    dm = density_from_state(coherent_state(8, 1.0))
    assert dm.parseval_residual() > 1e-10
    with pytest.raises(DomainError, match="Parseval"):
        wigner(dm, n_theta=9, n_phi=9)
    with pytest.raises(DomainError, match="Parseval"):
        rho_lm(dm, 2, 1)


# ------------------------------------------------------------------- squeezing

def test_squeezing_report_identity_measurement():
    p0 = QndParams(gamma=5.0, chi=5.0, gt=0.0)
    st = coherent_state(60, math.pi / 2.0)
    rep = squeezing_report(st, posterior(p0, PhotonOutcome(25, 25), st))
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_squeezing_report_narrows():
    p = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 100.0)
    st = coherent_state(100, math.pi / 2.0)
    rep = squeezing_report(st, posterior(p, PhotonOutcome(25, 25), st))
    assert rep.ratio < 1.0
    assert rep.var_prior == pytest.approx(25.0, rel=1e-10)


def test_squeezing_monotone_in_interaction_time():
    st = coherent_state(100, math.pi / 2.0)
    ratios = []
    for div in (400, 200, 100):
        p = QndParams(gamma=5.1, chi=5.0, gt=math.pi / div)
        rep = squeezing_report(st, posterior(p, PhotonOutcome(25, 25), st))
        ratios.append(rep.ratio)
    assert ratios[0] > ratios[1] > ratios[2]


# ---------------------------------------------------------------- parity cases

def test_parity_cases_classification():
    both = parity_pattern_check(P_SYM, PhotonOutcome(26, 26), 10)
    assert both.case is ParityCase.BOTH_PORTS
    assert both.support == (-4, -2, 0, 2, 4)
    assert both.strict

    cdark = parity_pattern_check(P_SYM, PhotonOutcome(0, 51), 10)
    assert cdark.case is ParityCase.C_DARK
    assert cdark.support == (-3, 1, 5)
    # even-m leakage is the structural 2^(-n_d/2), far above 1e-12 here
    assert cdark.max_off_support_ratio == pytest.approx(2.0 ** (-25.5), rel=1e-6)
    assert not cdark.strict

    ddark = parity_pattern_check(P_SYM, PhotonOutcome(51, 0), 10)
    assert ddark.case is ParityCase.D_DARK
    assert ddark.support == (-5, -1, 3)


def test_parity_case_on_support_magnitudes():
    # both ports firing: A = 1/sqrt(nc! nd!) exactly on the even lattice
    pat = parity_pattern_check(P_SYM, PhotonOutcome(26, 26), 10)
    want = -(math.lgamma(27.0) + math.lgamma(27.0)) / 2.0
    assert pat.log_on_support == pytest.approx(want, abs=1e-10)
    # dark port: A = 2^(n/2)/sqrt(n!) at the quarter-lattice points
    pat = parity_pattern_check(P_SYM, PhotonOutcome(0, 51), 10)
    want = 0.5 * 51 * math.log(2.0) - 0.5 * math.lgamma(52.0)
    assert pat.log_on_support == pytest.approx(want, abs=1e-10)


def test_parity_case_preconditions():
    with pytest.raises(PreconditionError):
        parity_pattern_check(P_SYM, PhotonOutcome(26, 26), 11)   # odd N
    with pytest.raises(PreconditionError):
        parity_pattern_check(QndParams(gamma=5.0, chi=5.0, gt=math.pi / 3.0),
                             PhotonOutcome(3, 3), 10)            # wrong gt
    with pytest.raises(PreconditionError):
        parity_pattern_check(QndParams(gamma=5.1, chi=5.0, gt=math.pi / 2.0),
                             PhotonOutcome(3, 3), 10)            # eta != 0
    with pytest.raises(PreconditionError):
        parity_pattern_check(P_SYM, PhotonOutcome(0, 0), 10)


# ------------------------------------------------------------------ cat states

def test_cat_state_components_orthogonal():
    cat = cat_state(10)
    assert abs(cat.squared_norm() - 1.0) < 1e-12
    a = overlap(coherent_state(10, math.pi / 2.0), cat)
    b = overlap(coherent_state(10, -math.pi / 2.0), cat)
    assert abs(a) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert abs(b) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_cat_fidelity_values():
    assert cat_fidelity(cat_state(10), 10) == pytest.approx(1.0, abs=1e-12)
    assert cat_fidelity(cat_state(10, math.pi), 10) == pytest.approx(1.0, abs=1e-12)
    # single coherent component: exactly one half (components are orthogonal)
    assert cat_fidelity(coherent_state(10, math.pi / 2.0), 10) == pytest.approx(
        0.5, abs=1e-12)
    # polar state barely overlaps either component
    assert cat_fidelity(coherent_state(10, 0.0), 10) < 1e-2


def test_cat_fidelity_of_measurement_posterior():
    post = posterior(P_SYM, PhotonOutcome(26, 26), coherent_state(10, math.pi / 2.0))
    assert cat_fidelity(post, 10) == pytest.approx(1.0, abs=1e-10)


def test_cat_fidelity_sector_mismatch():
    # the cat of N atoms lives in 2J = N; a state of another N is refused
    for n in (8, 11):
        with pytest.raises(DomainError):
            cat_fidelity(coherent_state(n, math.pi / 2.0), 10)


def test_cat_survives_asymmetric_amplitudes():
    # slightly unequal light amplitudes at the long-time point: for even
    # equal counts the per-count phases cancel across the even support and
    # the posterior is still an exact equal-weight cat
    p = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 2.0)
    post = posterior(p, PhotonOutcome(26, 26), coherent_state(10, math.pi / 2.0))
    assert cat_fidelity(post, 10) == pytest.approx(1.0, abs=1e-10)
    assert abs(overlap(cat_state(10, math.pi), post)) ** 2 == pytest.approx(
        1.0, abs=1e-10)
