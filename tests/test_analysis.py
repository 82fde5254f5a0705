import math

import numpy as np
import pytest

from qnd_povm import _clebsch, analysis, errors
from qnd_povm.analysis import (DensityMatrix, ParityCase, cat_fidelity,
                               cat_state, density_from_state,
                               parity_pattern_check, squeezing_report, wigner)
from qnd_povm.errors import DomainError, PreconditionError, ResourceCapError
from qnd_povm.numerics import cg_blocks
from qnd_povm.povm import PhotonOutcome, QndParams, posterior
from qnd_povm.spin_state import (CollectiveState, coherent_state,
                                 dicke_state, normalize, overlap)
from qnd_povm.validate import check_wigner_covariance, random_state

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


def multipole(dm, L, M):
    """rho_LM read from `dm.multipoles[L, |M|]`, with the rule
    rho_{L,-M} = (-1)^M conj(rho_LM) for negative M."""
    c = complex(dm.multipoles[L, abs(M)])
    return c if M >= 0 else (-1) ** M * c.conjugate()


def random_density(rng, two_j):
    d = two_j + 1
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = a @ a.conj().T
    h = h / np.trace(h).real
    return DensityMatrix(two_j=two_j, rho=h)


# ------------------------------------------------------------- density matrix

def test_density_from_the_zero_state_is_refused():
    with pytest.raises(DomainError, match="^state carries no amplitude$"):
        density_from_state(CollectiveState(2, [0, 0, 0]))


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
                assert abs(multipole(dm, L, M)) < 1e-12
        want = rho_lm_oracle(np.eye(d) / d, two_j, 0, 0)
        assert abs(multipole(dm, 0, 0) - want) < 1e-12


def test_rho_lm_phase_invariant_monopole():
    a = normalize(CollectiveState(4, np.array([0.5, 0.1j, 0.2, -0.3, 0.6])))
    b = normalize(CollectiveState(4, np.exp(1j * 0.83) * a.amps))
    da, db = density_from_state(a), density_from_state(b)
    assert multipole(da, 0, 0) == pytest.approx(multipole(db, 0, 0), rel=1e-12)


def test_rho_lm_against_oracle():
    rng = np.random.default_rng(21)
    for two_j in (2, 3, 5):
        dm = random_density(rng, two_j)
        for L in range(0, two_j + 1):
            for M in range(-L, L + 1):
                want = rho_lm_oracle(dm.rho, two_j, L, M)
                got = multipole(dm, L, M)
                assert abs(got - want) < 1e-11, (two_j, L, M)


def test_rho_lm_hermitian_descendant():
    # the table holds M >= 0 only; the rule that gives -M holds for the
    # direct sum at -M
    rng = np.random.default_rng(22)
    for two_j in (2, 4, 6):
        dm = random_density(rng, two_j)
        for L in range(0, two_j + 1):
            for M in range(0, L + 1):
                lhs = rho_lm_oracle(dm.rho, two_j, L, -M)
                rhs = ((-1) ** M) * np.conj(dm.multipoles[L, M])
                assert abs(lhs - rhs) < 1e-12


def test_rho_lm_roundtrip():
    # rebuild rho from its multipoles through the same coupling kernel
    rng = np.random.default_rng(23)
    for two_j in (4, 7, 10):  # J = 2, 7/2, 5
        dm = random_density(rng, two_j)
        table = {(L, M): multipole(dm, L, M)
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

    monkeypatch.setattr(analysis, "legendre_sum", failing)
    dm = density_from_state(dicke_state(1, 1))
    with pytest.raises(ResourceCapError, match="over the cap"):
        wigner(dm, n_theta=n_theta, n_phi=n_phi)
    # and a grid under the cap does reach the patched routine
    with pytest.raises(AssertionError, match="Legendre"):
        wigner(dm, n_theta=3, n_phi=3)


def test_wigner_flush_of_subnormals_keeps_every_bit(monkeypatch):
    # the posterior of the sphere benchmark's seed-9002 outcome leaves
    # subnormal parts in G, which slow W's GEMM about 25-fold; zeroing them
    # must not move a bit of W
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


@pytest.mark.parametrize("shift, raises", [(0.99, False), (1.01, True)])
def test_wigner_residue_guard_reads_im_g0(shift, raises):
    # an imaginary part on rho_00 leaves Parseval to 1e-20 but puts
    # Im G_0 = Im rho_00 / sqrt(4 pi) on every theta, which Re would discard
    dm = density_from_state(coherent_state(8, 1.0))
    table = dm.multipoles.copy()
    table[0, 0] += 1j * shift * 1e-10 * math.sqrt(4.0 * math.pi)
    object.__setattr__(dm, "multipoles", table)
    assert dm.parseval_residual() <= 1e-12
    if raises:
        with pytest.raises(DomainError, match="imaginary residue 1.01e-10"):
            wigner(dm, n_theta=9, n_phi=9)
    else:
        wigner(dm, n_theta=9, n_phi=9)


@pytest.mark.parametrize("state, live", [
    (dicke_state(5, 2), [0]),
    # both ports fire at gt = pi/2: m_z = -4..4 even alone, so the odd M and
    # M = 10 vanish
    (posterior(P_SYM, PhotonOutcome(26, 26), coherent_state(10, math.pi / 2.0)),
     [0, 2, 4, 6, 8]),
    (coherent_state(10, 1.0), list(range(11))),
], ids=["dicke", "cat", "coherent"])
def test_wigner_sums_only_the_live_half_of_g(monkeypatch, state, live):
    # G's columns M = 0..2J, as (Re, Im) pairs of the M whose column holds an
    # entry, scaled by 1 at M = 0 and 2 above; no column for M < 0
    dm = density_from_state(state)
    seen = []

    def record(pairs):
        seen.append(pairs.copy())
        return pairs

    monkeypatch.setattr(analysis, "_flush_subnormals", record)
    got = wigner(dm, n_theta=7, n_phi=9)
    (pairs,) = seen
    g = analysis.legendre_sum(dm.multipoles, np.cos(got.thetas))
    assert [M for M in range(dm.two_j + 1) if g[:, M].any()] == live
    want = g[:, live] * np.where(np.array(live) > 0, 2.0, 1.0)
    assert np.array_equal(pairs, np.ascontiguousarray(want).view(float))


def test_wigner_prints_a_grid_size_past_the_doubles_in_three_digits():
    # the cap message once printed all 401 digits of n_phi
    rho = density_from_state(coherent_state(2, 1.0))
    with pytest.raises(ResourceCapError, match=r"^a 181x1\.00e\+400 Wigner grid at 2J=2 needs "
                                               r"an array of 1\.81e\+402 entries, over the cap"):
        wigner(rho, n_phi=10**400)


def test_density_matrix_meets_the_cap_before_it_copies(monkeypatch):
    rho = np.eye(11) / 11.0
    monkeypatch.setattr(errors, "MAX_ENTRIES", 11 * 11 - 1)
    with pytest.raises(ResourceCapError, match="^a density matrix at 2J=10 holds 121 "):
        DensityMatrix(10, rho)
    monkeypatch.setattr(errors, "MAX_ENTRIES", 11 * 11)
    assert DensityMatrix(10, rho).two_j == 10


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


@pytest.mark.parametrize("case", ["cat", "coherent", "posterior", "random"])
def test_multipole_parseval_at_2j_200(case):
    # the largest J whose Parseval sum README bounds by 1e-12
    if case == "random":
        a = np.random.default_rng(200).normal(size=(201, 201, 2)) @ [1.0, 1j]
        h = a @ a.conj().T
        dm = DensityMatrix(two_j=200, rho=h / np.trace(h).real)
    elif case == "posterior":
        dm = _cat_posterior_density(200)
    else:
        dm = density_from_state(cat_state(200) if case == "cat" else coherent_state(200, 1.3))
    assert dm.parseval_residual() <= 1e-12


def test_multipoles_against_oracle_at_2j_100():
    dm = _cat_posterior_density(100)
    assert dm.parseval_residual() <= 1e-12
    for L, M in ((0, 0), (3, 2), (40, 1), (77, 40), (100, 0), (100, 100)):
        want = rho_lm_oracle(dm.rho, 100, L, M)
        assert abs(multipole(dm, L, M) - want) < 1e-12, (L, M)


def test_parseval_guard_rejects_corrupt_table(monkeypatch):
    real = analysis.cg_blocks

    def corrupt(tj1, tj2, tMs=None):
        for tM, block in real(tj1, tj2, tMs):
            yield tM, (1.0 + 1e-6 * (tM == 2)) * block

    monkeypatch.setattr(analysis, "cg_blocks", corrupt)
    dm = density_from_state(coherent_state(8, 1.0))
    assert dm.parseval_residual() > 1e-10
    with pytest.raises(DomainError, match="Parseval"):
        wigner(dm, n_theta=9, n_phi=9)


def _all_blocks_table(dm):
    """The multipole table from every Clebsch-Gordan block, reached or not."""
    tj = dm.two_j
    table = np.zeros((tj + 1, tj + 1), dtype=complex)
    for tM, block in cg_blocks(tj, tj):
        M = tM // 2
        tm = dm.two_m_values()[M:]
        signs = np.where(((tj - tm) // 2 - M) % 2 == 0, 1.0, -1.0)
        table[M:, M] = block.T @ (signs * np.diagonal(dm.rho, -M))
    return table


@pytest.mark.parametrize("case", ["cat40", "cat100", "dicke", "coherent"])
def test_multipoles_solve_only_the_reached_blocks(case, monkeypatch):
    # a gt = pi/2 posterior has exact zeros on odd m_z, so only its even-M
    # subdiagonals hold entries; a Dicke state has only its diagonal
    dm = {"cat40": lambda: _cat_posterior_density(40),
          "cat100": lambda: _cat_posterior_density(100),
          "dicke": lambda: density_from_state(dicke_state(20, 3)),
          "coherent": lambda: density_from_state(coherent_state(40, 1.0))}[case]()
    tj = dm.two_j
    want = {"dicke": {0}, "coherent": set(range(0, 2 * tj + 1, 2))}.get(
        case, set(range(0, 2 * tj + 1, 4)))
    assert want == {2 * M for M in range(tj + 1) if np.diagonal(dm.rho, -M).any()}
    solved = []
    real = _clebsch.solve

    def counting(tj1, tj2, tMs):
        tMs = list(tMs)
        solved.extend(tMs)
        return real(tj1, tj2, tMs)

    monkeypatch.setattr(_clebsch, "solve", counting)
    table = dm.multipoles
    assert sorted(solved) == sorted(want)
    monkeypatch.undo()
    assert np.array_equal(table, _all_blocks_table(dm))


@pytest.mark.parametrize("N, k", [(40, 30), (100, 77)])
def test_wigner_rotation_covariance(N, k):
    check = check_wigner_covariance(N, k)
    assert check.passed, check.detail
    assert check.value < 1e-13


def test_wigner_covariance_sees_a_flipped_block_column(monkeypatch):
    # the sign of the L = 5 column of the M = 3 block keeps every norm, so
    # the Parseval guard passes; the turned coherent map moves
    real = analysis.cg_blocks

    def flipped(tj1, tj2, tMs=None):
        for tM, block in real(tj1, tj2, tMs):
            if tM == 6:
                block = block.copy()
                block[:, 5 - 3] *= -1.0
            yield tM, block

    monkeypatch.setattr(analysis, "cg_blocks", flipped)
    assert density_from_state(coherent_state(40, 1.0)).parseval_residual() <= 1e-12
    check = check_wigner_covariance(40, 30)
    assert not check.passed
    assert check.value > 1e-2


@pytest.mark.parametrize("make_state, k", [
    (lambda: coherent_state(40, 1.0), 17),
    (lambda: random_state(np.random.default_rng(29), 40), 123),
    # half-integer J, turned by more than half a turn
    (lambda: random_state(np.random.default_rng(31), 25), 250),
], ids=["coherent40", "random40", "random_half_spin"])
def test_wigner_turns_with_a_z_rotation(make_state, k):
    # e^{-i phi0 J_z} turns the map by phi0 about z: with phi0 = k steps of
    # the azimuth grid, whose last column repeats phi = 0, the columns roll by k
    state = make_state()
    grid = wigner(density_from_state(state))
    phi0 = float(grid.phis[k])
    turned = CollectiveState(state.two_j, state.amps * np.exp(-1j * phi0 * state.m_values()))
    got = wigner(density_from_state(turned)).values
    want = np.roll(grid.values[:, :-1], k, axis=1)
    miss = max(np.max(np.abs(got[:, :-1] - want)), np.max(np.abs(got[:, -1] - want[:, 0])))
    assert miss <= 1e-12 * np.max(np.abs(grid.values))


@pytest.mark.parametrize("J, m", [(0.5, -0.5), (5, -3), (20, 7), (100, 0), (100, 100)])
def test_dicke_multipoles_off_m_zero_are_exact_zeros(J, m):
    # a Dicke state's density matrix is diagonal, so every M != 0 multipole
    # is an exact zero and its map holds no azimuthal term at all
    dm = density_from_state(dicke_state(J, m))
    assert dm.multipoles[:, 0].any()
    assert not dm.multipoles[:, 1:].any()
    w = wigner(dm).values
    assert np.array_equal(w, np.broadcast_to(w[:, :1], w.shape))


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


def test_squeezing_ratio_over_a_zero_prior_variance():
    # 0/0 is undefined, as `measure` writes it (null); a spread over none is inf
    dicke = dicke_state(5, 0)
    rep = squeezing_report(dicke, dicke)
    assert (rep.var_prior, rep.var_post) == (0.0, 0.0) and math.isnan(rep.ratio)
    rep = squeezing_report(dicke, coherent_state(10, math.pi / 2.0))
    assert rep.var_post == pytest.approx(2.5) and rep.ratio == math.inf


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
