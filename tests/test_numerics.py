import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnd_povm.errors import DomainError
from qnd_povm.numerics import (cg_blocks, clebsch_gordan, legendre_norm_table,
                               log_binomial, log_factorial, spherical_harmonic,
                               twice)


# ---------------------------------------------------------------------- helpers

def pascal_triangle(nmax):
    rows = [[1]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return rows


def cg_singlet_oracle():
    """<1/2 1/2; 1/2 -1/2 | 0 0> from diagonalizing S^2 in the m=0 block.

    Basis (|ud>, |du>); the S^2 block is [[1,1],[1,1]].  Phase fixed by the
    standard convention: the coefficient of the largest m1 is positive.
    """
    block = np.array([[1.0, 1.0], [1.0, 1.0]])
    w, v = np.linalg.eigh(block)
    vec = v[:, np.argmin(np.abs(w))]  # eigenvalue 0 -> singlet
    if vec[0] < 0:
        vec = -vec
    return vec[0]


def cg_ladder_oracle():
    """<1 1; 1 -1 | 2 0> by lowering |2,2> = |1,1>|1,1> twice."""
    def lower_coeff(j, m):
        return math.sqrt(j * (j + 1) - m * (m - 1))

    # amplitudes over product states keyed by (m1, m2)
    state = {(1, 1): 1.0}
    jm = 2
    for _ in range(2):
        new = {}
        for (m1, m2), a in state.items():
            if m1 > -1:
                new[(m1 - 1, m2)] = new.get((m1 - 1, m2), 0.0) + a * lower_coeff(1, m1)
            if m2 > -1:
                new[(m1, m2 - 1)] = new.get((m1, m2 - 1), 0.0) + a * lower_coeff(1, m2)
        norm = lower_coeff(2, jm)
        state = {k: v / norm for k, v in new.items()}
        jm -= 1
    return state[(1, -1)]


# ------------------------------------------------------------------------ twice

def test_twice_coercion():
    assert twice(3) == 6
    assert twice(np.int64(3)) == 6
    assert twice(2.5) == 5
    assert twice(np.float32(-3.5)) == -7
    assert twice(1e300) == int(2e300)
    for bad in (0.3, math.nan, math.inf, -math.inf, 1e308, "1", None):
        with pytest.raises(DomainError):
            twice(bad)


@given(st.integers(min_value=-200, max_value=200))
def test_twice_roundtrip(t):
    assert twice(t / 2) == t
    assert twice(-t / 2) == -t


# ---------------------------------------------------------------- log factorial

def test_log_factorial_small():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert math.isclose(log_factorial(10), math.log(3628800), rel_tol=1e-14)
    assert abs(log_factorial(10) - 15.104412573075516) < 1e-12


def test_log_factorial_against_exact_bigint():
    f = 1
    for n in range(1, 171):
        f *= n
        rel = abs(math.exp(log_factorial(n)) - f) / f
        assert rel < 1e-12, n


def test_log_factorial_monotone_and_large():
    prev = -1.0
    for n in range(0, 400, 7):
        v = log_factorial(n)
        assert v >= prev
        prev = v
    with pytest.raises(DomainError):
        log_factorial(-1)
    # an array gives the scalar values bit for bit, past the exact table too
    assert np.array_equal(log_factorial(np.arange(400)), [log_factorial(n) for n in range(400)])
    with pytest.raises(DomainError):
        log_factorial(np.array([3, -1]))


def test_log_binomial_examples():
    assert math.isclose(log_binomial(4, 2), math.log(6), rel_tol=1e-14)
    assert log_binomial(17, 0) == 0.0
    assert log_binomial(4, 5) == -math.inf
    assert log_binomial(4, -1) == -math.inf


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
def test_log_binomial_vs_pascal(n, k):
    rows = pascal_triangle(60)
    if k > n:
        assert log_binomial(n, k) == -math.inf
    else:
        assert math.isclose(log_binomial(n, k), math.log(rows[n][k]), rel_tol=1e-12)


# -------------------------------------------------------------- Clebsch-Gordan

def test_cg_singlet():
    want = cg_singlet_oracle()
    got = clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0)
    assert math.isclose(got, want, rel_tol=1e-12)
    assert math.isclose(got, 1.0 / math.sqrt(2.0), rel_tol=1e-12)


def test_cg_ladder():
    want = cg_ladder_oracle()
    got = clebsch_gordan(1, 1, 1, -1, 2, 0)
    assert math.isclose(got, want, rel_tol=1e-12)
    assert math.isclose(got, 1.0 / math.sqrt(6.0), rel_tol=1e-12)


def test_cg_selection_rules():
    assert clebsch_gordan(1, 1, 1, 1, 2, 0) == 0.0          # M != m1+m2
    assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0          # triangle violated
    with pytest.raises(DomainError):
        clebsch_gordan(1, 0.5, 1, 0, 2, 0.5)                # parity mismatch
    with pytest.raises(DomainError):
        clebsch_gordan(1, 2, 1, -1, 2, 1)                   # |m| > j


def test_cg_against_sympy_samples():
    sympy_cg = pytest.importorskip("sympy.physics.quantum.cg")
    from sympy import Rational, N as sN

    rng = np.random.default_rng(11)
    for _ in range(40):
        tj1 = int(rng.integers(0, 9))
        tj2 = int(rng.integers(0, 9))
        tL = int(rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1))
        if (tj1 + tj2 + tL) % 2 != 0:
            continue
        tm1 = int(rng.integers(-tj1, tj1 + 1))
        if (tm1 - tj1) % 2 != 0:
            tm1 += 1 if tm1 < tj1 else -1
        tm2 = int(rng.integers(-tj2, tj2 + 1))
        if (tm2 - tj2) % 2 != 0:
            tm2 += 1 if tm2 < tj2 else -1
        tM = tm1 + tm2
        if abs(tM) > tL:
            continue
        want = float(sN(sympy_cg.CG(
            Rational(tj1, 2), Rational(tm1, 2),
            Rational(tj2, 2), Rational(tm2, 2),
            Rational(tL, 2), Rational(tM, 2)).doit()))
        got = clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2, tL / 2, tM / 2)
        assert abs(got - want) < 1e-12, (tj1, tm1, tj2, tm2, tL, tM)


@pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 5),
                                     (8, 7), (12, 12), (12, 11)])
def test_cg_orthogonality(tj1, tj2):
    # sum over (m1, m2) of products for (L, M) vs (L', M) is delta_LL'
    for tL in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tLp in range(tL, tj1 + tj2 + 1, 2):
            for tM in range(-min(tL, tLp), min(tL, tLp) + 1, 2):
                acc = 0.0
                for tm1 in range(-tj1, tj1 + 1, 2):
                    tm2 = tM - tm1
                    if abs(tm2) > tj2:
                        continue
                    a = clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2,
                                       tL / 2, tM / 2)
                    if tL == tLp:
                        acc += a * a
                    else:
                        acc += a * clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2,
                                                  tm2 / 2, tLp / 2, tM / 2)
                want = 1.0 if tL == tLp else 0.0
                assert abs(acc - want) < 1e-10


def test_cg_blocks_match_scalar():
    for tj1, tj2 in ((10, 10), (5, 3), (2, 7)):
        seen = []
        for tM, block in cg_blocks(tj1, tj2):
            seen.append(tM)
            assert np.max(np.abs(block.T @ block - np.eye(block.shape[1]))) < 1e-14
            lo, l_lo = max(-tj1, tM - tj2), max(abs(tj1 - tj2), tM)
            for a in range(block.shape[0]):
                for b in range(block.shape[1]):
                    tm1, tL = lo + 2 * a, l_lo + 2 * b
                    args = (tj1 / 2, tm1 / 2, tj2 / 2, (tM - tm1) / 2, tL / 2)
                    assert clebsch_gordan(*args, tM / 2) == block[a, b]
                    # at M = 0 the mirror is another entry of the same block
                    flip = (-1) ** ((tj1 + tj2 - tL) // 2)
                    mirrored = (tj1 / 2, -tm1 / 2, tj2 / 2, -(tM - tm1) / 2, tL / 2)
                    got = clebsch_gordan(*mirrored, -tM / 2)
                    assert abs(got - flip * block[a, b]) < 1e-14
        assert seen == list(range(tj1 + tj2, -1, -2))


def test_cg_large_j_stability():
    for tj in (100, 200):
        for tL in (0, 40, 160, 2 * tj):
            acc = 0.0
            for tm1 in range(-tj, tj + 1, 2):
                a = clebsch_gordan(tj / 2, tm1 / 2, tj / 2, -tm1 / 2, tL / 2, 0)
                acc += a * a
            assert abs(acc - 1.0) <= 1e-12, (tj, tL)


# (2j1, 2m1, 2j2, 2L, 2M) at j = 50, 100 and 200, equal and unequal j,
# integer and half-integer; M = 0 and small M need the whole sign walk.
# <100 7; 100 -7 | 120 0> = 0.0815... came out as 5120 from the Racah sum.
LARGE_J_CASES = [
    (100, 14, 100, 40, 0), (100, -96, 100, 198, 4), (100, 2, 100, 2, 2),
    (200, 14, 200, 240, 0), (200, 0, 200, 2, 0), (200, -200, 200, 400, 0),
    (200, 60, 199, 35, -3), (200, 198, 199, 397, 7), (201, -1, 200, 1, 1),
    (400, 10, 400, 600, 0), (400, -4, 400, 0, 0), (400, 100, 400, 798, 0),
]


@pytest.fixture(scope="module")
def cg_400_400_m0():
    """The M = 0 block of j1 = j2 = 200, from one walk shared by its cases."""
    return list(cg_blocks(400, 400))[-1][1]


@pytest.mark.parametrize("tj1,tm1,tj2,tL,tM", LARGE_J_CASES)
def test_cg_against_sympy_large_j(tj1, tm1, tj2, tL, tM, request):
    sympy_cg = pytest.importorskip("sympy.physics.quantum.cg")
    from sympy import Rational, N as sN

    tm2 = tM - tm1
    want = float(sN(sympy_cg.CG(
        Rational(tj1, 2), Rational(tm1, 2), Rational(tj2, 2), Rational(tm2, 2),
        Rational(tL, 2), Rational(tM, 2)).doit(), 30))
    if tj1 == tj2 == 400:
        # rows m1 ascending from -j1, columns L ascending from 0 (cg_blocks)
        block = request.getfixturevalue("cg_400_400_m0")
        got = float(block[(tm1 + tj1) // 2, tL // 2])
    else:
        got = clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2, tL / 2, tM / 2)
    assert abs(got - want) <= 1e-13


# ---------------------------------------------------------- spherical harmonics

def test_harmonic_constants():
    assert abs(spherical_harmonic(0, 0, 0.3, 1.2) - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-15
    for th in (0.0, 0.4, 1.1, math.pi):
        want = math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(th)
        assert abs(spherical_harmonic(1, 0, th, 0.7) - want) < 1e-14


def test_harmonic_frozen_value():
    # high-precision series oracle value for (L, M) = (2, 1) at (pi/3, pi/4)
    got = spherical_harmonic(2, 1, math.pi / 3.0, math.pi / 4.0)
    want = complex(-0.23654367393939000452, -0.23654367393939000452)
    assert abs(got - want) < 1e-14


def test_harmonic_domain_error():
    with pytest.raises(DomainError):
        spherical_harmonic(2, 3, 0.1, 0.1)
    with pytest.raises(DomainError):
        legendre_norm_table(4, -1, np.array([0.0]))


def test_harmonic_against_mpmath():
    rng = np.random.default_rng(3)
    with mp.workdps(30):
        for _ in range(25):
            L = int(rng.integers(0, 41))
            M = int(rng.integers(-L, L + 1)) if L else 0
            th = float(rng.uniform(0.05, math.pi - 0.05))
            ph = float(rng.uniform(0.0, 2.0 * math.pi))
            want = mp.spherharm(L, M, th, ph)
            got = spherical_harmonic(L, M, th, ph)
            assert abs(got - complex(want)) < 1e-11 * max(1.0, abs(complex(want)))


@given(st.integers(min_value=0, max_value=12), st.data())
def test_harmonic_conjugation_symmetry(L, data):
    M = data.draw(st.integers(min_value=0, max_value=L))
    th = data.draw(st.floats(min_value=0.1, max_value=3.0))
    ph = data.draw(st.floats(min_value=0.0, max_value=6.2))
    y = spherical_harmonic(L, M, th, ph)
    ym = spherical_harmonic(L, -M, th, ph)
    assert abs(ym - ((-1) ** M) * np.conj(y)) < 1e-12


def test_harmonic_orthonormality_gauss_legendre():
    lmax = 10
    x, w = np.polynomial.legendre.leggauss(lmax + 2)
    nphi = 2 * lmax + 3
    phis = 2.0 * math.pi * np.arange(nphi) / nphi
    thetas = np.arccos(x)
    pairs = [(L, M) for L in range(lmax + 1) for M in range(-L, L + 1)]
    table = np.empty((len(pairs), len(x), nphi), dtype=complex)
    for i, (L, M) in enumerate(pairs):
        table[i] = spherical_harmonic(L, M, thetas[:, None], phis[None, :])
    flat = table.reshape(len(pairs), -1)
    wfull = (np.outer(w, np.full(nphi, 2.0 * math.pi / nphi))).ravel()
    gram = (flat * wfull) @ flat.conj().T
    assert np.max(np.abs(gram - np.eye(len(pairs)))) < 1e-8
