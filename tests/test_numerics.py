import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnd_povm import _clebsch, approx, numerics, povm, validate
from qnd_povm.analysis import (DensityMatrix, cat_fidelity, cat_state, density_from_state,
                               parity_pattern_check, wigner)
from qnd_povm.errors import DomainError, ResourceCapError
from qnd_povm.numerics import cg_blocks, clebsch_gordan, legendre_sum, log_factorial, twice
from qnd_povm.povm import PhotonOutcome, QndParams
from qnd_povm.spin_state import CollectiveState, coherent_state, dicke_state, state_from_json

from legendre_oracle import legendre_norm_table, legendre_sum_every_column


# ---------------------------------------------------------------------- helpers

def harmonic(L, M, theta, phi):
    """Y_LM(theta, phi) with the Condon-Shortley phase, from `legendre_sum`:
    a table with the one unit coefficient at (L, |M|) gives
    P~_L^|M|(cos theta), times e^{i|M| phi}; Y_{L,-M} = (-1)^M conj(Y_LM)."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
    am = abs(M)
    coeffs = np.zeros((L + 1, L + 1))
    coeffs[L, am] = 1.0
    p = legendre_sum(coeffs, np.cos(theta).ravel())[:, am].real.reshape(theta.shape)
    y = p * np.exp(1j * am * phi)
    return y if M >= 0 else (-1) ** am * np.conj(y)


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


def cg_blocks_eigh(tj1, tj2):
    """(2M, C) as `cg_blocks` gives them, from a dense eigensolver.

    Each fixed-M block of J^2 is diagonalized with eigh (eigenvalues L(L+1)
    ascending); the signs come from the Condon-Shortley construction
    itself: a new highest-weight column |L = M, M> has the sign
    (-1)^(j1 - m1) at its largest component, and every other column is the
    positive multiple of J- applied to the same-L column of block M + 1.
    """
    c1, c2 = tj1 * (tj1 + 2) / 4.0, tj2 * (tj2 + 2) / 4.0
    prev_m1, prev = np.zeros(0), np.zeros((0, 0))
    for tM in range(tj1 + tj2, -1, -2):
        lo = max(-tj1, tM - tj2)
        m1 = np.arange(lo, min(tj1, tM + tj2) + 1, 2) / 2.0
        m2 = tM / 2.0 - m1
        h = np.diag(c1 + c2 + 2.0 * m1 * m2)
        h += np.diag(np.sqrt((c1 - m1[:-1] * (m1[:-1] + 1.0))
                             * (c2 - m2[:-1] * (m2[:-1] - 1.0))), -1)
        block = np.linalg.eigh(h)[1]
        new = block.shape[1] - prev.shape[1]
        if new:
            top = int(np.argmax(np.abs(block[:, 0])))
            want = 1.0 if round(tj1 / 2.0 - m1[top]) % 2 == 0 else -1.0
            block[:, 0] *= want * np.sign(block[top, 0])
        lowered = np.zeros((m1.size, prev.shape[1]))
        prev_m2 = (tM + 2) / 2.0 - prev_m1
        for dm1, coef in ((1.0, np.sqrt(c1 - prev_m1 * (prev_m1 - 1.0))),
                          (0.0, np.sqrt(c2 - prev_m2 * (prev_m2 - 1.0)))):
            keep = coef > 0.0
            rows = np.rint(prev_m1[keep] - dm1 - lo / 2.0).astype(int)
            lowered[rows] += coef[keep, None] * prev[keep]
        block[:, new:] *= np.sign(np.einsum("ij,ij->j", lowered, block[:, new:]))
        yield tM, block
        prev_m1, prev = m1, block


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


@pytest.mark.parametrize("n", [2.5, np.float64(2.5), math.nan, math.inf,
                               np.array([2.5]), np.array([3.0, math.nan])],
                         ids=["float", "float64", "nan", "inf", "array", "nan-array"])
def test_log_factorial_rejects_non_integers(n):
    # 2.5 used to give ln 2!, and a float array an IndexError
    with pytest.raises(DomainError):
        log_factorial(n)


def test_log_factorial_takes_integral_floats():
    assert log_factorial(3.0) == log_factorial(3)
    n = np.array([0.0, 3.0, 300.0])
    assert np.array_equal(log_factorial(n), log_factorial(n.astype(np.int64)))


# ------------------------------------------------------ one refusal of a real

@pytest.mark.parametrize("x, want", [
    (0.25, 0.25), (3, 3.0), (np.float32(0.5), 0.5), (True, 1.0), (np.array(2), 2.0),
    ([1, 2.5], [1.0, 2.5]), (np.arange(3), [0.0, 1.0, 2.0]), ([10**300, -1], [1e300, -1.0])])
def test_finite_reads_float64(x, want):
    if np.ndim(want):
        got = numerics.finite(x, "bad", array=True)
        assert got.dtype == np.float64 and got.tolist() == want
    else:
        got = numerics.finite(x, "bad")
        assert type(got) is float and got == want
        assert numerics.finite(x, "bad", array=True).tolist() == want


@pytest.mark.parametrize("array", [False, True])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 10**400, [0.0, math.nan],
                               [1, 10**400], np.array([1.0, -np.inf]), "1", b"1", None,
                               1j, np.complex128(1.0), [1, [2, 3]], object()])
def test_finite_refuses_with_the_callers_message(x, array):
    with pytest.raises(DomainError, match="^the caller's words$"):
        numerics.finite(x, "the caller's words", array=array)


@pytest.mark.parametrize("x", [[1.0], [1, 2], np.zeros((2, 2))])
def test_finite_refuses_an_array_where_a_scalar_is_read(x):
    with pytest.raises(DomainError, match="^one real$"):
        numerics.finite(x, "one real")


def _entry_points():
    """(name, call of one real argument, whether it is a scalar) for every
    real argument of povm, approx, spin_state and numerics."""
    params, out = QndParams(5.1, 5.0, math.pi / 10.0), PhotonOutcome(20, 30)
    model = approx.gaussian_model(params, out)
    state = dicke_state(5, 2)
    return [
        ("eigen", lambda x: povm.eigen(params, out, [0.0, x]), False),
        ("log_amplitude", lambda x: povm.log_amplitude(params, out, x), True),
        ("amplitude", lambda x: povm.amplitude(params, out, x), True),
        ("log_matrix_element", lambda x: povm.log_matrix_element(params, out, x), True),
        ("log_matrix_element_direct",
         lambda x: povm.log_matrix_element_direct(params, out, x), True),
        ("phase_phi", lambda x: povm.phase_phi(params, x), True),
        ("detector_phases", lambda x: povm.detector_phases(params, x), True),
        ("gamma", lambda x: QndParams(x, 5.0, 0.1), True),
        ("chi", lambda x: QndParams(5.0, x, 0.1), True),
        ("gt", lambda x: QndParams(5.0, 5.0, x), True),
        ("gaussian_amplitude", lambda x: approx.gaussian_amplitude(model, x), True),
        ("project_u", lambda x: approx.project(params, state, x, 2.0), True),
        ("project_m0", lambda x: approx.project(params, state, 25.0, x), True),
        ("coherent_state_theta", lambda x: coherent_state(10, x), True),
        ("mass_tolerance", lambda x: povm.outcome_distribution(params, state, x), True),
        ("log_factorial", log_factorial, True),
        ("legendre_sum", lambda x: legendre_sum(np.eye(2), [0.5, x]), False),
    ]


_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10**400": 10**400}
_NON_NUMBERS = {"str": "0.5", "None": None, "list": [1.0, 2.0]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, x", [
    pytest.param(call, x, id=f"{name}-{label}")
    for name, call, scalar in _entry_points()
    for label, x in (_NON_FINITE | _NON_NUMBERS if scalar else _NON_FINITE).items()])
def test_every_real_argument_refuses_what_finite_refuses(call, x):
    # 10**400 once raised OverflowError everywhere, and coherent_state's inf
    # a math domain ValueError
    with pytest.raises(DomainError):
        call(x)


# ---------------------------------------------------- one refusal of a whole number

_WORDS = ("below {}", "fraction {}", "above {}")


@pytest.mark.parametrize("x, want", [
    (3, 3), (3.0, 3), (np.int64(3), 3), (np.float32(3.0), 3), (np.array(3), 3),
    (np.uint64(2**64 - 1), 2**64 - 1), (2.0**60, 2**60), (10**400, 10**400)])
def test_whole_reads_an_int(x, want):
    got = numerics._whole(x, _WORDS)
    assert type(got) is int and got == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x, message", [
    (-1, "below -1"), (-0.5, "below -0.5"), (-math.inf, "below -inf"),
    (np.int8(-3), "below -3"), (2.5, "fraction 2.5"), (np.float64(1.5), "fraction 1.5"),
    (math.nan, "fraction nan"), (math.inf, "fraction inf"), (True, "fraction True"),
    (np.True_, "fraction True"), ("3", "fraction 3"), (None, "fraction None"),
    (1j, "fraction 1j"), ([3], "fraction [3]"), (np.array([3]), "fraction [3]"),
    (10, "above 10"), (10.0, "above 10"), (10**400, "above 1.00e+400"),
    (1e300, "above 1.00e+300")])
def test_whole_refuses_with_the_callers_message(x, message):
    # below lo first, as a comparison nan passes; then not whole; then at or above hi
    with pytest.raises(DomainError) as exc:
        numerics._whole(x, _WORDS, 0, 10)
    assert str(exc.value) == message


def test_whole_reads_arrays():
    ints, floats = np.arange(5), np.array([0.0, 3.0, 2.0**60])
    assert numerics._whole(ints, _WORDS, array=True) is ints
    assert numerics._whole(floats, _WORDS, array=True) is floats
    # a sequence is read as Python objects: as float64, 2^64 - 1 would round to 2^64
    assert numerics._whole([0, 2**64 - 1], _WORDS, hi=1 << 64, array=True).astype(
        np.uint64).tolist() == [0, 2**64 - 1]
    assert numerics._whole(7, _WORDS, array=True).ndim == 0
    assert numerics._whole([], _WORDS, array=True).size == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x, message", [
    ([1, -1, 2.5], "below -1"), ([1, 2.5, -1], "fraction 2.5"),
    (np.array([1.0, 2.5, -1.0]), "fraction 2.5"), (np.array([3.0, math.inf]), "fraction inf"),
    (np.array([3, 12, -1]), "above 12"), ([3, 10**400], "above 1.00e+400"),
    (np.array([5, 2**70], dtype=object), "above 1.18e+21"), ([True], "fraction True"),
    (np.array([True]), "fraction [ True]"), (["x"], "fraction x"),
    ([[1, 2], [3]], "fraction [1, 2]")])
def test_whole_names_the_first_element_it_refuses(x, message):
    with pytest.raises(DomainError) as exc:
        numerics._whole(x, _WORDS, 0, 10, array=True)
    assert str(exc.value) == message


def _whole_entry_points():
    """(name, call of one whole-number argument, whether the argument is a
    half-integer spin, the out-of-range values it refuses) for every
    whole-number argument of povm, spin_state, analysis, approx, validate
    and numerics."""
    params, out = QndParams(3.0, 3.0, math.pi / 10.0), PhotonOutcome(5, 5)
    state = coherent_state(4, 1.0)
    rho = density_from_state(coherent_state(2, 1.0))
    record = lambda x: {"sectors": [{"twoJ": x, "amps": [[1.0, 0.0], [0.0, 0.0]]}]}
    both, below = {"10**400": 10**400, "-1": -1}, {"-1": -1}
    return [
        ("PhotonOutcome-n_c", lambda x: PhotonOutcome(x, 0), False, both),
        ("PhotonOutcome-n_d", lambda x: PhotonOutcome(0, x), False, both),
        ("condition_many", lambda x: povm.condition_many(params, [x], [1], state), False, both),
        ("condition_many-array",
         lambda x: povm.condition_many(params, [1], np.array([x]), state), False, both),
        ("sample_outcomes", lambda x: povm.sample_outcomes(params, state, [x]), False, both),
        ("sample_outcomes-array",
         lambda x: povm.sample_outcomes(params, state, np.array([x])), False, both),
        ("max_total", lambda x: povm.outcome_distribution(params, state, 1e-6, max_total=x),
         False, below),
        ("CollectiveState", lambda x: CollectiveState(x, [1.0, 0.0]), False, both),
        ("DensityMatrix", lambda x: DensityMatrix(x, np.diag([1.0, 0.0])), False, both),
        ("state_from_json", lambda x: state_from_json(record(x)), False, both),
        ("coherent_state", lambda x: coherent_state(x, 1.0), False, both),
        ("cat_state", cat_state, False, both),
        ("cat_fidelity", lambda x: cat_fidelity(cat_state(1), x), False, both),
        ("parity_pattern_check", lambda x: parity_pattern_check(
            QndParams(5.0, 5.0, math.pi / 2.0), out, x), False, both),
        ("dicke_state", lambda x: dicke_state(x, 0), True, both),
        ("peak_solutions", lambda x: approx.peak_solutions(params, out, x), True, both),
        ("round_to_sector_parity", lambda x: approx.round_to_sector_parity(0.3, x), False, both),
        ("wigner-n_theta", lambda x: wigner(rho, n_theta=x, n_phi=3), False, below),
        ("wigner-n_phi", lambda x: wigner(rho, n_theta=3, n_phi=x), False, below),
        ("run_all", validate.run_all, False, below),
        ("twice", twice, True, {}),
        ("log_factorial", log_factorial, False, below),
        ("log_factorial-array", lambda x: log_factorial(np.array([x])), False, below),
    ]


# the spin sizes, read by spin_state._spin_size: 2J = 10**400 is over the
# size cap, which errors.reserve refuses
_SPIN_SIZES = {"CollectiveState", "DensityMatrix", "state_from_json", "coherent_state",
               "cat_state", "cat_fidelity", "parity_pattern_check", "dicke_state",
               "peak_solutions", "round_to_sector_parity"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, x, error", [
    pytest.param(call, x, ResourceCapError if name in _SPIN_SIZES and label == "10**400"
                 else DomainError, id=f"{name}-{label}")
    for name, call, spin, outside in _whole_entry_points()
    for label, x in ({"nan": math.nan, "inf": math.inf, "str": "x", "bool": True,
                      "fraction": 2.25 if spin else 2.5} | outside).items()])
def test_every_whole_argument_refuses_what_the_reader_refuses(call, x, error):
    # each of these once raised ValueError, TypeError, OverflowError or
    # numpy's UFuncTypeError, or read 2.5 as 2 and True as 1
    with pytest.raises(error):
        call(x)


def test_log_factorial_refuses_where_lgamma_overflows():
    assert log_factorial(2.5e305) < math.inf
    with pytest.raises(DomainError, match="overflows a double"):
        log_factorial(1e306)
    with pytest.raises(DomainError, match="overflows a double"):
        log_factorial(np.array([3.0, 1e306]))


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
    with pytest.raises(DomainError, match="^negative angular momentum j1$"):
        clebsch_gordan(-1, 0, 1, 0, 0, 0)


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
    """The M = 0 block of j1 = j2 = 200, solved on its own and shared by its
    cases."""
    return numerics._cg_block(400, 400, 0)


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


# (2j1, 2j2): integer and half-integer, equal and unequal, and with j1 > j2
# the blocks M < j1 - j2 that have no m1 = j1 row
REFERENCE_PAIRS = ([(a, b) for a in range(7) for b in range(7)]
                   + [(60, 60), (59, 59), (60, 59), (59, 60), (60, 13), (13, 60),
                      (59, 2), (2, 59), (31, 8), (0, 60), (60, 1), (41, 40)])


@pytest.mark.parametrize("tj1,tj2", REFERENCE_PAIRS)
def test_cg_blocks_match_dense_reference(tj1, tj2):
    got = list(cg_blocks(tj1, tj2))
    want = list(cg_blocks_eigh(tj1, tj2))
    assert [t for t, _ in got] == [t for t, _ in want]
    for (tM, block), (_, ref) in zip(got, want):
        assert block.shape == ref.shape
        assert np.max(np.abs(block - ref)) <= 1e-13, tM


def test_scalar_cg_solves_only_its_own_block(monkeypatch):
    solved = []
    real = _clebsch.blocks

    def counting(tj1, tj2, tMs):
        solved.append((tj1, tj2, list(tMs)))
        return real(tj1, tj2, tMs)

    monkeypatch.setattr(_clebsch, "blocks", counting)
    numerics._cg_block.cache_clear()
    clebsch_gordan(200, 3, 200, -3, 120, 0)
    clebsch_gordan(200, 3, 200, -2, 120, 1)
    assert solved == [(400, 400, [0]), (400, 400, [2])]


def test_cg_signs_survive_underflowing_components():
    # at j1 = j2 = 550 the M = 0 edge components of the stretched column
    # L = 2j fall below the doubles; every gamma is exactly 0 there, and its
    # components are C(2j, j + m) / sqrt(C(4j, 2j)), all positive
    j = 550
    block = numerics._cg_block(2 * j, 2 * j, 0)
    assert np.isfinite(block).all()
    col = block[:, -1]
    assert np.count_nonzero(col == 0.0) > 0 and (col >= 0.0).all()
    with mp.workdps(40):
        den = mp.sqrt(math.comb(4 * j, 2 * j))
        want = np.array([float(math.comb(2 * j, j + m) / den) for m in range(-j, j + 1)])
    assert np.max(np.abs(col - want)) <= 1e-15
    # the singlet column L = 0 has the sign (-1)^(j - m1), +1 at m1 = j
    assert block[-1, 0] > 0.0 and block[-2, 0] < 0.0


# ---------------------------------------------------------- spherical harmonics

def test_harmonic_constants():
    assert abs(harmonic(0, 0, 0.3, 1.2) - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-15
    for th in (0.0, 0.4, 1.1, math.pi):
        want = math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(th)
        assert abs(harmonic(1, 0, th, 0.7) - want) < 1e-14


def test_harmonic_frozen_value():
    # high-precision series oracle value for (L, M) = (2, 1) at (pi/3, pi/4)
    got = harmonic(2, 1, math.pi / 3.0, math.pi / 4.0)
    want = complex(-0.23654367393939000452, -0.23654367393939000452)
    assert abs(got - want) < 1e-14


def test_harmonic_against_mpmath():
    rng = np.random.default_rng(3)
    with mp.workdps(30):
        for _ in range(25):
            L = int(rng.integers(0, 41))
            M = int(rng.integers(-L, L + 1)) if L else 0
            th = float(rng.uniform(0.05, math.pi - 0.05))
            ph = float(rng.uniform(0.0, 2.0 * math.pi))
            want = mp.spherharm(L, M, th, ph)
            got = harmonic(L, M, th, ph)
            assert abs(got - complex(want)) < 1e-11 * max(1.0, abs(complex(want)))


@pytest.mark.parametrize("L", [1, 2, 9, 40, 121, 200])
def test_legendre_sum_against_mpmath_to_200(L):
    # the orders M = 0, 1, L/2, L-1 and L from one table, near both poles and
    # in between; mpmath takes theta = arccos of the x the recurrence reads
    ms = sorted({0, 1, L // 2, L - 1, L})
    thetas = np.array([1e-4, 1e-3, 0.3, math.pi / 2.0, math.pi - 1e-3])
    x = np.cos(thetas)
    coeffs = np.zeros((L + 1, L + 1))
    coeffs[L, ms] = 1.0
    got = legendre_sum(coeffs, x)
    worst = 0.0
    with mp.workdps(40):
        for i, xi in enumerate(x.tolist()):
            th = mp.acos(mp.mpf(xi))
            for M in ms:
                want = float(mp.re(mp.spherharm(L, M, th, 0)))
                worst = max(worst, abs(got[i, M].real - want) / max(1.0, abs(want)))
            assert np.count_nonzero(got[i].imag) == 0
    assert worst <= 1e-12


@given(st.integers(min_value=0, max_value=12), st.data())
def test_harmonic_conjugation_symmetry(L, data):
    # the rule Y_{L,-M} = (-1)^M conj(Y_LM) that `wigner` fills its negative-M
    # columns by, held to mpmath's Y_{L,-M}
    M = data.draw(st.integers(min_value=0, max_value=L))
    th = data.draw(st.floats(min_value=0.1, max_value=3.0))
    ph = data.draw(st.floats(min_value=0.0, max_value=6.2))
    y = harmonic(L, M, th, ph)
    with mp.workdps(30):
        ym = complex(mp.spherharm(L, -M, th, ph))
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
        table[i] = harmonic(L, M, thetas[:, None], phis[None, :])
    flat = table.reshape(len(pairs), -1)
    wfull = (np.outer(w, np.full(nphi, 2.0 * math.pi / nphi))).ravel()
    gram = (flat * wfull) @ flat.conj().T
    assert np.max(np.abs(gram - np.eye(len(pairs)))) < 1e-8


@pytest.mark.parametrize("two_j", [0, 1, 6, 100, 200])
def test_legendre_sum_matches_per_m_tables(two_j):
    rng = np.random.default_rng(two_j)
    coeffs = np.tril(rng.normal(size=(two_j + 1,) * 2) + 1j * rng.normal(size=(two_j + 1,) * 2))
    x = np.cos(np.linspace(0.0, math.pi, 181))
    want = np.stack([coeffs[M:, M] @ legendre_norm_table(two_j, M, x)
                     for M in range(two_j + 1)], axis=1)
    got = legendre_sum(coeffs, x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # entries above the diagonal are not read
    assert np.array_equal(legendre_sum(coeffs + np.triu(np.ones_like(coeffs), 1), x), got)


def _random_density(two_j: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(two_j + 1,) * 2) + 1j * rng.normal(size=(two_j + 1,) * 2)
    h = a @ a.conj().T
    return DensityMatrix(two_j, h / np.trace(h).real)


@pytest.mark.parametrize("rho, zero_columns", [
    (lambda: density_from_state(cat_state(100)), slice(1, None, 2)),  # even M alone
    (lambda: density_from_state(dicke_state(50, 7)), slice(1, None)),
    (lambda: density_from_state(coherent_state(60, 1.1)), slice(0)),
    (lambda: _random_density(40, 5), slice(0)),
], ids=["cat", "dicke", "coherent", "random"])
def test_legendre_sum_skips_zero_columns_exactly(rho, zero_columns):
    # the columns of a table with no nonzero coefficient are skipped, and the
    # others come out to the bit as from the pass over every column
    coeffs = rho().multipoles
    assert not coeffs[:, zero_columns].any()
    x = np.cos(np.linspace(0.0, math.pi, 181))
    assert np.array_equal(legendre_sum(coeffs, x), legendre_sum_every_column(coeffs, x))


def test_legendre_sum_skips_scattered_columns_exactly():
    # used columns that are no stride: 0, 3 from L = 5 on, and the last alone
    coeffs = np.zeros((31, 31), dtype=complex)
    coeffs[:, 0], coeffs[5:, 3], coeffs[30, 30] = 1.0, 0.5, 2.0j
    x = np.cos(np.linspace(0.0, math.pi, 19))
    got = legendre_sum(coeffs, x)
    assert np.array_equal(got, legendre_sum_every_column(coeffs, x))
    assert np.flatnonzero(got.any(axis=0)).tolist() == [0, 3, 30]
