import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnd_povm.errors import DomainError, PreconditionError, ResourceCapError
from qnd_povm.spin_state import (CollectiveState, coherent_state,
                                 dicke_state, moments, normalize, overlap,
                                 scale_amplitudes, state_from_json, state_to_json)


def kron_chain(vecs):
    out = vecs[0]
    for v in vecs[1:]:
        out = np.kron(out, v)
    return out


def product_state_moments_oracle(N, theta):
    """<Jz>, <Jz^2> of the N-spin product state by brute force (dim 2^N)."""
    single = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)])
    psi = kron_chain([single] * N)
    # diagonal of Jz over the computational basis: half the (#up - #down)
    dim = 1 << N
    jz = np.array([(N - 2 * bin(i).count("1")) / 2.0 for i in range(dim)])
    w = psi**2
    return float(np.dot(w, jz)), float(np.dot(w, jz * jz))


def test_dicke_basics():
    st5 = dicke_state(5, 5)
    assert np.argmax(np.abs(st5.amps)) == 10
    st5m = dicke_state(5, -5)
    assert np.argmax(np.abs(st5m.amps)) == 0
    assert st5.squared_norm() == 1.0
    with pytest.raises(DomainError):
        dicke_state(5, 6)
    with pytest.raises(DomainError):
        dicke_state(5, 0.5)  # parity mismatch


def test_coherent_small_example():
    st2 = coherent_state(2, math.pi / 2.0)
    want = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5])
    assert np.allclose(st2.amps.real, want, atol=1e-15)
    assert np.allclose(st2.amps.imag, 0.0)


def test_coherent_polar_limits():
    up = coherent_state(12, 0.0)
    assert abs(abs(up.amps[-1]) - 1.0) < 1e-15
    down = coherent_state(12, math.pi)
    assert abs(abs(down.amps[0]) - 1.0) < 1e-15


@pytest.mark.parametrize("N", [1, 2, 3, 7, 20, 100, 511, 1000])
def test_coherent_norm(N):
    for theta in np.linspace(0.0, math.pi, 64):
        assert abs(coherent_state(N, float(theta)).squared_norm() - 1.0) < 1e-10


def test_moments_coherent_equator():
    for N in (2, 10, 100, 200):
        mom = moments(coherent_state(N, math.pi / 2.0))
        assert abs(mom.mean_jx - N / 2.0) < 1e-10 * max(1, N)
        assert abs(mom.mean_jz) < 1e-10
        assert abs(mom.normalized_var - 1.0 / (4.0 * N)) < 1e-12


@pytest.mark.parametrize("N,theta", [(2, 0.3), (5, 1.2), (9, 2.0), (12, 0.77)])
def test_moments_against_product_oracle(N, theta):
    mom = moments(coherent_state(N, theta))
    mz, mz2 = product_state_moments_oracle(N, theta)
    assert abs(mom.mean_jz - mz) < 1e-10
    assert abs(mom.var_jz - (mz2 - mz * mz)) < 1e-10
    # closed forms: <Jz> = (N/2) cos(theta), Var = (N/4) sin^2(theta)
    assert abs(mom.mean_jz - 0.5 * N * math.cos(theta)) < 1e-10
    assert abs(mom.var_jz - 0.25 * N * math.sin(theta) ** 2) < 1e-10


def test_moments_jx_general_theta():
    for N in (3, 40, 200):
        for theta in (0.2, 1.0, 2.5):
            mom = moments(coherent_state(N, theta))
            assert abs(mom.mean_jx - 0.5 * N * math.sin(theta)) < 1e-10 * max(1, N)


def test_moments_dicke():
    mom = moments(dicke_state(6, -2))
    assert mom.mean_jz == -2.0
    assert mom.var_jz == 0.0
    assert abs(mom.mean_jx) < 1e-15


def test_moments_variance_of_a_nearly_dicke_state():
    # <m^2> - <m>^2 cancels to 0 here; the centred sum keeps N sin^2(theta) / 4
    theta, N = 1e-30, 10
    mom = moments(coherent_state(N, theta))
    assert mom.mean_jz == 5.0
    want = N * math.sin(theta) ** 2 / 4.0
    assert abs(mom.var_jz - want) <= 1e-9 * want


def test_moments_requires_normalized():
    bad = CollectiveState(2, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(PreconditionError):
        moments(bad)


def test_overlap_examples():
    psi = coherent_state(8, 0.9)
    assert abs(overlap(psi, psi) - 1.0) < 1e-12
    assert overlap(dicke_state(3, 1), dicke_state(3, 2)) == 0.0
    # opposite equatorial coherent states are exactly orthogonal...
    a = coherent_state(2, math.pi / 2.0)
    b = coherent_state(2, -math.pi / 2.0)
    assert abs(overlap(a, b)) < 1e-15
    # ...with the odd-m partial products summing to one half
    odd = sum(
        (np.conj(a.amps[i]) * b.amps[i]).real
        for i, tm in enumerate(range(-2, 3, 2))
        if (tm // 2) % 2 != 0
    )
    assert abs(odd - 0.5) < 1e-12


def test_overlap_disjoint_sectors():
    # states of different total spin are orthogonal, whatever their m_z
    a = dicke_state(3, 0)
    b = dicke_state(4, 0)
    assert overlap(a, b) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_state_refuses_non_finite_amplitudes(bad):
    amps = np.array([0.6, bad, 0.8], dtype=complex)
    with pytest.raises(DomainError, match="non-finite"):
        CollectiveState(2, amps)
    record = {"sectors": [{"twoJ": 2, "amps": [[z.real, z.imag] for z in amps]}]}
    with pytest.raises(DomainError, match="non-finite"):
        state_from_json(record)


def test_state_checks_its_shape():
    with pytest.raises(DomainError):
        CollectiveState(-1, np.zeros(0))
    with pytest.raises(DomainError):
        CollectiveState(2, np.ones(4))
    st = CollectiveState(3, [1, 0, 0, 0])
    assert st.amps.dtype == complex and not st.amps.flags.writeable
    assert st.m_values().tolist() == [-1.5, -0.5, 0.5, 1.5]
    assert st.index_of(0.5) == 2
    with pytest.raises(DomainError):
        st.index_of(1)  # parity mismatch


def test_a_spin_past_the_cap_is_refused_in_three_digits():
    # 2J = 10**400 once reached the shape message, which printed it in full
    with pytest.raises(ResourceCapError, match=r"^N = 1\.00e\+400 gives a spin dimension of "
                                               r"1\.00e\+400, over the cap of 16777216$"):
        CollectiveState(10**400, [1])


@pytest.mark.parametrize("m_z, shown", [(10**400, "1.00e+400"), (-10**400, "-1.00e+400"),
                                        (1 << 53, "9.01e+15"), ((1 << 53) - 1, str((1 << 53) - 1)),
                                        (np.int64(-1 << 60), "-1.15e+18"), (3, "3"), (2.5, "2.5")])
def test_a_refused_m_z_is_printed_bounded_by_its_magnitude(m_z, shown):
    # 10**400 once printed all 401 digits, and -10**400 its sign as well
    with pytest.raises(DomainError) as exc:
        dicke_state(2, m_z)
    assert str(exc.value) == f"m_z={shown} not in 2J=4"


def test_support_lists_the_nonzero_amplitudes():
    st = CollectiveState(5, np.array([0.6, 0.0, 0.0, 0.8j, 0.0, 0.0]))
    m, w = st.support()
    assert m.tolist() == [-2.5, 0.5]
    assert w == pytest.approx([0.36, 0.64], abs=1e-15)
    # the tails of a large coherent state underflow to exact zeros and drop out
    big = coherent_state(5000, math.pi / 2.0)
    m, w = big.support()
    assert m.size == w.size == 3649
    assert m.tolist() == big.m_values()[big.amps != 0.0].tolist()


def test_scale_amplitudes_runs_over_the_support():
    st = CollectiveState(4, np.array([0.0, 0.6, 0.0, 0.8, 0.0]))
    out = scale_amplitudes(st, np.array([math.log(2.0), 0.0]), np.array([0.0, math.pi]))
    assert out.two_j == 4
    assert out.amps[1] == 1.2
    assert out.amps[3] == 0.8 * np.exp(1j * math.pi)
    # the input is left as it was
    assert st.amps[1] == 0.6 and st.amps[3] == 0.8
    # the zeros are left as they are, +0.0, not 0 times a factor, which is
    # -0.0 under the phase pi
    zeros = out.amps[[0, 2, 4]]
    assert not np.signbit(zeros.real).any() and not np.signbit(zeros.imag).any()
    assert (zeros == 0.0).all()


def test_scale_amplitudes_scales_in_one_exponent():
    # e^750 overflows a double, but 1e-310 e^750 is about e^36: the product
    # is finite, and so is the amplitude it gives
    st = CollectiveState(1, np.array([1e-310, -1.0]))
    out = scale_amplitudes(st, np.array([750.0, 0.0]), np.array([0.5, 0.0]))
    assert np.isfinite(out.amps).all()
    want = math.exp(math.log(1e-310) + 750.0)
    assert out.amps[0] == pytest.approx(want * complex(math.cos(0.5), math.sin(0.5)),
                                        rel=1e-12)
    assert out.amps[1] == pytest.approx(-1.0, rel=1e-15)


def test_serialization_roundtrip():
    rng = np.random.default_rng(0)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    st = normalize(CollectiveState(3, amps))
    data = state_to_json(st)
    assert data["sectors"][0]["twoJ"] == 3
    back = state_from_json(data)
    assert abs(overlap(st, back) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        state_from_json({"sectors": [{"twoJ": 2}]})
    # a record holds exactly one spin block
    for blocks in ([], [data["sectors"][0]] * 2):
        with pytest.raises(DomainError, match="one spin block"):
            state_from_json({"sectors": blocks})


@pytest.mark.parametrize("two_j", [2.5, "2", True])
def test_state_record_refuses_a_spin_that_is_no_whole_number(two_j):
    # 2.5 would truncate to 2J = 2 and "2" would parse; a bool is no spin
    record = {"sectors": [{"twoJ": two_j, "amps": [[0.6, 0.0], [0.0, 0.0], [0.8, 0.0]]}]}
    with pytest.raises(DomainError):
        state_from_json(record)


@pytest.mark.parametrize("two_j", [2, 2.0, np.int64(2)])
def test_state_record_reads_a_whole_spin_in_any_numeric_type(two_j):
    record = {"sectors": [{"twoJ": two_j, "amps": [[0.6, 0.0], [0.0, 0.0], [0.8, 0.0]]}]}
    state = state_from_json(record)
    assert type(state.two_j) is int and state.two_j == 2


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=64),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_coherent_norm_property(N, theta):
    assert abs(coherent_state(N, theta).squared_norm() - 1.0) < 1e-10


def test_normalize_a_state_whose_squared_norm_overflows():
    # |psi|^2 = 2e400 is inf as a double; the state itself is fine
    got = normalize(CollectiveState(2, [1e200, 1e200, 0]))
    assert np.allclose(got.amps, [math.sqrt(0.5), math.sqrt(0.5), 0], rtol=1e-15, atol=0)
    got = normalize(CollectiveState(2, [1e308, 1e308j, 0]))
    assert np.allclose(got.amps, [math.sqrt(0.5), 1j * math.sqrt(0.5), 0], rtol=1e-15, atol=0)


def test_normalize_a_state_whose_squared_norm_underflows():
    # |psi|^2 = 2e-340 is below the smallest double; the state is not zero
    got = normalize(CollectiveState(2, [1e-170, 1e-170, 0]))
    assert np.allclose(got.amps, [math.sqrt(0.5), math.sqrt(0.5), 0], rtol=1e-15, atol=0)
    got = normalize(CollectiveState(2, [0, 5e-324j, 0]))
    assert np.array_equal(got.amps, [0, 1j, 0])
    with pytest.raises(DomainError, match="zero state"):
        normalize(CollectiveState(2, [0, 0, 0]))


def test_normalize_keeps_the_bits_of_ordinary_states():
    rng = np.random.default_rng(3)
    for scale in (1e-150, 1e-3, 1.0, 1e150):
        amps = scale * (rng.normal(size=9) + 1j * rng.normal(size=9))
        want = amps * (1.0 / math.sqrt(float(np.sum(np.abs(amps) ** 2))))
        assert np.array_equal(normalize(CollectiveState(8, amps)).amps, want)
