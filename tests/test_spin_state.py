import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnd_povm.errors import DomainError, PreconditionError
from qnd_povm.spin_state import (CollectiveState, Sector, coherent_state,
                                 dicke_state, moments, normalize,
                                 overlap, state_from_json, state_to_json)


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
    assert np.argmax(np.abs(st5.sectors[0].amps)) == 10
    st5m = dicke_state(5, -5)
    assert np.argmax(np.abs(st5m.sectors[0].amps)) == 0
    assert st5.squared_norm() == 1.0
    with pytest.raises(DomainError):
        dicke_state(5, 6)
    with pytest.raises(DomainError):
        dicke_state(5, 0.5)  # parity mismatch


def test_coherent_small_example():
    st2 = coherent_state(2, math.pi / 2.0)
    want = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5])
    assert np.allclose(st2.sectors[0].amps.real, want, atol=1e-15)
    assert np.allclose(st2.sectors[0].amps.imag, 0.0)


def test_coherent_polar_limits():
    up = coherent_state(12, 0.0)
    assert abs(abs(up.sectors[0].amps[-1]) - 1.0) < 1e-15
    down = coherent_state(12, math.pi)
    assert abs(abs(down.sectors[0].amps[0]) - 1.0) < 1e-15


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


def test_moments_requires_normalized():
    bad = CollectiveState((Sector(2, np.array([1.0, 1.0, 0.0])),))
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
        (np.conj(a.sectors[0].amps[i]) * b.sectors[0].amps[i]).real
        for i, tm in enumerate(range(-2, 3, 2))
        if (tm // 2) % 2 != 0
    )
    assert abs(odd - 0.5) < 1e-12


def test_overlap_disjoint_sectors():
    a = dicke_state(3, 0)
    b = dicke_state(4, 0)
    assert overlap(a, b) == 0.0


def test_multi_sector_state():
    s1 = Sector(2, np.array([0.5, 0.0, 0.5]))
    s2 = Sector(5, np.zeros(6, dtype=complex))
    st = CollectiveState((s1, s2))
    assert abs(st.squared_norm() - 0.5) < 1e-15
    nst = normalize(st)
    assert abs(nst.squared_norm() - 1.0) < 1e-15
    with pytest.raises(DomainError):
        CollectiveState((s1, Sector(2, np.array([1.0, 0, 0]))))  # duplicate sector


def test_serialization_roundtrip():
    rng = np.random.default_rng(0)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    st = normalize(CollectiveState((Sector(3, amps),)))
    data = state_to_json(st)
    assert data["sectors"][0]["twoJ"] == 3
    back = state_from_json(data)
    assert abs(overlap(st, back) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        state_from_json({"sectors": [{"twoJ": 2}]})


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=64),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_coherent_norm_property(N, theta):
    assert abs(coherent_state(N, theta).squared_norm() - 1.0) < 1e-10
