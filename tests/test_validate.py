import math

import numpy as np
import pytest

from qnd_povm.povm import QndParams, _uniforms
from qnd_povm.spin_state import coherent_state
from qnd_povm.validate import (_Draws, _gauss_legendre, check_table_against_conditioner,
                               run_all)


def test_run_all_repeats_for_a_seed_and_moves_with_it():
    first = run_all(1)
    assert run_all(1) == first
    assert all(check.passed for check in first), [c for c in first if not c.passed]
    # the dual-form line reports the worst of its draws, which a new seed moves
    assert run_all(2)[0].value != first[0].value


def test_draws_are_the_splitmix_stream_of_the_seed():
    # uniform k of a stream is SplitMix64's output k + 1 from the seed mod
    # 2^64, which `povm._uniforms` gives as output 1 from seed + k increments
    seeds = np.array([(3 + k * 0x9E3779B97F4A7C15) % (1 << 64) for k in range(800)],
                     dtype=np.uint64)
    want = _uniforms(seeds, 0)
    draws = _Draws(3 + (1 << 64), 0)
    assert [draws.uniform(0.0, 1.0) for _ in range(300)] == want[:300].tolist()
    # scalar draws come from blocks of 256 drawn ahead, and a vector draw
    # takes the uniforms after them: here 512..515
    u, t = want[512:514], 2.0 * math.pi * want[514:516]
    r = np.sqrt(-2.0 * np.log1p(-u))
    assert draws.normal(4).tolist() == np.concatenate((r * np.cos(t), r * np.sin(t))).tolist()
    assert [draws.uniform(0.0, 1.0) for _ in range(212)] == want[300:512].tolist()
    assert draws.uniform(0.0, 1.0) == want[516]


def test_streams_of_one_seed_do_not_overlap():
    seen = np.concatenate([_Draws(7, k).normal(20_000) for k in range(5)])
    assert np.unique(seen).size == seen.size


def test_normal_has_unit_variance_and_zero_mean():
    n = 100_000
    z = _Draws(20260810, 3).normal(n)
    assert z.shape == (n,)
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert _Draws(1, 0).normal((101, 3)).shape == (101, 3)


@pytest.mark.parametrize("lo, hi", [(0, 1), (-40, 41), (0, 61), (-3, 0), (5, 7)])
def test_integers_stay_in_their_half_open_range(lo, hi):
    draws = _Draws(11, 0)
    got = {draws.integers(lo, hi) for _ in range(5000)}
    assert got == set(range(lo, hi))


def test_choice_without_replacement_is_distinct_and_in_range():
    for n, size in ((1, 1), (7, 7), (1000, 100), (10 ** 6, 500)):
        picks = _Draws(5, 1).choice(n, size, replace=False)
        assert len(set(picks.tolist())) == size and 0 <= picks.min() and picks.max() < n
    assert sorted(_Draws(5, 1).choice(7, 7, replace=False).tolist()) == list(range(7))
    for size, replace in ((4, False), (2, True)):
        with pytest.raises(ValueError):
            _Draws(5, 1).choice(3, size, replace=replace)


def test_the_table_check_draws_its_rows_from_draws():
    params = QndParams(gamma=5.1, chi=5.0, gt=math.pi / 10.0)
    check = check_table_against_conditioner(params, coherent_state(20, 1.1), 1e-9,
                                            rng=_Draws(1, 5), rows=100)
    assert check.passed and " 100 of " in check.detail, check


@pytest.mark.parametrize("n", [1, 2, 14, 40])
def test_gauss_legendre_nodes_match_numpy(n):
    x, w = _gauss_legendre(n)
    want_x, want_w = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - want_x)) < 1e-14
    assert np.max(np.abs(w - want_w)) < 1e-14
