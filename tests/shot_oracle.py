"""A reference for the package's shot draws, in plain Python.

`splitmix64` transcribes Vigna's splitmix64.c (public domain) on Python
integers.  `draw` makes the sampler's draw for one seed from the beam
amplitudes alone: u0 picks m_z by inverse CDF over |psi_m|^2, then u1 and
u2 pick n_c and n_d by inverse CDF of Pois(|alpha_c|^2) and
Pois(|alpha_d|^2), summed from n = 0 with `math.lgamma`.  It shares no code
with the package and draws no numpy random numbers.
"""

import cmath
import math

MASK = (1 << 64) - 1


def splitmix64(x):
    """(next state, output) of splitmix64.c's next() from state x."""
    x = (x + 0x9E3779B97F4A7C15) & MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return x, z ^ (z >> 31)


def uniforms(seed, count=3):
    """The first `count` doubles of the stream from state `seed`: each
    output's top 53 bits times 2^-53."""
    out = []
    for _ in range(count):
        seed, z = splitmix64(seed)
        out.append((z >> 11) * 2.0 ** -53)
    return out


def _first_above(terms, target):
    """The least n with terms(0) + ... + terms(n) > target."""
    n, total = 0, terms(0)
    while total <= target:
        n += 1
        total += terms(n)
    return n


def _poisson(lam):
    if lam == 0.0:
        return lambda n: float(n == 0)
    log_lam = math.log(lam)
    return lambda n: math.exp(n * log_lam - lam - math.lgamma(n + 1.0))


def port_means(params, m):
    """|alpha_c|^2 and |alpha_d|^2, the two ports' mean counts given m_z."""
    rot = cmath.exp(-0.5j * params.gt * m)
    a_c = (params.gamma * rot + 1j * params.chi / rot) / math.sqrt(2.0)
    a_d = (1j * params.gamma * rot + params.chi / rot) / math.sqrt(2.0)
    return abs(a_c) ** 2, abs(a_d) ** 2


def draw(params, state, seed):
    """(n_c, n_d) of the shot keyed by `seed`."""
    u0, u1, u2 = uniforms(seed)
    live = [(m, abs(a) ** 2) for m, a in zip(state.m_values().tolist(),
                                             state.amps.tolist()) if a != 0]
    total = 0.0
    for _, w in live:
        total += w
    m = live[_first_above(lambda i: live[i][1], u0 * total)][0]
    lam_c, lam_d = port_means(params, m)
    return _first_above(_poisson(lam_c), u1), _first_above(_poisson(lam_d), u2)
