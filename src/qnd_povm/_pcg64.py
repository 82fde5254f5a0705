"""The first double of numpy's `Generator(PCG64(seed))`, for an array of seeds.

`np.random.Generator(np.random.PCG64(s)).random()` is fixed integer
arithmetic on the seed s (numpy keeps bit streams stable across versions,
NEP 19):

1. `SeedSequence(s)` hashes the 32-bit words of s into a pool of four words
   (`hashmix`), then mixes every ordered pair of pool words (`mix`); pool
   words past the end of s hash a zero, so a seed below 2^32 (one word)
   fills the pool as its zero high word would;
2. `generate_state(4, uint64)` hashes the pool, cycled, into eight words,
   read little-endian as the 128-bit initial state and stream;
3. `pcg64_srandom_r` seeds the 128-bit LCG: state = inc + initial state,
   stepped once, with inc = 2 stream + 1;
4. `random()` steps once more, applies XSL-RR and keeps the top 53 bits.

Here each stage runs over the whole seed array at once, in wrapping uint32
and uint64 array arithmetic; a 128-bit value is a pair (high, low) of
uint64 arrays.  Every product and sum has an array operand: numpy warns on
integer overflow in scalar arithmetic, not in array arithmetic, so a block
of one seed stays silent.
"""

from __future__ import annotations

import numpy as np

_U32 = np.uint32
_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_SHIFT = _U32(16)
_POOL_WORDS = 4
# SeedSequence's mixing constants (numpy/random/bit_generator.pyx)
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
# PCG64's 128-bit LCG multiplier, as its high and low halves
_MULT_HI = _U64(2549297995355413924)
_MULT_LO = _U64(4865540595714422341)


def _hash_calls(const, mult, count):
    """The (xor, multiply) constants of `count` successive `hashmix` calls,
    as uint32 column vectors.

    Each call xors its value with the running constant, steps the constant
    (times `mult`, mod 2^32) and multiplies by the new one; the sequence is
    the same for every seed.
    """
    xors, mults = [], []
    for _ in range(count):
        xors.append(const)
        const = const * mult & 0xFFFFFFFF
        mults.append(const)
    return np.array(xors, _U32)[:, None], np.array(mults, _U32)[:, None]


# the 16 calls that fill and mix the pool, and the 8 that read it out
_POOL_XOR, _POOL_MULT = _hash_calls(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MULT = _hash_calls(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(values, xors, mults):
    """SeedSequence's `hashmix` of uint32 rows, one call's constants per row."""
    values = (values ^ xors) * mults
    return values ^ (values >> _SHIFT)


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _SHIFT)


def _mulhi(a, b):
    """High 64 bits of the full 128-bit product of uint64 a and b."""
    a0, a1 = a & _M32, a >> _U64(32)
    b0, b1 = b & _M32, b >> _U64(32)
    cross0, cross1 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U64(32)) + (cross0 & _M32) + (cross1 & _M32)
    return a1 * b1 + (cross0 >> _U64(32)) + (cross1 >> _U64(32)) + (mid >> _U64(32))


def _add(a_hi, a_lo, b_hi, b_lo):
    """a + b mod 2^128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step, state * MULT + inc mod 2^128."""
    prod_hi = _mulhi(lo, _MULT_LO) + lo * _MULT_HI + hi * _MULT_LO
    return _add(prod_hi, lo * _MULT_LO, inc_hi, inc_lo)


def first_uniforms(seeds: np.ndarray) -> np.ndarray:
    """`Generator(PCG64(s)).random()` of each s of a 1-d uint64 array."""
    # the pool: the hashed low and high words of each seed, then zeros
    pool = np.zeros((_POOL_WORDS, seeds.size), _U32)
    pool[0] = seeds & _M32
    pool[1] = seeds >> _U64(32)
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    # mix word src into each other word; those three calls are independent
    for src in range(_POOL_WORDS):
        dst = [i for i in range(_POOL_WORDS) if i != src]
        calls = slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _POOL_XOR[calls], _POOL_MULT[calls]))

    # generate_state(4, uint64): eight words, cycling the pool, paired low-high
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_XOR, _OUT_MULT).astype(_U64)
    init_hi, init_lo, seq_hi, seq_lo = words[0::2] | (words[1::2] << _U64(32))

    inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
    inc_lo = (seq_lo << _U64(1)) | _U64(1)
    # from state 0, the first step leaves inc
    hi, lo = _add(inc_hi, inc_lo, init_hi, init_lo)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    # XSL-RR: the xor of the halves rotated right by the top 6 bits
    x, rot = hi ^ lo, hi >> _U64(58)
    out = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    return (out >> _U64(11)).astype(np.float64) * 2.0 ** -53
