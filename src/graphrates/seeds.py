"""Deterministic child seeds and the random streams they start.

Samplers and the Monte Carlo harness never share RNG streams; every unit of
work (graph, replica block) gets its own seed derived from the base seed and
its integer coordinates, so replicas can run in any order or in parallel and
still reproduce bit-identical results.

Every stream is numpy's default_rng(seed): PCG64 keyed by SeedSequence(seed).
A one-seed sampler calls default_rng. A batch expands its seeds once:
generators computes every seed's key in one vectorized pass of SeedSequence's
uint32 hash, and child_seeds derives a run of child seeds as one uint64 array.
"""

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .measures import _whole

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M32 = (1 << 32) - 1


def _mix(z):
    # splitmix64 finalizer, on an int or, wrapping, on a uint64 array
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def check_seed(seed):
    """seed as an int when it is an integer in [0, 2**64), a whole float or numpy integer
    included; anything else is a ValueError, never truncated or wrapped."""
    try:
        value = _whole(seed, "seed")
        if 0 <= value <= _MASK:
            return value
    except ValueError:
        pass
    raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def derive_child_seed(base, *parts):
    """Fold integer coordinates into a 64-bit child seed, splitmix-style.

    derive_child_seed(s, a, b) != derive_child_seed(s, b, a) in general;
    order of coordinates is significant and part of the contract. Each
    coordinate is read by check_seed, so none is truncated or wrapped.
    """
    s = _mix(check_seed(base))
    for p in parts:
        s = (s + _GAMMA) & _MASK
        s = _mix(s ^ check_seed(p))
    return s


def child_seeds(base, count):
    """[derive_child_seed(base, i) for i in range(count)] as a uint64 array, mixed at once."""
    return _mix(np.arange(count, dtype=np.uint64) ^ ((_mix(check_seed(base)) + _GAMMA) & _MASK))


# ---------------------------------------------------------------------------
# SeedSequence(s).generate_state(4, np.uint64), the PCG64 key of default_rng(s),
# for many seeds at once. The steps and constants are numpy's (bit_generator.pyx);
# every operand is a uint32 array, so the arithmetic wraps mod 2**32 under any
# promotion rule and never warns.


def _hash_steps(init, mult, count):
    """The xors and the multipliers of count hash steps as a (2, count, 1) array; their
    chain init, init mult, ... mod 2**32 is the same for every seed."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _M32)
    return np.array([chain[:-1], chain[1:]], np.uint32)[:, :, None]


# 16 steps mix the four-word entropy pool, 8 draw the key's eight 32-bit words from it
_POOL_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_KEY_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hash(x, steps):
    x = (x ^ steps[0]) * steps[1]
    return x ^ (x >> _SHIFT)


def _key_words(seeds):
    """Rows of SeedSequence(s).generate_state(4, np.uint64) for a uint64 array of seeds."""
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    # the seed's 32-bit words, low first; past them the pool hashes zeros
    pool[0], pool[1] = seeds & _M32, seeds >> 32
    pool = _hash(pool, _POOL_STEPS[:, :4])
    for src in range(4):
        # src mixes into the other three words, each with its own step
        dst, steps = [d for d in range(4) if d != src], _POOL_STEPS[:, 3 * src + 4:3 * src + 7]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], steps)
        pool[dst] = mixed ^ (mixed >> _SHIFT)
    words = _hash(np.tile(pool, (2, 1)), _KEY_STEPS)
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


class _Key:
    """One seed's precomputed key, which PCG64 reads as it would read SeedSequence(seed)."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for (4, np.uint64)


ISeedSequence.register(_Key)


def generators(seeds):
    """Generators equal draw for draw to default_rng(s) for the seeds s, yielded one at a time.

    The seeds are checked by check_seed (a uint64 array, as from child_seeds, needs no
    check) and their keys computed in one pass up front. The pass costs about 0.05 ms, so
    a one-seed sampler keeps default_rng.
    """
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        seeds = np.array([check_seed(s) for s in seeds], dtype=np.uint64)
    return (Generator(PCG64(_Key(words))) for words in _key_words(seeds))
