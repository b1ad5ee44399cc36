"""Deterministic child seeds.

Samplers and the Monte Carlo harness never share RNG streams; every unit of
work (a graph, a replica block, a conditional batch) gets its own seed derived
from the base seed and its integer coordinates, so units can run in any order
or in parallel and still reproduce bit-identical results. Every stream is
numpy's default_rng(seed); a conditional batch is one unit with one seed, and
draws its graphs one after another from that one stream.
"""

from .measures import _whole

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    # splitmix64 finalizer on a 64-bit int
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
