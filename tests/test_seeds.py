import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrates import ColorCounts, PairCounts, sample_conditional
from graphrates.seeds import _key_words, child_seeds, derive_child_seed, generators

# one and two 32-bit words, and the ends of each
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
REFUSAL = r"seed must be an integer in \[0, 2\*\*64\), got "


def _numpy_keys(seeds):
    return np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])


def test_key_words_are_numpy_seed_sequence_state():
    # one batch, so every row runs through the same vectorized pass; no overflow warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys = _key_words(np.array(EDGE_SEEDS, dtype=np.uint64))
    assert keys.dtype == np.uint64 and keys.shape == (len(EDGE_SEEDS), 4)
    assert np.array_equal(keys, _numpy_keys(EDGE_SEEDS))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 64 - 1))
def test_key_words_match_numpy_for_any_seed(seed):
    assert np.array_equal(_key_words(np.array([seed], dtype=np.uint64)), _numpy_keys([seed]))


def test_generators_draw_as_default_rng():
    seeds = EDGE_SEEDS + [derive_child_seed(9, i) for i in range(20)]
    rngs = generators(seeds)
    assert iter(rngs) is rngs  # yielded one at a time, never held as a list
    for seed, rng in zip(seeds, rngs, strict=True):
        want = np.random.default_rng(seed)
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.integers(0, 2 ** 64, 8, dtype=np.uint64),
                              want.integers(0, 2 ** 64, 8, dtype=np.uint64))
        assert np.array_equal(rng.choice(50, 5, replace=False, shuffle=False),
                              want.choice(50, 5, replace=False, shuffle=False))
    assert list(generators([])) == []


@pytest.mark.parametrize("base", [0, 8080, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_child_seeds_match_derive_child_seed(base, count):
    seeds = child_seeds(base, count)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_child_seed(base, i) for i in range(count)]


def test_generators_take_child_seeds_as_they_are():
    seeds = child_seeds(77, 5)
    for seed, rng in zip(seeds.tolist(), generators(seeds), strict=True):
        assert rng.random() == np.random.default_rng(seed).random()


@pytest.mark.parametrize("seed", [7.5, True, -1, 2 ** 64],
                         ids=["fraction", "bool", "negative", "past-64-bits"])
def test_generators_refuse_a_seed_outside_64_bits(seed):
    # default_rng raised TypeError for 7.5, read True as 1 and accepted 2**64; the
    # seeds are checked when generators is called, before any stream is drawn
    with pytest.raises(ValueError, match=REFUSAL + re.escape(repr(seed))):
        generators([1, seed])
    with pytest.raises(ValueError, match=REFUSAL):
        sample_conditional(ColorCounts(4, [4]), PairCounts(4, [[2]]), seed)


def test_generators_read_a_whole_number_as_its_integer():
    for seed in (7.0, np.uint64(2 ** 64 - 1), np.int64(3)):
        assert next(generators([seed])).random() == np.random.default_rng(int(seed)).random()


@pytest.mark.parametrize("bad", [7.9, True, -1, 2 ** 64],
                         ids=["fraction", "bool", "negative", "past-64-bits"])
def test_child_seed_coordinates_refuse_what_is_not_a_64_bit_integer(bad):
    # each coordinate was read as int(x) & (2**64 - 1): 7.9 ran as 7, True as 1, -1 as
    # 2**64 - 1 and 2**64 as 0
    for call in (lambda: derive_child_seed(bad, 1), lambda: derive_child_seed(7, bad),
                 lambda: derive_child_seed(7, 1, bad), lambda: child_seeds(bad, 3)):
        with pytest.raises(ValueError, match=REFUSAL + re.escape(repr(bad))):
            call()


def test_child_seed_coordinates_read_whole_numbers_as_their_integers():
    top = 2 ** 64 - 1
    assert derive_child_seed(np.uint64(top), np.int64(3), 7.0) == derive_child_seed(top, 3, 7)
    assert child_seeds(np.uint64(top), 4).tolist() == child_seeds(top, 4).tolist()
