"""Keyed streams against numpy's own seeding, and the numpy draw identities
the CLI relies on. A numpy release that changes SeedSequence's hash, the
Philox state layout or a bounded-integer path fails here instead of
changing CSV bytes."""

import numpy as np
import pytest

from isingring.dynamics import CHAIN_DRAW_BLOCK, _uniform_states
from isingring.randomness import RngStream, _spawn_keys, keyed_generators

#: Multi-word seeds (2^32 + 1 is two entropy words, 2^64 + 3 three) hash differently from one-word ones.
SEEDS = [0, 7, 2**32 + 1, 2**64 + 3]
STREAMS = 10**4 + 1  # ids 0..10^4


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_are_seed_sequence_spawn_keys(seed):
    keys = _spawn_keys(seed, np.arange(STREAMS, dtype=np.uint32))
    expected = [np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(2, np.uint64) for k in range(STREAMS)]
    np.testing.assert_array_equal(keys, np.array(expected))


@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_generators_draw_as_rng_stream(seed):
    for k, gen in enumerate(keyed_generators(seed, range(STREAMS))):
        oracle = RngStream(seed, k).generator()
        assert gen.integers(0, 48, size=3).tolist() == oracle.integers(0, 48, size=3).tolist()
        assert gen.random(2).tolist() == oracle.random(2).tolist()
        assert gen.integers(0, 1 << 40) == oracle.integers(0, 1 << 40)
    assert k == STREAMS - 1


def test_keyed_generators_take_ids_in_the_order_given():
    ids = [5, 0, 2**32 - 1, 5]
    draws = [gen.random() for gen in keyed_generators(7, ids)]
    assert draws == [RngStream(7, k).generator().random() for k in ids]


@pytest.mark.parametrize("seed, streams", [(-1, range(3)), (0, [-1]), (0, [2**32]), (0, [1, 2**64 + 3])])
def test_out_of_range_seed_or_id_raises_before_any_draw(seed, streams):
    with pytest.raises(ValueError):
        keyed_generators(seed, streams)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 48, 62, 63, 100])
def test_batched_uniform_starts_equal_scalar_draws(seed, n):
    # hitting draws its starts as one batch; iter_chain's "uniform" start and spectra at 'inf' draw one at a time
    batched = _uniform_states(n, 300, RngStream(seed).generator())
    gen = RngStream(seed).generator()
    assert batched == [_uniform_states(n, 1, gen)[0] for _ in range(300)]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [2, 8, 32, 48, 63, 64, 100, 200])
def test_uniform_states_in_blocks_equal_one_draw(seed, n):
    # hitting draws its starts CHAIN_DRAW_BLOCK at a time
    count = 10000
    gen = RngStream(seed).generator()
    blocks = [bits for lo in range(0, count, CHAIN_DRAW_BLOCK)
              for bits in _uniform_states(n, min(CHAIN_DRAW_BLOCK, count - lo), gen)]
    assert blocks == _uniform_states(n, count, RngStream(seed).generator())


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [33, 48, 63])
def test_uniform_states_keep_the_bounded_integer_draws(seed, n):
    # hitting at n = 48 and n = 63 keeps the starts of version 0.5.0
    expected = RngStream(seed).generator().integers(0, 1 << n, size=300).tolist()
    assert _uniform_states(n, 300, RngStream(seed).generator()) == expected


@pytest.mark.parametrize("n", [2, 31, 32, 64, 65, 100, 128])
def test_uniform_states_fill_n_bits(n):
    states = _uniform_states(n, 200, RngStream(5).generator())
    assert all(type(bits) is int and 0 <= bits < 1 << n for bits in states)
    assert any(bits >> (n - 1) for bits in states)
    assert len(set(states)) >= min(1 << n, 100)
