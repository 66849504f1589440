"""Deterministic random streams for chains and experiments.

Streams are numpy Philox counter-based generators keyed by
SeedSequence(seed, spawn_key=(stream,)), so identical (seed, stream) pairs
reproduce trajectories bit-for-bit and distinct stream ids give independent
parallel chains.

``RngStream(seed, stream).generator()`` builds one such generator from numpy's
own ``SeedSequence`` and ``Philox`` (about 20 us). ``keyed_generators`` gives
the same generators for many stream ids in turn at about 1 us each: it
computes every Philox key in one numpy pass of ``SeedSequence``'s hash, then
re-keys one ``Philox`` per id with a zero counter and an empty buffer. It
relies on numpy's seeding algorithm and Philox state layout; the tests pin
both against ``RngStream``, so a numpy change fails them instead of changing
CSVs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# numpy's SeedSequence hash (bit_generator.pyx, after M. E. O'Neill's seed_seq_fe)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
#: ``keyed_generators`` turns this many keys at a time into Python ints.
_KEY_BLOCK = 256


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(seq))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream (fresh generator) or a Generator (used in place)."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def _hash_words(words: np.ndarray, const: int, mult: int) -> tuple:
    """SeedSequence's hashmix of uint32 ``words`` at hash constant ``const``; returns (hashed, next const)."""
    hashed = words ^ np.uint32(const)
    const = const * mult & _MASK32
    hashed *= np.uint32(const)
    hashed ^= hashed >> np.uint32(16)
    return hashed, const


def _spawn_keys(seed: int, streams: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(s,)).generate_state(2, np.uint64)`` for each uint32 id s, as (len, 2) uint64.

    The spawn word is the last entropy word SeedSequence mixes into its pool,
    so the pool before it is ``SeedSequence(seed).pool``, and only the four
    mixing steps of the spawn word and the output hash depend on s.
    """
    seed_words = max(1, -(-seed.bit_length() // 32))
    # hashmix calls before the spawn word: one per pool word, then one per ordered pair of
    # pool words, then one per pool word for each seed word past the pool
    calls = _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1) + _POOL_SIZE * max(0, seed_words - _POOL_SIZE)
    const = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32
    out_const = _INIT_B
    words = []
    for pool_word in np.random.SeedSequence(seed).pool.tolist():
        hashed, const = _hash_words(streams, const, _MULT_A)
        mixed = np.uint32(_MIX_L * pool_word & _MASK32) - hashed * np.uint32(_MIX_R)
        mixed ^= mixed >> np.uint32(16)
        state_word, out_const = _hash_words(mixed, out_const, _MULT_B)
        words.append(state_word.astype(np.uint64))
    # generate_state(2, uint64) views the four uint32 words as two little-endian uint64 words
    return np.stack([words[0] | words[1] << np.uint64(32), words[2] | words[3] << np.uint64(32)], axis=1)


def keyed_generators(seed: int, streams: Iterable[int]) -> Iterator[np.random.Generator]:
    """Yield, for each stream id s in turn, a generator that draws as ``RngStream(seed, s).generator()``.

    One Philox is re-keyed for each id, so a yielded generator is valid only
    until the next one is taken. Ids are spawn words below 2^32. A negative
    seed or an id out of range raises ``ValueError`` here, before any draw.
    The keys are held as one uint64 array and turned into Python ints
    ``_KEY_BLOCK`` at a time, for the state setter.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    try:
        ids = np.fromiter(map(operator.index, streams), dtype=np.uint32)
    except OverflowError as exc:
        raise ValueError(f"need stream ids in [0, 2^32): {exc}") from None
    keys = _spawn_keys(seed, ids)
    bit_generator = np.random.Philox(0)
    # a freshly seeded Philox: zero counter, empty buffer (buffer_pos at its end), no cached half-word;
    # plain lists make the state setter about twice as fast as arrays
    fresh = bit_generator.state
    key_slot = {"counter": fresh["state"]["counter"].tolist(), "key": None}
    state = {**fresh, "state": key_slot, "buffer": fresh["buffer"].tolist()}

    def rekeyed():
        gen = np.random.Generator(bit_generator)
        for lo in range(0, len(keys), _KEY_BLOCK):
            for key in keys[lo:lo + _KEY_BLOCK].tolist():
                key_slot["key"] = key
                bit_generator.state = state
                yield gen

    return rekeyed()
