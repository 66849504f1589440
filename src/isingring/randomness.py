"""Deterministic random streams for chains and experiments.

Streams are numpy Philox counter-based generators keyed by
SeedSequence(seed, spawn_key=(stream,)), so identical (seed, stream) pairs
reproduce trajectories bit-for-bit and distinct stream ids give independent
parallel chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
