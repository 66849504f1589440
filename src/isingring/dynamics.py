"""Stochastic samplers for the ring: Wolff cluster updates, Glauber heat-bath
updates, chain runners, exact stationary sampling, and critical-point hitting
times. Every sampler takes and returns bit-packed states (bit b is site b+1).

Starting laws, one draw each at any n: a uniform state is a row of one
(count, ceil(n/64)) block of full-range uint64 words, most significant first
and the first cut to its top bits (``_uniform_states``); Gibbs states take one
(pending, n + 1) block of uniforms per attempt, and the rows with an odd
domain-wall count are redrawn, in row order (``sample_stationary_many``).
Both return n-bit ints.

Every Wolff update comes from one arc-law engine. On the ring a Wolff
cluster is an arc, and the stack growth is equivalent to truncated-geometric
extensions right and left of a uniform seed: extending by g sites within the
seed's component has probability bond_prob^g * bond_miss below the cap and
bond_prob^cap at it. The law is written once on bit-packed states:
``_wolff_arc_block`` on Python ints (any n) and its uint64 twin
``_arc_runs`` + ``_arc_flip_masks`` (n <= 64). RNG consumption per step: one
integer plus two uniforms, drawn in blocks of seeds, then right uniforms,
then left uniforms (``_arc_draws``). Chains (``iter_chain``) draw one block
of up to ``CHAIN_DRAW_BLOCK`` steps at a time and step it in one tight loop;
``hitting_time_aligned`` draws one block of n + 1 steps, steps the c merges
the plus-component count c predicts, and the rest only if none of those
states is aligned, in chunks of ``HIT_STEP_CHUNK`` states.
The kernel's bulk one-step sampler draws one block per call and uses the
twin. The kernel's ``empirical_vs_exact`` checks the bulk sampler against
the exact kernel rows; the stack algorithm, checked the same way, is an
oracle in the test suite (``tests/_oracles.py``).

Glauber paths read one heat-bath table, ``_glauber_flip_probs``; chains draw
sites, then uniforms, in the Wolff blocks, turn each block's uniforms into
flip thresholds in numpy (``_glauber_keys``) and step the block in one tight
loop on the doubled frustrated-bond mask (``_doubled_bonds``,
``_glauber_block``). The kernel's bulk one-step sampler reads the same keys
and ``_GLAUBER_FLIPS`` table on the same mask.

``iter_chain`` is the one chain driver. Y_1 is an n-bit int or is drawn by
name from a law in ``INITIAL_LAWS`` on the chain's own generator, and the
chain of either dynamics streams out as bit-packed ints, with no
``Configuration`` per state; ``np.fromiter(chain, np.uint64, count=steps)``
stores one at n <= 64.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator

import numpy as np

from .clusters import plus_component_count
from .model import (
    Configuration,
    ModelParams,
    _rotated_bits,
    derived_constants,
    gibbs_measure,  # unused here; bench/tracer.py rebinds this name on dynamics
)
from .randomness import as_generator

WOLFF = "wolff"
GLAUBER = "glauber"

#: The CLI refuses a ``simulate`` or ``hitting`` run whose held states exceed this many bytes.
STORAGE_BUDGET = 256 * 1024 * 1024

#: Chains pre-draw the randomness of at most this many steps at once.
CHAIN_DRAW_BLOCK = 4096

#: The laws ``iter_chain`` draws Y_1 from, by name.
INITIAL_LAWS = ("stationary", "all-plus", "uniform")


def _glauber_flip_probs(j_hat: float) -> np.ndarray:
    """Heat-bath flip probability of a site with 0, 1 or 2 neighbours aligned with it.

    Raises ValueError where e^{2J} overflows a float64 (J above about 354.9).
    """
    with np.errstate(over="ignore"):
        e2, em2 = np.exp(2.0 * j_hat), np.exp(-2.0 * j_hat)
    if math.isinf(e2):
        raise ValueError(f"the heat-bath odds e^(2j) overflow a float64 at j_hat={j_hat!r}")
    return np.array([e2 / (e2 + em2), 0.5, em2 / (e2 + em2)])


#: Row t, column the two frustrated-bond bits of a site (its left bond, then
#: its right): the site flips iff fewer than t of its two bonds are aligned.
_GLAUBER_FLIPS = (
    False, False, False, False,
    False, False, False, True,
    False, True, True, True,
    True, True, True, True,
)


def _glauber_keys(us: np.ndarray, flip_probs: np.ndarray) -> np.ndarray:
    """Row offsets 4t into ``_GLAUBER_FLIPS``, t = (u < p0) + (u < p1) + (u < p2) per uniform u.

    For j >= 0 the flip probability does not increase with the aligned count
    a, so u < flip_probs[a] iff a < t: the same float64 comparisons as the
    heat-bath rule, made once per block in numpy.
    """
    t = (us < flip_probs[0]).astype(np.int64) + (us < flip_probs[1]) + (us < flip_probs[2])
    return t << 2


def _doubled_bonds(bits, n: int):
    """The frustrated-bond mask with bond n-1 repeated below bond 0: bit k holds bond k-1 mod n, k = 0..n.

    Site i's left and right bonds are then bits i and i+1, the column
    ``(mask >> i) & 3`` of ``_GLAUBER_FLIPS``. Takes a Python int or an
    integer array, as ``_rotated_bits``.
    """
    bonds = bits ^ _rotated_bits(bits, n)
    return (bonds << 1) | (bonds >> (n - 1))


def _glauber_block(bits: int, sites, keys, n: int) -> list:
    """Heat-bath updates of 0-based ``sites`` with ``_glauber_keys`` ``keys``, in turn, from ``bits``.

    Returns the state after each update, for any n. The loop carries the
    ``_doubled_bonds`` mask, so a flip toggles a site's two bonds with one
    shift; flipping site 0 or n-1 also toggles the other copy of bond n-1.
    """
    top = n - 1
    high = 1 << n
    bonds = _doubled_bonds(bits, n)
    flips = _GLAUBER_FLIPS
    out = []
    append = out.append
    for site, key in zip(sites, keys):
        if flips[key | ((bonds >> site) & 3)]:
            bits ^= 1 << site
            bonds ^= 3 << site
            if site == 0:
                bonds ^= high
            elif site == top:
                bonds ^= 1
        append(bits)
    return out


def _truncated_geometric(u: np.ndarray, bond_prob: float, n: int) -> np.ndarray:
    """Number of consecutive bond successes before the first failure, capped at n."""
    if bond_prob <= 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    if bond_prob >= 1.0:
        return np.full(u.shape, n, dtype=np.int64)
    with np.errstate(divide="ignore"):
        g = np.floor(np.log(u) / math.log(bond_prob))
    return np.minimum(g, n).astype(np.int64)


def _arc_draws(gen: np.random.Generator, count: int, n: int, bond_prob: float) -> tuple:
    """One block of arc-law randomness: ``count`` seeds, then right, then left extensions."""
    seeds = gen.integers(0, n, size=count)
    g_right = _truncated_geometric(gen.random(count), bond_prob, n)
    g_left = _truncated_geometric(gen.random(count), bond_prob, n)
    return seeds, g_right, g_left


def _wolff_arc_block(bits: int, seeds, g_rights, g_lefts, n: int) -> list:
    """The Wolff arc law, one step per draw in turn from ``bits``, for any n.

    Returns the state after each step. Bond b joins sites b and b+1 (mod n).
    With the aligned-bond mask rotated so bond ``seed`` sits at bit 0, the
    right run is its trailing ones and the left run (bond seed-1 at bit n-1)
    its leading ones. The flipped arc extends min(g_right, run_r, n-1) sites
    right of the seed and min(g_left, run_l, n-1-ext_r) sites left of it.
    """
    full = (1 << n) - 1
    top = n - 1
    out = []
    append = out.append
    for seed, g_right, g_left in zip(seeds, g_rights, g_lefts):
        aligned = bits ^ ((bits >> 1) | ((bits & 1) << top)) ^ full
        rotated = ((aligned >> seed) | (aligned << (n - seed))) & full
        ext_r = (rotated ^ (rotated + 1)).bit_length() - 1  # run_r
        if g_right < ext_r:
            ext_r = g_right
        if ext_r > top:
            ext_r = top
        ext_l = n - (rotated ^ full).bit_length()  # run_l
        if g_left < ext_l:
            ext_l = g_left
        if ext_l > top - ext_r:
            ext_l = top - ext_r
        start = seed - ext_l
        if start < 0:
            start += n
        arc = (1 << (ext_l + ext_r + 1)) - 1
        bits ^= ((arc << start) | (arc >> (n - start))) & full
        append(bits)
    return out


def _arc_runs(states: np.ndarray, seeds: np.ndarray, n: int) -> tuple:
    """uint64 twin of the run lengths in ``_wolff_arc_block`` (n <= 64)."""
    one, full = np.uint64(1), np.uint64((1 << n) - 1)
    s = np.asarray(states, dtype=np.uint64)
    shift = np.asarray(seeds).astype(np.uint64)
    aligned = ~(s ^ ((s >> one) | ((s & one) << np.uint64(n - 1)))) & full
    rotated = ((aligned >> shift) | (aligned << (np.uint64(n) - shift))) & full
    run_r = np.bitwise_count(rotated & ~(rotated + one))
    smeared = rotated ^ full  # bit length by smearing the top bit downwards
    for k in (1, 2, 4, 8, 16, 32):
        smeared |= smeared >> np.uint64(k)
    return run_r.astype(np.int64), n - np.bitwise_count(smeared).astype(np.int64)


def _arc_flip_masks(seeds, g_right, g_left, run_r, run_l, n: int) -> np.ndarray:
    """uint64 twin of the extents and the flipped arc in ``_wolff_arc_block``.

    Updates a few buffers in place: on trial-sized arrays, fresh temporaries
    cost more in page faults than the arithmetic does.
    """
    one = np.uint64(1)
    ext_r = np.minimum(g_right, run_r)
    np.minimum(ext_r, n - 1, out=ext_r)
    ext_l = np.minimum(g_left, run_l)
    np.minimum(ext_l, n - 1 - ext_r, out=ext_l)
    ext_r += ext_l + 1
    arc = np.left_shift(one, ext_r.view(np.uint64), out=ext_r.view(np.uint64))
    arc -= one  # ext_l + ext_r + 1 low bits
    start = np.subtract(seeds, ext_l, out=ext_l)
    start[start < 0] += n
    start = start.view(np.uint64)
    wrapped = np.right_shift(arc, np.uint64(n) - start)
    arc <<= start
    arc |= wrapped
    arc &= np.uint64((1 << n) - 1)
    return arc


def _uniform_states(n: int, count: int, gen: np.random.Generator) -> list:
    """``count`` uniform n-bit states as ints (draw order above); ``gen.integers(0, 1 << n, size=count)`` at 33 <= n <= 63."""
    w = -(-n // 64)
    words = gen.integers(0, 2**64, size=(count, w), dtype=np.uint64)
    words[:, 0] >>= np.uint64(64 * w - n)
    if w == 1:
        return words[:, 0].tolist()
    data = words.astype(">u8").tobytes()
    return [int.from_bytes(data[k : k + 8 * w], "big") for k in range(0, len(data), 8 * w)]


def decode_states(states: np.ndarray, n: int) -> np.ndarray:
    """Bit-packed uint64 states -> (M, n) +-1 int8 matrix."""
    arr = np.asarray(states, dtype=np.uint64)
    bits = (arr[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1)
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def _state_bits(bits, n: int) -> int:
    """``bits`` as an int (anything ``operator.index`` accepts), checked to be an n-bit state."""
    bits = operator.index(bits)
    if not 0 <= bits < 1 << n:
        raise ValueError(f"bits {bits} out of range for n={n}")
    return bits


def iter_chain(initial, steps: int, kind: str, params: ModelParams, rng) -> Iterator[int]:
    """Stream Y_1..Y_steps as bit-packed ints (bit b is site b+1; constant memory, any n).

    ``initial`` is Y_1 as an n-bit int, or the name of a law in
    ``INITIAL_LAWS`` drawn from the chain's generator before its steps: one
    ``sample_stationary`` draw, the all-plus state, or one ``_uniform_states``
    draw. Argument errors raise here, before any draw, not at the first
    ``next()``. Wrap a state in ``Configuration(bits, params.n)`` where its
    spins are needed.

    Both dynamics pre-draw blocks of at most ``CHAIN_DRAW_BLOCK`` steps, cut
    at the steps remaining, so a chain consumes exactly its own steps' draws.
    A block is drawn and stepped in one tight loop when the first of its
    states is asked for: Wolff blocks by ``_wolff_arc_block`` on ``_arc_draws``,
    Glauber blocks by ``_glauber_block`` on sites, then uniforms. The states
    come out of a list, so ``np.fromiter`` pulls them at C speed.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if kind not in (WOLFF, GLAUBER):
        raise ValueError(f"unknown dynamics kind {kind!r}")
    n = params.n
    if kind == GLAUBER:
        flip_probs = _glauber_flip_probs(params.require_finite("Glauber dynamics"))
    else:
        bond_prob = derived_constants(params).bond_prob
    if isinstance(initial, str):
        if initial not in INITIAL_LAWS:
            raise ValueError(f"unknown initial law {initial!r}")
    else:
        bits = _state_bits(initial, n)
    gen = as_generator(rng)
    if initial == "stationary":
        bits = sample_stationary(params, gen).bits  # raises at 'inf' before drawing
    elif initial == "all-plus":
        bits = (1 << n) - 1
    elif initial == "uniform":
        bits = _uniform_states(n, 1, gen)[0]

    def blocks():
        last = bits
        for done in range(0, steps - 1, CHAIN_DRAW_BLOCK):
            count = min(CHAIN_DRAW_BLOCK, steps - 1 - done)
            if kind == GLAUBER:
                sites = gen.integers(0, n, size=count).tolist()
                block = _glauber_block(last, sites, _glauber_keys(gen.random(count), flip_probs).tolist(), n)
            else:
                block = _wolff_arc_block(last, *(d.tolist() for d in _arc_draws(gen, count, n, bond_prob)), n)
            last = block[-1]
            yield block

    return itertools.chain((bits,), itertools.chain.from_iterable(blocks()))


#: ``hitting_time_aligned`` steps its pre-drawn block at most this many states per call.
HIT_STEP_CHUNK = 64


def hitting_time_aligned(bits, n: int, rng) -> int:
    """First 1-based index k with Y_k fully aligned, for the critical-point chain on n sites.

    Y_1 = ``bits``, an n-bit state checked before any draw, so an aligned
    start returns 1. For a non-aligned start the chain merges exactly one
    component pair per step, so the value is the initial plus-component count
    c + 1 (deterministic even though the path is random). The chain's n + 1
    steps are drawn as one block, as ``iter_chain`` draws a chain of n + 2
    states: n + 1 seeds, then n + 1 right and n + 1 left uniforms. At 'inf'
    the bond probability is 1, so both extensions are the cap n and the
    uniforms are drawn unread, which keeps a caller's generator in step with
    the chain's. The first c draws, then the rest, are stepped by
    ``_wolff_arc_block`` in chunks of at most ``HIT_STEP_CHUNK`` (at n <= 64
    the first c in one call), and stepping stops at the first aligned state,
    so the index returned is the one the chain reaches, not the one predicted,
    and at most one chunk of states is held. An aligned start draws nothing.
    """
    bits = _state_bits(bits, n)
    gen = as_generator(rng)
    full = (1 << n) - 1
    if bits == 0 or bits == full:
        return 1
    seeds = gen.integers(0, n, size=n + 1).tolist()
    gen.random(2 * (n + 1))  # the right, then the left uniforms, unread
    caps = [n] * HIT_STEP_CHUNK
    predicted = plus_component_count(bits, n)
    cuts = [*range(0, predicted, HIT_STEP_CHUNK), *range(predicted, n + 1, HIT_STEP_CHUNK), n + 1]
    for lo, hi in zip(cuts, cuts[1:]):
        for k, bits in enumerate(_wolff_arc_block(bits, seeds[lo:hi], caps, caps, n), start=lo + 2):
            if bits == 0 or bits == full:
                return k
    # cannot happen: at most n/2 merges are needed
    raise RuntimeError("critical-point chain failed to align; sampler bug")


def sample_stationary(params: ModelParams, rng) -> Configuration:
    """One exact draw from the Gibbs measure: ``sample_stationary_many`` with count 1."""
    return Configuration(sample_stationary_many(params, 1, rng)[0], params.n)


def sample_stationary_many(params: ModelParams, count: int, rng) -> list:
    """``count`` exact Gibbs draws as n-bit ints, from s_1 and the walls w_k = [s_k != s_{k+1}].

    s_1 is fair and the n walls are i.i.d. with q = e^{-2J}/(1 + e^{-2J}), conditioned
    on an even count (met with probability (1 + tanh(J)^n)/2 >= 1/2). In a pending
    row, column 0 < 1/2 makes s_1 = -1 and column k < q sets w_k; the spins are s_1
    flipped by the prefix XOR of w_1..w_{n-1}, and bit b of a draw is set where
    site b+1 is plus.
    """
    params.require_finite("sample_stationary_many")
    gen = as_generator(rng)
    n = params.n
    bond_miss = derived_constants(params).bond_miss
    thresholds = np.full(n + 1, bond_miss / (1.0 + bond_miss))
    thresholds[0] = 0.5
    minus = np.empty((count, n), dtype=bool)
    pending = np.arange(count)
    while pending.size:
        marks = gen.random((pending.size, n + 1)) < thresholds
        even = np.count_nonzero(marks[:, 1:], axis=1) % 2 == 0
        minus[pending[even]] = np.logical_xor.accumulate(marks[even, :n], axis=1)
        pending = pending[~even]
    data = np.packbits(~minus, axis=1, bitorder="little").tobytes()
    w = -(-n // 8)
    return [int.from_bytes(data[k : k + w], "little") for k in range(0, len(data), w)]
