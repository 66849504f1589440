"""Stochastic samplers for the ring: Wolff cluster updates, Glauber heat-bath
updates, chain runners, exact stationary sampling, and critical-point hitting
times.

Wolff updates come from one arc-law engine; the stack algorithm is kept only
as the reference oracle:

* On the ring a Wolff cluster is an arc, and the stack growth is equivalent
  to truncated-geometric extensions right and left of a uniform seed:
  extending by g sites within the seed's component has probability
  bond_prob^g * bond_miss below the cap and bond_prob^cap at it. The law is
  written once on bit-packed states: ``_wolff_arc_block`` on Python ints (any
  n) and its uint64 twin ``_arc_runs`` + ``_arc_flip_masks`` (n <= 64). RNG
  consumption per step: one integer plus two uniforms, drawn in blocks of
  seeds, then right uniforms, then left uniforms (``_arc_draws``). Chains
  (``_chain_bits``) draw one block of up to ``CHAIN_DRAW_BLOCK`` steps at a
  time and step it in one tight loop; ``hitting_time_aligned`` draws one
  block and steps it lazily, stopping at the first aligned state.
  ``wolff_step_many`` and the kernel's bulk one-step sampler draw one block
  per call and use the twin.

* ``wolff_step`` is the reference stack algorithm: grow the cluster from a
  uniformly chosen seed, testing each ring bond at most once (visited-bond
  set), pushing accepted sites on a LIFO stack, and examining each popped
  site's +1 neighbor before its -1 neighbor. RNG consumption: one integer
  for the seed, then one uniform per aligned bond tested, in that stack
  order; anti-aligned bonds are deterministic rejections and consume nothing.

Both realize the same transition law, but they consume randomness
differently, so trajectories are only reproducible within one of them. The
kernel's ``empirical_vs_exact`` checks the bulk sampler against the exact
kernel rows; the stack sampler's one-step counts, checked the same way, are
an oracle in the test suite (``tests/_oracles.py``).

Glauber paths read one heat-bath table, ``_glauber_flip_probs``; chains draw
sites, then uniforms, in the Wolff blocks and step each block in one tight
loop (``_glauber_block``), and ``glauber_step`` is the reference.

``iter_chain`` streams a chain of either dynamics as bit-packed ints, with no
``Configuration`` per state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .model import (
    INFINITE,
    Configuration,
    ModelParams,
    ResourceLimitError,
    derived_constants,
    gibbs_measure,
)
from .randomness import as_generator

WOLFF = "wolff"
GLAUBER = "glauber"

#: ``run_chain`` refuses to store trajectories larger than this many bytes.
STORAGE_BUDGET = 256 * 1024 * 1024

#: Exact inverse-CDF stationary sampling is used up to this size; beyond it
#: the sequential transfer-matrix sampler takes over (both are exact).
INVERSE_CDF_SITE_LIMIT = 20

#: Chains pre-draw the randomness of at most this many steps at once.
CHAIN_DRAW_BLOCK = 4096


def _wolff_step_bits(bits: int, n: int, bond_prob: float, gen: np.random.Generator) -> int:
    """One stack-algorithm Wolff update on a bit-packed configuration."""
    seed = int(gen.integers(n))
    seed_spin = (bits >> seed) & 1
    cluster = 1 << seed
    visited = 0  # bond b joins sites b and (b+1) mod n
    stack = [seed]
    while stack:
        i = stack.pop()
        # +1 neighbor over bond i first, then -1 neighbor over bond i-1;
        # at n=2 these are the two distinct bonds joining the same pair
        for j, bond in (((i + 1) % n, i), ((i - 1) % n, (i - 1) % n)):
            bond_bit = 1 << bond
            if visited & bond_bit:
                continue
            if ((bits >> j) & 1) != seed_spin:
                continue  # anti-aligned: no trial, bond can never open
            visited |= bond_bit
            if gen.random() < bond_prob and not (cluster >> j) & 1:
                cluster |= 1 << j
                stack.append(j)
    return bits ^ cluster


def wolff_step(config: Configuration, params: ModelParams, rng) -> Configuration:
    """One Wolff cluster update; valid for any coupling in [0, INFINITE]."""
    if config.n != params.n:
        raise ValueError("configuration and params sizes differ")
    gen = as_generator(rng)
    bond_prob = derived_constants(params).bond_prob
    return Configuration(_wolff_step_bits(config.bits, params.n, bond_prob, gen), params.n)


def glauber_step(config: Configuration, params: ModelParams, rng) -> Configuration:
    """One heat-bath update: flip a uniform site with its conditional Gibbs odds.

    The chosen site flips with probability e^{2J}/(e^{2J}+e^{-2J}), 1/2 or
    e^{-2J}/(e^{2J}+e^{-2J}) when 0, 1 or 2 of its neighbours are aligned with
    it. The per-step reference: consumes one integer, then one uniform, per call.
    """
    flip_probs = _glauber_flip_probs(params.require_finite("glauber_step"))
    if config.n != params.n:
        raise ValueError("configuration and params sizes differ")
    gen = as_generator(rng)
    site = int(gen.integers(params.n))
    return Configuration(_glauber_block(config.bits, (site,), (gen.random(),), params.n, flip_probs)[0], params.n)


def _glauber_flip_probs(j_hat: float) -> np.ndarray:
    """Heat-bath flip probability of a site with 0, 1 or 2 neighbours aligned with it.

    Raises ValueError where e^{2J} overflows a float64 (J above about 354.9).
    """
    with np.errstate(over="ignore"):
        e2, em2 = np.exp(2.0 * j_hat), np.exp(-2.0 * j_hat)
    if math.isinf(e2):
        raise ValueError(f"the heat-bath odds e^(2j) overflow a float64 at j_hat={j_hat!r}")
    return np.array([e2 / (e2 + em2), 0.5, em2 / (e2 + em2)])


def _glauber_block(bits: int, sites, us, n: int, flip_probs) -> list:
    """Heat-bath updates of 0-based ``sites`` with uniforms ``us``, in turn, from ``bits``.

    Returns the state after each update. Any n; ``flip_probs`` as from
    ``_glauber_flip_probs``.
    """
    top = n - 1
    out = []
    append = out.append
    for site, u in zip(sites, us):
        s = (bits >> site) & 1
        left = (bits >> (site - 1 if site else top)) & 1
        right = (bits >> (site + 1 if site < top else 0)) & 1
        if u < flip_probs[(left == s) + (right == s)]:
            bits ^= 1 << site
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


def wolff_step_many(spins: np.ndarray, params: ModelParams, gen: np.random.Generator) -> np.ndarray:
    """One Wolff update applied independently to each row of a (chains, n) +-1 array, n <= 64."""
    c, n = spins.shape
    if n != params.n:
        raise ValueError("spin array and params sizes differ")
    if n > 64:
        raise ValueError(f"n={n} exceeds 64: the batched arc law packs states into 64-bit words")
    seeds, g_right, g_left = _arc_draws(gen, c, n, derived_constants(params).bond_prob)
    run_r, run_l = _arc_runs(encode_spins(spins), seeds, n)
    flips = decode_states(_arc_flip_masks(seeds, g_right, g_left, run_r, run_l, n), n) > 0
    return np.where(flips, -spins, spins)


def glauber_step_many(spins: np.ndarray, params: ModelParams, gen: np.random.Generator) -> np.ndarray:
    """One Glauber update applied independently to each row of a (chains, n) +-1 array."""
    flip_probs = _glauber_flip_probs(params.require_finite("glauber_step_many"))
    c, n = spins.shape
    if n != params.n:
        raise ValueError("spin array and params sizes differ")
    sites = gen.integers(0, n, size=c)
    u = gen.random(c)
    rows = np.arange(c)
    s_i = spins[rows, sites]
    aligned = (spins[rows, (sites - 1) % n] == s_i).astype(np.int64) + (spins[rows, (sites + 1) % n] == s_i)
    out = spins.copy()
    hit = u < flip_probs[aligned]
    out[rows[hit], sites[hit]] = -out[rows[hit], sites[hit]]
    return out


@dataclass(frozen=True)
class InitialLaw:
    """How Y_1 is drawn: a fixed configuration, an exact stationary sample,
    the all-plus state, or a uniform random state."""

    kind: str
    config: Optional[Configuration] = None

    FIXED = "fixed"
    STATIONARY = "stationary"
    ALL_PLUS = "all-plus"
    UNIFORM = "uniform"

    @classmethod
    def fixed(cls, config: Configuration) -> "InitialLaw":
        return cls(cls.FIXED, config)

    @classmethod
    def stationary(cls) -> "InitialLaw":
        return cls(cls.STATIONARY)

    @classmethod
    def all_plus(cls) -> "InitialLaw":
        return cls(cls.ALL_PLUS)

    @classmethod
    def uniform_random(cls) -> "InitialLaw":
        return cls(cls.UNIFORM)

    def sample(self, params: ModelParams, gen: np.random.Generator) -> Configuration:
        if self.kind == self.FIXED:
            if self.config is None:
                raise ValueError("fixed initial law needs a configuration")
            if self.config.n != params.n:
                raise ValueError("initial configuration and params sizes differ")
            return self.config
        if self.kind == self.ALL_PLUS:
            return Configuration.all_plus(params.n)
        if self.kind == self.UNIFORM:
            bits = int(gen.integers(0, 1 << params.n)) if params.n <= 62 else _random_bits(params.n, gen)
        elif self.kind == self.STATIONARY:
            return sample_stationary(params, gen)
        else:
            raise ValueError(f"unknown initial law {self.kind!r}")
        return Configuration(bits, params.n)


def _random_bits(n: int, gen: np.random.Generator) -> int:
    bits = 0
    for b in range(n):
        if gen.integers(2):
            bits |= 1 << b
    return bits


@dataclass(frozen=True)
class Trajectory:
    """A stored chain Y_1..Y_M (bit-packed). Y_1 is the initial configuration."""

    params: ModelParams
    kind: str
    states: np.ndarray  # uint64 bits, length M

    @property
    def steps(self) -> int:
        return len(self.states)

    @property
    def initial(self) -> Configuration:
        return self.config(0)

    def config(self, k: int) -> Configuration:
        return Configuration(int(self.states[k]), self.params.n)

    def __iter__(self) -> Iterator[Configuration]:
        n = self.params.n
        return (Configuration(int(b), n) for b in self.states)


def decode_states(states: np.ndarray, n: int) -> np.ndarray:
    """Bit-packed uint64 states -> (M, n) +-1 int8 matrix."""
    arr = np.asarray(states, dtype=np.uint64)
    bits = (arr[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1)
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def encode_spins(spins: np.ndarray) -> np.ndarray:
    """(M, n) +-1 matrix -> bit-packed uint64 states."""
    spins = np.asarray(spins)
    n = spins.shape[1]
    weights = (np.uint64(1) << np.arange(n, dtype=np.uint64))[None, :]
    return ((spins > 0).astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)


def _chain_bits(bits: int, states: int, kind: str, params: ModelParams, gen: np.random.Generator) -> Iterator[int]:
    """Iterate over ``states`` bit-packed chain states: ``bits`` itself, then one per step.

    Both dynamics pre-draw blocks of at most ``CHAIN_DRAW_BLOCK`` steps, cut
    at the steps remaining, so a chain consumes exactly its own steps' draws.
    A block is drawn and stepped in one tight loop when the first of its
    states is asked for: Wolff blocks by ``_wolff_arc_block`` on ``_arc_draws``,
    Glauber blocks by ``_glauber_block`` on sites, then uniforms, as
    ``glauber_step_many``. The states come out of a list, so ``np.fromiter``
    pulls them at C speed.
    """
    if kind not in (WOLFF, GLAUBER):
        raise ValueError(f"unknown dynamics kind {kind!r}")
    n = params.n
    if kind == GLAUBER:
        flip_probs = _glauber_flip_probs(params.require_finite("Glauber dynamics")).tolist()
    else:
        bond_prob = derived_constants(params).bond_prob

    def blocks():
        last = bits
        for done in range(0, states - 1, CHAIN_DRAW_BLOCK):
            count = min(CHAIN_DRAW_BLOCK, states - 1 - done)
            if kind == GLAUBER:
                sites = gen.integers(0, n, size=count).tolist()
                block = _glauber_block(last, sites, gen.random(count).tolist(), n, flip_probs)
            else:
                block = _wolff_arc_block(last, *(d.tolist() for d in _arc_draws(gen, count, n, bond_prob)), n)
            last = block[-1]
            yield block

    return itertools.chain((bits,), itertools.chain.from_iterable(blocks()))


def iter_chain(initial: InitialLaw, steps: int, kind: str, params: ModelParams, rng) -> Iterator[int]:
    """Stream Y_1..Y_steps as bit-packed ints (bit b is site b+1; constant memory, any n).

    Argument errors raise here, not at the first ``next()``. Wrap a state in
    ``Configuration(bits, params.n)`` where its spins are needed.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    gen = as_generator(rng)
    return _chain_bits(initial.sample(params, gen).bits, steps, kind, params, gen)


def run_chain(initial: InitialLaw, steps: int, kind: str, params: ModelParams, rng) -> Trajectory:
    """Run and store a chain. Deterministic given the RngStream; Y_1 is the initial draw."""
    if params.n > 64:
        raise ResourceLimitError("stored trajectories are bit-packed in uint64 (n <= 64); use iter_chain")
    if steps * 8 > STORAGE_BUDGET:
        raise ResourceLimitError(
            f"storing {steps} states needs {steps * 8} bytes > budget {STORAGE_BUDGET}; use iter_chain"
        )
    if steps < 1:
        raise ValueError("steps must be >= 1")
    gen = as_generator(rng)
    chain = _chain_bits(initial.sample(params, gen).bits, steps, kind, params, gen)
    return Trajectory(params=params, kind=kind, states=np.fromiter(chain, dtype=np.uint64, count=steps))


def hitting_time_aligned(initial: Configuration, rng) -> int:
    """First 1-based index k with Y_k fully aligned, for the critical-point chain.

    Y_1 = initial, so an aligned start returns 1. For a non-aligned start the
    chain merges exactly one component pair per step, so the value is the
    initial plus-component count + 1 (deterministic even though the path is
    random). The chain's n + 1 steps are drawn as one block, as ``_chain_bits``
    draws a chain of n + 2 states, but stepped one at a time, so stepping
    stops at the first aligned state (stepping the whole block through
    ``_chain_bits`` made ``isingring hitting`` about a third slower).
    """
    gen = as_generator(rng)
    n = initial.n
    full = (1 << n) - 1
    bits = initial.bits
    if bits == 0 or bits == full:
        return 1
    draws = _arc_draws(gen, n + 1, n, derived_constants(ModelParams(n, INFINITE)).bond_prob)
    for k, (seed, g_right, g_left) in enumerate(zip(*(d.tolist() for d in draws)), start=2):
        bits = _wolff_arc_block(bits, (seed,), (g_right,), (g_left,), n)[0]
        if bits == 0 or bits == full:
            return k
    # cannot happen: at most n/2 merges are needed
    raise RuntimeError("critical-point chain failed to align; sampler bug")


def sample_stationary(params: ModelParams, rng) -> Configuration:
    """One exact draw from the Gibbs measure."""
    gen = as_generator(rng)
    if params.n <= INVERSE_CDF_SITE_LIMIT:
        params.require_finite("sample_stationary")
        cdf = np.cumsum(gibbs_measure(params).probabilities)
        bits = int(np.searchsorted(cdf, gen.random(), side="right"))
        return Configuration(min(bits, (1 << params.n) - 1), params.n)
    spins = sample_stationary_many(params, 1, gen)[0]
    return Configuration.from_spins(spins.tolist())


def sample_stationary_many(params: ModelParams, count: int, rng) -> np.ndarray:
    """Exact stationary sample of shape (count, n) via sequential transfer-matrix
    conditionals: draw s_1 fairly, then each s_{k+1} given s_k and s_1 with the
    wrap-around handled by the remaining-bond transfer-matrix power."""
    j_hat = params.require_finite("sample_stationary_many")
    gen = as_generator(rng)
    n = params.n
    theta = derived_constants(params).tanh_j
    spins = np.empty((count, n), dtype=np.int8)
    spins[:, 0] = np.where(gen.random(count) < 0.5, 1, -1).astype(np.int8)
    ej = math.exp(j_hat)
    emj = math.exp(-j_hat)
    first = spins[:, 0].astype(np.float64)
    for k in range(1, n):
        prev = spins[:, k - 1].astype(np.float64)
        t_rem = theta ** (n - k)  # bonds remaining from site k+1 around to site 1
        w_plus = np.where(prev > 0, ej, emj) * (1.0 + first * t_rem)
        w_minus = np.where(prev > 0, emj, ej) * (1.0 - first * t_rem)
        p_plus = w_plus / (w_plus + w_minus)
        spins[:, k] = np.where(gen.random(count) < p_plus, 1, -1).astype(np.int8)
    return spins
