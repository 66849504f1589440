"""Exact dense transition kernels for the Wolff and Glauber dynamics.

States are listed in binary order (row/column index = bit-packed
configuration), so the index doubles as the bitmask. Wolff entries follow
the closed form: for a connected, spin-aligned flip set A,

    P(sigma, sigma^A) = (#A/N) * bond_prob^{#A-1} * bond_miss^{#(dA & aligned bonds)}

for proper A, and (N*bond_miss + bond_prob) * bond_prob^{N-1} for the full
flip out of an aligned state; everything else is zero. Each entry has two
independent evaluations, one from the edge boundary of A and one from the
component decomposition case analysis, and they must agree exactly.

Both work on the integer masks of ``clusters``: a site mask has bit b for
site b+1 (so A is ``FlipSet.mask``), and a bond mask has bit b for the bond
(b+1, b+2 mod N). The boundary form counts popcount(edge_boundary(A) &
aligned_bonds); the component form finds the component C with A & ~C == 0
and reads how many sites of C's vertex boundary A holds.

``wolff_dual_form_disagreement`` checks a built kernel with both forms as
arrays over all source states, one arc mask at a time; there the component
form reads the component's extent from the run lengths of the arc law. The
scalar forms ``wolff_entry_from_boundary``/``wolff_entry_from_components``
take any flip set, connected or not, and are the oracle for the arrays; the
boundary form is the entry P(sigma, sigma^A) that callers read.

The kernel builder only visits the N(N-1)+1 connected arc masks per ring
(all other columns are zero), vectorizing over source states. Each kernel
also keeps a view of its nonzero entries (``TransitionKernel.support``);
detailed balance and the Dirichlet form sum over that view rather than
over all 4^N state pairs.

``empirical_vs_exact`` checks a sampler against the kernel rows: one-step
target counts from every start state, drawn by the uint64 arc-law twin of
``dynamics`` (the package's one Wolff sampler) or the Glauber batch rule,
scored as z-values per kept target and per pooled bucket.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    Configuration,
    GibbsMeasure,
    KERNEL_SITE_LIMIT,
    ModelParams,
    ResourceLimitError,
    _rotated_bits,
    derived_constants,
)
from .clusters import FlipSet, decompose, edge_boundary, is_connected, vertex_boundary
from .dynamics import GLAUBER, WOLFF
from .dynamics import _arc_draws, _arc_flip_masks, _arc_runs, _glauber_flip_probs
from .randomness import as_generator


@dataclass(frozen=True)
class TransitionKernel:
    """Dense row-stochastic matrix over the 2^N states in binary order.

    ``support`` is read from ``matrix`` once and kept on the kernel, so the
    matrix must not be changed in place afterwards; build a new kernel from
    a modified copy instead.
    """

    params: ModelParams
    kind: str
    matrix: np.ndarray

    @cached_property
    def support(self) -> tuple:
        """The nonzero entries as arrays (src, dst, prob), in row-major order."""
        src, dst = np.nonzero(self.matrix)
        return src, dst, self.matrix[src, dst]

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def row_sum_error(self) -> float:
        return float(np.abs(self.matrix.sum(axis=1) - 1.0).max())


def _check_kernel_size(n: int):
    if n > KERNEL_SITE_LIMIT:
        raise ResourceLimitError(f"dense kernel needs 4^{n} entries; cap is n <= {KERNEL_SITE_LIMIT}")


def _check_empirical_size(n: int):
    if n > 8:
        raise ResourceLimitError("empirical check enumerates all start states; cap is n <= 8")


def _wolff_support(config: Configuration, flipset: FlipSet, params: ModelParams) -> bool:
    """True iff the flip set can carry Wolff mass: connected and spin-aligned in config.

    Raises ValueError for an empty flip set or mismatched sizes.
    """
    if flipset.mask == 0:
        raise ValueError("flip set must be nonempty")
    if config.n != flipset.n or config.n != params.n:
        raise ValueError("sizes of configuration, flip set and params differ")
    inter = config.bits & flipset.mask
    return is_connected(flipset) and (inter == 0 or inter == flipset.mask)


def wolff_entry_from_boundary(config: Configuration, flipset: FlipSet, params: ModelParams) -> float:
    """Wolff transition probability via the edge-boundary form."""
    if not _wolff_support(config, flipset, params):
        return 0.0
    c = derived_constants(params)
    n = params.n
    m = flipset.size
    if m == n:
        if not config.is_aligned:
            return 0.0
        return (n * c.bond_miss + c.bond_prob) * c.bond_prob ** (n - 1)
    misses = (edge_boundary(flipset) & decompose(config).aligned_bonds).bit_count()
    return (m / n) * c.bond_prob ** (m - 1) * c.bond_miss**misses


def wolff_entry_from_components(config: Configuration, flipset: FlipSet, params: ModelParams) -> float:
    """Wolff transition probability via the component-decomposition case form."""
    if not _wolff_support(config, flipset, params):
        return 0.0
    c = derived_constants(params)
    n = params.n
    m = flipset.size
    dec = decompose(config)

    if dec.plus_count == 0 or dec.minus_count == 0:
        # fully aligned source
        if m <= n - 1:
            return (m / n) * c.bond_prob ** (m - 1) * c.bond_miss**2
        return (n * c.bond_miss + c.bond_prob) * c.bond_prob ** (n - 1)

    if m == n:
        return 0.0
    # a connected aligned proper A on a mixed state lies in exactly one component
    comp = next(comp for comp in dec.components() if not flipset.mask & ~comp)
    comp_boundary = vertex_boundary(FlipSet(comp, n))
    touched = (flipset.mask & comp_boundary).bit_count()
    if comp_boundary.bit_count() == 1:
        # singleton component; A equals it
        return (m / n) * 1.0
    if touched == 0:
        return (m / n) * c.bond_prob ** (m - 1) * c.bond_miss**2
    if touched == 1:
        return (m / n) * c.bond_prob ** (m - 1) * c.bond_miss
    return (m / n) * c.bond_prob ** (m - 1)


def _arc_masks(n: int):
    """All proper connected arc masks: (start, mask, length) for every 0-based start and length < n.

    The full ring is not yielded; the builder handles the full flip separately.
    """
    for start in range(n):
        mask = 0
        for length in range(1, n):
            mask |= 1 << ((start + length - 1) % n)
            yield start, mask, length


def build_wolff_kernel(params: ModelParams) -> TransitionKernel:
    """Assemble the exact Wolff kernel; diagonal is identically zero."""
    n = params.n
    _check_kernel_size(n)
    c = derived_constants(params)
    size = 1 << n
    full = size - 1
    states = np.arange(size, dtype=np.int64)
    aligned_bonds = ~(states ^ _rotated_bits(states, n)) & full  # per-source bitmask of aligned bonds
    miss_pow = np.array([1.0, c.bond_miss, c.bond_miss**2])

    matrix = np.zeros((size, size))
    for _, mask, length in _arc_masks(n):
        sel = states & mask
        ok = (sel == 0) | (sel == mask)
        boundary = mask ^ _rotated_bits(mask, n)
        misses = np.bitwise_count(aligned_bonds & boundary)
        values = (length / n) * c.bond_prob ** (length - 1) * miss_pow[misses]
        src = states[ok]
        matrix[src, src ^ mask] = values[ok]
    full_flip = (n * c.bond_miss + c.bond_prob) * c.bond_prob ** (n - 1)
    matrix[0, full] = full_flip
    matrix[full, 0] = full_flip
    return TransitionKernel(params=params, kind=WOLFF, matrix=matrix)


def _wolff_dual_form_columns(params: ModelParams):
    """Yield (mask, boundary, component) for every connected arc mask A, full ring last.

    ``boundary`` and ``component`` are the two forms of P(sigma, sigma^A)
    over all source states sigma in binary order:

    - the boundary form, supported where A is spin-aligned, with
      popcount(edge_boundary(A) & aligned_bonds) missed bonds;
    - the component form, from the arc-law run lengths at A's first site:
      A lies in one component iff run_r >= #A-1, and it holds
      (run_l == 0) + (run_r == #A-1) sites of that component's vertex
      boundary ("touched"), so the entry carries bond_miss^(2 - touched); on
      the full ring it is the full-flip value where run_r == N (an aligned
      state) and 0 elsewhere.
    """
    n = params.n
    c = derived_constants(params)
    full = (1 << n) - 1
    states = np.arange(full + 1, dtype=np.int64)
    aligned_bonds = ~(states ^ _rotated_bits(states, n)) & full
    runs = [_arc_runs(states, start, n) for start in range(n)]
    # scalar pow, as in the scalar forms: numpy's array pow can differ by an ulp
    miss_pow = np.array([c.bond_miss**k for k in range(3)])
    for start, mask, length in _arc_masks(n):
        weight = (length / n) * c.bond_prob ** (length - 1)
        sel = states & mask
        misses = np.bitwise_count(aligned_bonds & (mask ^ _rotated_bits(mask, n)))
        boundary = np.where((sel == 0) | (sel == mask), weight * miss_pow[misses], 0.0)
        run_r, run_l = runs[start]
        touched = (run_l == 0).astype(np.int64) + (run_r == length - 1)
        component = np.where(run_r >= length - 1, weight * miss_pow[2 - touched], 0.0)
        yield mask, boundary, component
    full_flip = (n * c.bond_miss + c.bond_prob) * c.bond_prob ** (n - 1)
    boundary = np.where((states == 0) | (states == full), full_flip, 0.0)
    yield full, boundary, np.where(runs[0][0] == n, full_flip, 0.0)


def wolff_dual_form_disagreement(kernel: TransitionKernel) -> float:
    """Max of |boundary - component| and |boundary - P(sigma, sigma^A)| over every
    connected arc mask A and every source state sigma, zeros included.

    The N(N-1)+1 arc columns hold the whole support of the Wolff kernel.
    """
    states = np.arange(kernel.size, dtype=np.int64)
    worst = 0.0
    for mask, boundary, component in _wolff_dual_form_columns(kernel.params):
        entries = kernel.matrix[states, states ^ mask]
        worst = max(worst, np.abs(boundary - component).max(), np.abs(boundary - entries).max())
    return float(worst)


def _check_site(config: Configuration, site: int, params: ModelParams):
    if config.n != params.n:
        raise ValueError("sizes of configuration and params differ")
    if not 1 <= site <= params.n:
        raise ValueError(f"site {site} out of range 1..{params.n}")


def glauber_flip_probability(config: Configuration, site: int, params: ModelParams) -> float:
    """Conditional flip probability of 1-based ``site`` (before the 1/N site choice)."""
    flip_probs = _glauber_flip_probs(params.require_finite("glauber_flip_probability"))
    _check_site(config, site, params)
    s_i = config.spin(site)
    return float(flip_probs[(config.spin(site - 1) == s_i) + (config.spin(site + 1) == s_i)])


def build_glauber_kernel(params: ModelParams) -> TransitionKernel:
    """Assemble the exact heat-bath kernel; off-diagonal support is single flips."""
    flip_probs = _glauber_flip_probs(params.require_finite("build_glauber_kernel"))
    n = params.n
    _check_kernel_size(n)
    size = 1 << n
    states = np.arange(size, dtype=np.int64)
    aligned_bonds = ~(states ^ _rotated_bits(states, n))
    matrix = np.zeros((size, size))
    for b in range(n):
        # bond b joins sites b and b+1, so site b's bonds are b and b-1
        aligned = ((aligned_bonds >> b) & 1) + ((aligned_bonds >> ((b - 1) % n)) & 1)
        matrix[states, states ^ (1 << b)] = flip_probs[aligned] / n
    matrix[states, states] = 1.0 - matrix.sum(axis=1)
    return TransitionKernel(params=params, kind=GLAUBER, matrix=matrix)


def check_detailed_balance(kernel: TransitionKernel, measure: GibbsMeasure) -> float:
    """Max over state pairs of |mu(x)P(x,y) - mu(y)P(y,x)|; callers compare it with their tolerance.

    Pairs with P(x,y) = P(y,x) = 0 contribute zero, so the max runs over the
    kernel's nonzero support only.
    """
    if measure.n != kernel.n:
        raise ValueError("kernel and measure sizes differ")
    src, dst, prob = kernel.support
    mu = measure.probabilities
    return float(np.abs(mu[src] * prob - mu[dst] * kernel.matrix[dst, src]).max(initial=0.0))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and an L^2(mu)-orthonormal eigenbasis.

    basis[:, j] is the eigenfunction xi_j on the state space; xi_1 is the
    constant function 1. The kernel is reconstructed by
    P(x, y) = sum_j eigenvalues[j] * xi_j(x) * xi_j(y) * mu(y).
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    @property
    def lambda2(self) -> float:
        return float(self.eigenvalues[1])

    @property
    def gap(self) -> float:
        return 1.0 - self.lambda2


def symmetrize_and_decompose(kernel: TransitionKernel, measure: GibbsMeasure) -> SpectralDecomposition:
    """Full spectrum of the mu-symmetrized kernel, one global-flip sector at a time.

    Requires reversibility (checked first, to 1e-10) and invariance under the
    global flip x -> x ^ (2^N - 1), which reverses the state index: the rows
    of T = D^{1/2} P D^{-1/2} must match their flipped twins, reversed, to
    1e-12. Either failure raises ValueError. Write T = [[A, B], [JBJ, JAJ]]
    with h = 2^(N-1), J the h x h index reversal and sym(M) = (M + M^T)/2.
    The symmetric part sym(T) then has the flip-even eigenvectors
    [u; u[::-1]] / sqrt 2 for the eigenvectors u of sym(A + BJ), and the
    flip-odd ones [u; -u[::-1]] / sqrt 2 for those of sym(A - BJ); each
    sector takes one dense ``eigh`` of side h (BJ is ``B[:, ::-1]``).

    Ties in the descending eigenvalue order put flip-even eigenfunctions
    before flip-odd ones, and keep ``eigh``'s ascending index within a
    sector; degenerate eigenspaces should be compared as eigenvalue
    multisets, never via eigenvector identity.
    """
    violation = check_detailed_balance(kernel, measure)
    if violation > 1e-10:
        raise ValueError(f"kernel is not reversible for this measure (violation {violation:.3e})")
    size = kernel.size
    half = size // 2
    root = np.sqrt(measure.probabilities)
    scaled = np.divide.outer(root, root)
    scaled *= kernel.matrix
    asymmetry = max(float(np.abs(scaled[row] - scaled[-1 - row, ::-1]).max()) for row in range(half))
    if asymmetry > 1e-12:
        raise ValueError(f"kernel is not invariant under the global spin flip (violation {asymmetry:.3e})")
    corner, cross = scaled[:half, :half], scaled[:half, half:][:, ::-1]
    sectors = []
    for combine in (np.add, np.subtract):
        block = combine(corner, cross)
        block += block.T
        block *= 0.5
        sectors.append(np.linalg.eigh(block))
    del scaled, corner, cross, block  # freed before the basis is allocated
    eigvals = np.concatenate([values for values, _ in sectors])
    order = np.argsort(-eigvals, kind="stable")
    column = np.empty(size, dtype=np.int64)
    column[order] = np.arange(size)
    basis = np.empty((size, size))
    for (_, vectors), sign, cols in zip(sectors, (1.0, -1.0), (column[:half], column[half:])):
        basis[:half, cols] = vectors
        basis[half:, cols] = sign * vectors[::-1]
    basis *= np.sqrt(0.5) / root[:, None]
    # orient the top eigenfunction as the constant +1
    if basis[0, 0] < 0:
        basis[:, 0] = -basis[:, 0]
    return SpectralDecomposition(eigenvalues=eigvals[order], basis=basis)


Z_MAX = 4.0


@dataclass(frozen=True)
class EmpiricalCheck:
    """Result of comparing one-step sample frequencies against kernel rows.

    Multiple-testing rule: per start state, targets with expected count below
    10 are pooled into a single bucket; z-scores are computed for each kept
    target and for the pooled bucket; any observed target with exact
    probability zero is an immediate failure (off_support > 0). A bucket or
    target whose binomial variance is not positive (probability 1, up to
    rounding) scores 0 if every trial landed in it and inf otherwise. The
    global statistic is the max |z| over all states and buckets; it passes at
    ``Z_MAX``.
    """

    max_z: float
    tests: int
    off_support: int

    def passes(self) -> bool:
        return self.off_support == 0 and self.max_z <= Z_MAX


def _one_step_counts_bulk(
    state_bits: int, kernel: TransitionKernel, trials: int, gen: np.random.Generator
) -> np.ndarray:
    """Sample one step ``trials`` times from a fixed state, vectorized.

    Consumes randomness in the order of the batch steppers (a block of seed
    integers, then the uniform arrays), so the outcomes match
    ``wolff_step_many``/``glauber_step_many`` draw for draw. For Wolff the
    arc law's run lengths depend only on the state and the seed, so they are
    computed once per seed site and gathered per trial.
    """
    n = kernel.n
    size = kernel.size
    if kernel.kind == WOLFF:
        seeds, g_right, g_left = _arc_draws(gen, trials, n, derived_constants(kernel.params).bond_prob)
        run_r, run_l = _arc_runs(np.full(n, state_bits, dtype=np.uint64), np.arange(n), n)
        masks = _arc_flip_masks(seeds, g_right, g_left, run_r[seeds], run_l[seeds], n)
        masks ^= np.uint64(state_bits)
        return np.bincount(masks.view(np.int64), minlength=size)
    cfg = Configuration(state_bits, n)
    flip_prob = np.array([glauber_flip_probability(cfg, b + 1, kernel.params) for b in range(n)])
    sites = gen.integers(0, n, size=trials)
    u = gen.random(trials)
    flips = np.where(u < flip_prob[sites], np.int64(1) << sites.astype(np.int64), 0)
    return np.bincount(state_bits ^ flips, minlength=size)


def empirical_vs_exact(kernel: TransitionKernel, params: ModelParams, trials: int, rng) -> EmpiricalCheck:
    """Validate the bulk sampler against the kernel: one-step frequencies from every start state."""
    _check_empirical_size(params.n)
    gen = as_generator(rng)
    max_z = 0.0
    tests = 0
    off_support = 0
    for s in range(kernel.size):
        row = kernel.matrix[s]
        counts = _one_step_counts_bulk(s, kernel, trials, gen)
        off_support += int(counts[row == 0.0].sum())
        keep = trials * row >= 10.0
        pooled = (~keep) & (row > 0.0)
        p = row[keep]
        observed = counts[keep]
        if pooled.any():
            p = np.append(p, row[pooled].sum())
            observed = np.append(observed, counts[pooled].sum())
        if not len(p):
            continue
        var = trials * p * (1.0 - p)
        z = np.zeros(len(p))
        pos = var > 0.0
        z[pos] = (observed[pos] - trials * p[pos]) / np.sqrt(var[pos])
        # a bucket holding all the mass (p == 1, up to rounding) must be hit every single time
        z[~pos] = np.where(observed[~pos] == trials, 0.0, np.inf)
        tests += len(z)
        max_z = max(max_z, float(np.abs(z).max()))
    return EmpiricalCheck(max_z=max_z, tests=tests, off_support=off_support)


_DUMP_MAGIC = b"IRK1"


def write_matrix_dump(path, n: int, j_hat: float, matrix: np.ndarray):
    """Binary dump of the side-n covariance matrix of ``spectra --save-matrix 1``:
    magic, little-endian int64 n, float64 j_hat, row-major float64 entries."""
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<q", n))
        fh.write(struct.pack("<d", j_hat))
        fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
