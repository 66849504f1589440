"""Independent brute-force oracles for the test suite.

Everything here works on plain spin tuples or dense arrays with direct
enumeration and no shared code with the package internals, so oracle
agreement is meaningful. The exceptions are ``full_ratio_ascent_adversary``,
which checks how the package's search scores its moves, not the functionals
it scores them with, ``per_step_chain_bits``, the package's chain
arithmetic before its block loops, ``per_state_simulate_sums``, the
simulate command's sums before its uint64 blocks, and
``whole_batch_certification_sweep``, the certification sweep before its row
blocks; these three check the package bit for bit.

The reference forms at the end of the module (stored-ensemble covariance,
the stack Wolff step and its one-step counts, the single-function variance,
the susceptibility row sum, the component form of the Glauber flip
probability, the brute-force partition function, the covariance dump
reader, the dense spectral decomposition) were once part of the package
and only the tests read them; they use the package's data types and, where
they say so, its enumeration helpers.
"""

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np


def all_spin_tuples(n):
    return list(itertools.product((1, -1), repeat=n))


def bond_sum(spins):
    n = len(spins)
    return sum(spins[i] * spins[(i + 1) % n] for i in range(n))


def brute_partition(n, j):
    return sum(math.exp(j * bond_sum(s)) for s in all_spin_tuples(n))


def brute_gibbs(n, j):
    """{spin tuple: probability} by direct enumeration."""
    z = brute_partition(n, j)
    return {s: math.exp(j * bond_sum(s)) / z for s in all_spin_tuples(n)}


def brute_expectation(n, j, func):
    return sum(p * func(s) for s, p in brute_gibbs(n, j).items())


def brute_pair_correlation(n, j, i, k):
    """E[sigma_i sigma_k], 1-based sites."""
    return brute_expectation(n, j, lambda s: s[i - 1] * s[k - 1])


class UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def uf_components(spins):
    """Aligned-bond components via union-find: (plus sets, minus sets), 1-based."""
    n = len(spins)
    uf = UnionFind(n)
    for b in range(n):
        if spins[b] == spins[(b + 1) % n]:
            uf.union(b, (b + 1) % n)
    groups = {}
    for site in range(n):
        groups.setdefault(uf.find(site), set()).add(site + 1)
    plus, minus = [], []
    for members in groups.values():
        head = min(members)
        (plus if spins[head - 1] == 1 else minus).append(frozenset(members))
    return sorted(plus, key=min), sorted(minus, key=min)


def ring_bonds(n):
    """The n ring bonds (i, i mod n + 1), 1-based; at n = 2 both (1, 2) and (2, 1)."""
    return [(i, i % n + 1) for i in range(1, n + 1)]


def ring_neighbors(site, n):
    """The left and right ring neighbours of a 1-based site."""
    return {(site - 2) % n + 1, site % n + 1}


def set_edge_boundary(sites, n):
    """Ring bonds with exactly one endpoint in the site set."""
    return {(a, b) for a, b in ring_bonds(n) if (a in sites) != (b in sites)}


def set_vertex_boundary(sites, n):
    """Member sites with a ring neighbour outside the site set."""
    return {s for s in sites if not ring_neighbors(s, n) <= sites}


def set_is_connected(sites, n):
    """Nonempty and reachable from one member by steps between member neighbours."""
    if not sites:
        return False
    start = min(sites)
    seen, stack = {start}, [start]
    while stack:
        for nxt in ring_neighbors(stack.pop(), n) & sites:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == sites


def percolation_step_distribution(spins, j):
    """One-step Wolff law by enumeration over seeds and open-bond patterns.

    The cluster grown from a seed equals the seed's connected component in
    the graph whose edges are the open aligned bonds (frustrated bonds are
    always closed, aligned bonds open independently with probability
    1 - e^{-2j}). Returns {target spin tuple: probability}.
    """
    n = len(spins)
    if j == "inf":
        p_open = 1.0
    else:
        p_open = 1.0 - math.exp(-2.0 * j)
    aligned = [b for b in range(n) if spins[b] == spins[(b + 1) % n]]
    dist = {}
    for pattern in itertools.product((False, True), repeat=len(aligned)):
        weight = 1.0
        for open_ in pattern:
            weight *= p_open if open_ else (1.0 - p_open)
        if weight == 0.0:
            continue
        open_bonds = [b for b, open_ in zip(aligned, pattern) if open_]
        adj = {site: [] for site in range(n)}
        for b in open_bonds:
            adj[b].append((b + 1) % n)
            adj[(b + 1) % n].append(b)
        for seed in range(n):
            stack = [seed]
            comp = {seed}
            while stack:
                cur = stack.pop()
                for nxt in adj[cur]:
                    if nxt not in comp:
                        comp.add(nxt)
                        stack.append(nxt)
            target = tuple(-s if idx in comp else s for idx, s in enumerate(spins))
            dist[target] = dist.get(target, 0.0) + weight / n
    return dist


def dense_dirichlet_form(f, matrix, mu):
    """(1/2) sum over all 4^N pairs (x, y) of (f(y)-f(x))^2 P(x,y) mu(x)."""
    vec = np.asarray(f, dtype=np.float64)
    diffs = vec[None, :] - vec[:, None]
    return float(0.5 * (mu[:, None] * matrix * diffs**2).sum())


def dense_detailed_balance(matrix, mu):
    """max over all 4^N pairs of |mu(x)P(x,y) - mu(y)P(y,x)|."""
    flux = mu[:, None] * matrix
    return float(np.abs(flux - flux.T).max())


def roll_cumprod_wolff_step_many(spins, bond_prob, gen):
    """One arc-law Wolff step per row of a (chains, n) +-1 array, on spin arrays.

    Draws the seeds, then the right and then the left truncated-geometric
    extensions as blocks of ``chains`` values each; the aligned runs right
    and left of each seed come from cumulative products of the rolled
    aligned-bond indicators (column b: bond (b, b+1 mod n)).
    """
    c, n = spins.shape
    seeds = gen.integers(0, n, size=c)

    def extensions(u):
        if bond_prob <= 0.0:
            return np.zeros(c, dtype=np.int64)
        if bond_prob >= 1.0:
            return np.full(c, n, dtype=np.int64)
        with np.errstate(divide="ignore"):
            return np.minimum(np.floor(np.log(u) / math.log(bond_prob)), n).astype(np.int64)

    g_right = extensions(gen.random(c))
    g_left = extensions(gen.random(c))
    aligned = spins == np.roll(spins, -1, axis=1)
    offsets = np.arange(n)
    idx_right = (seeds[:, None] + offsets) % n
    run_right = np.cumprod(np.take_along_axis(aligned, idx_right, axis=1), axis=1).sum(axis=1)
    idx_left = (seeds[:, None] - 1 - offsets) % n
    run_left = np.cumprod(np.take_along_axis(aligned, idx_left, axis=1), axis=1).sum(axis=1)
    ext_right = np.minimum(np.minimum(g_right, run_right), n - 1)
    ext_left = np.minimum(np.minimum(g_left, run_left), n - 1 - ext_right)
    rel = (offsets[None, :] - seeds[:, None]) % n
    in_cluster = (rel <= ext_right[:, None]) | (rel >= (n - ext_left)[:, None])
    return np.where(in_cluster, -spins, spins)


def per_step_chain_bits(bits, states, kind, n, law, gen):
    """``states`` bit-packed chain states from ``bits``, one function call per step.

    The chain as the package stepped it before its block loops: draw blocks
    of at most 4096 steps, cut at the steps remaining; a Wolff block (``law``
    is the bond probability) draws seeds, then right, then left truncated-
    geometric extensions and applies the scalar arc law per state; a Glauber
    block (``law`` is the heat-bath flip probability with 0, 1, 2 neighbours
    aligned) draws sites, then uniforms.
    """
    out = [bits]
    for done in range(0, states - 1, 4096):
        count = min(4096, states - 1 - done)
        if kind == "glauber":
            for site, u in zip(gen.integers(0, n, size=count).tolist(), gen.random(count).tolist()):
                bits = _glauber_flip_bits(bits, site, u, n, law)
                out.append(bits)
        else:
            seeds = gen.integers(0, n, size=count)
            g_right = _truncated_geometric(gen.random(count), law, n)
            g_left = _truncated_geometric(gen.random(count), law, n)
            for seed, right, left in zip(seeds.tolist(), g_right.tolist(), g_left.tolist()):
                bits = _wolff_arc_bits(bits, seed, right, left, n)
                out.append(bits)
    return out


def per_state_simulate_sums(states, n):
    """Magnetization and nearest-neighbour correlation sums over bit-packed
    ``states``, one Python float ``+=`` per state, as ``isingring simulate``
    added them before reducing in uint64 blocks."""
    mag_sum = 0.0
    corr_sum = 0.0
    for bits in states:
        pc = bits.bit_count()
        mag_sum += (2 * pc - n) / n
        frustrated = (bits ^ ((bits >> 1) | ((bits & 1) << (n - 1)))).bit_count()
        corr_sum += (n - 2 * frustrated) / n
    return mag_sum, corr_sum


def _truncated_geometric(u, bond_prob, n):
    if bond_prob <= 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    if bond_prob >= 1.0:
        return np.full(u.shape, n, dtype=np.int64)
    with np.errstate(divide="ignore"):
        g = np.floor(np.log(u) / math.log(bond_prob))
    return np.minimum(g, n).astype(np.int64)


def _glauber_flip_bits(bits, site, u, n, flip_probs):
    s = (bits >> site) & 1
    aligned = (((bits >> ((site - 1) % n)) & 1) == s) + (((bits >> ((site + 1) % n)) & 1) == s)
    return bits ^ (1 << site) if u < flip_probs[aligned] else bits


def _wolff_arc_bits(bits, seed, g_right, g_left, n):
    full = (1 << n) - 1
    aligned = ~(bits ^ ((bits >> 1) | ((bits & 1) << (n - 1)))) & full
    rotated = ((aligned >> seed) | (aligned << (n - seed))) & full
    run_r = (rotated & ~(rotated + 1)).bit_count()
    run_l = n - (rotated ^ full).bit_length()
    ext_r = min(g_right, run_r, n - 1)
    ext_l = min(g_left, run_l, n - 1 - ext_r)
    start = (seed - ext_l) % n
    arc = (1 << (ext_l + ext_r + 1)) - 1
    return bits ^ (((arc << start) | (arc >> (n - start))) & full)


def full_ratio_ascent_adversary(kernel, measure, rng, target="lsi", restarts=100, sweeps=40):
    """The ratio-ascent search with every trial renormalised and scored in full.

    Each trial copies the vector, moves one coordinate by +-0.25,
    renormalises to E[f^2] = 1 and recomputes ``dirichlet_form``, ``entropy``
    and ``variance`` over the whole state space. It draws from ``rng`` in the
    same order as ``functionals.ratio_ascent_adversary``, which must return
    the same vector bit for bit. Unlike the rest of this module it calls the
    package's single-function functionals (and this module's ``variance``,
    once the package's), so that the two searches differ only in how a
    trial is scored.
    """
    from isingring.functionals import dirichlet_form, entropy
    from isingring.randomness import as_generator

    gen = as_generator(rng)
    mu = measure.probabilities
    size = kernel.size

    def ratio(vec):
        energy = dirichlet_form(vec, kernel, measure)
        if energy <= 1e-14:
            return -math.inf
        if target == "lsi":
            return entropy(vec**2, measure) / energy
        return variance(vec, measure) / energy

    best_vec = gen.standard_normal(size)
    best_ratio = -math.inf
    for _ in range(restarts):
        vec = gen.standard_normal(size)
        vec /= math.sqrt(float(vec**2 @ mu))
        current = ratio(vec)
        for _ in range(sweeps):
            x = int(gen.integers(size))
            for delta in (0.25, -0.25):
                trial = vec.copy()
                trial[x] += delta
                trial /= math.sqrt(float(trial**2 @ mu))
                r = ratio(trial)
                if r > current:
                    vec, current = trial, r
                    break
        if current > best_ratio:
            best_ratio, best_vec = current, vec
    return best_vec


def hypercube_walk_spectrum(n, lazy=False):
    """Analytic spectrum of the uniform single-flip walk, descending.

    Characters chi_S diagonalize the flip average with eigenvalue 1 - 2|S|/N
    (1 - |S|/N for the lazy half-step walk), each |S|=k appearing C(N,k)
    times. The oracle for the numeric decomposition at j_hat = 0.
    """
    values = []
    for k in range(n + 1):
        lam = 1.0 - (k / n if lazy else 2.0 * k / n)
        values.extend([lam] * math.comb(n, k))
    return np.sort(np.array(values))[::-1]


@dataclass(frozen=True)
class Ensemble:
    """Unit-norm microstate columns X_k = Y_k/sqrt(N), shape (n, m)."""

    x: np.ndarray

    @property
    def m(self):
        return self.x.shape[1]


def build_ensemble(states, n):
    """The ensemble of a stored chain (``run_chain``'s uint64 states) on ``n`` sites, decoded in one piece."""
    from isingring.dynamics import decode_states

    spins = decode_states(states, n).astype(np.float64)
    return Ensemble(x=spins.T / math.sqrt(n))


def covariance_matrix(ensemble):
    """K = X X^T / M; symmetric PSD with unit trace."""
    return ensemble.x @ ensemble.x.T / ensemble.m


def correlation_matrix(ensemble):
    """C = X^T X / M; trace 1, diagonal 1/M, same nonzero spectrum as K."""
    return ensemble.x.T @ ensemble.x / ensemble.m


def ergodic_average(f, configurations):
    """(1/M) sum_k f(Y_k) over any iterable of configurations."""
    total = 0.0
    count = 0
    for cfg in configurations:
        total += f(cfg)
        count += 1
    if count == 0:
        raise ValueError("empty trajectory")
    return total / count


def _wolff_step_bits(bits, n, bond_prob, gen):
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


def one_step_counts_stack(state_bits, kernel, trials, gen):
    """One-step target counts from ``state_bits`` by the reference per-trial steppers.

    Takes the place of ``kernel._one_step_counts_bulk`` in
    ``empirical_vs_exact``: the same law, but one stack-algorithm cluster
    growth (``_wolff_step_bits``) per Wolff trial, or one heat-bath update
    drawing a site and then a uniform per Glauber trial.
    """
    from isingring import derived_constants
    from isingring.dynamics import WOLFF, _glauber_flip_probs

    n = kernel.n
    counts = np.zeros(kernel.size, dtype=np.int64)
    if kernel.kind == WOLFF:
        bond_prob = derived_constants(kernel.params).bond_prob
        for _ in range(trials):
            counts[_wolff_step_bits(state_bits, n, bond_prob, gen)] += 1
    else:
        flip_probs = _glauber_flip_probs(kernel.params.require_finite("one_step_counts_stack"))
        for _ in range(trials):
            site = int(gen.integers(n))
            counts[_glauber_flip_bits(state_bits, site, gen.random(), n, flip_probs)] += 1
    return counts


def variance(f, measure):
    """E[f^2] - (E[f])^2 under the Gibbs measure."""
    from isingring.functionals import _as_vector

    vec = _as_vector(f, len(measure.probabilities))
    mu = measure.probabilities
    mean = float(vec @ mu)
    return float(vec**2 @ mu) - mean * mean


def susceptibility_row_sum(i, params):
    """sum_j E[sigma_i sigma_j]; translation invariant, bounded by e^{2 j_hat}."""
    from isingring.model import _check_site, two_point_correlation

    params.require_finite("susceptibility_row_sum")
    _check_site(i, params.n)
    return float(sum(two_point_correlation(i, j, params) for j in range(1, params.n + 1)))


def glauber_flip_probability_from_components(config, site, params):
    """Heat-bath flip probability of 1-based ``site`` from the component case analysis.

    The cross-check form of ``kernel.build_glauber_kernel``'s single-flip
    entries (times N); reads the package's component decomposition.
    """
    from isingring import FlipSet, decompose, vertex_boundary

    j_hat = params.require_finite("glauber_flip_probability_from_components")
    if config.n != params.n:
        raise ValueError("sizes of configuration and params differ")
    if not 1 <= site <= params.n:
        raise ValueError(f"site {site} out of range 1..{params.n}")
    e2, em2 = math.exp(2.0 * j_hat), math.exp(-2.0 * j_hat)
    dec = decompose(config)
    if dec.plus_count == 0 or dec.minus_count == 0:
        return em2 / (e2 + em2)
    bit = 1 << (site - 1)
    comp = next(c for c in dec.components() if c & bit)
    if comp == bit:
        return e2 / (e2 + em2)
    if vertex_boundary(FlipSet(comp, params.n)) & bit:
        return 0.5
    return em2 / (e2 + em2)


def partition_function_brute(params):
    """Direct sum of exp(J * bond sum) over all 2^N states, from the package's
    bond-sum table (which refuses n above its enumeration cap)."""
    from isingring.model import bond_sum_all_states

    j = params.require_finite("partition_function_brute")
    sums = bond_sum_all_states(params.n)
    return float(np.exp(j * sums.astype(np.float64)).sum())


def read_matrix_dump(path):
    """Inverse of ``kernel.write_matrix_dump``: (n, j_hat, matrix) of a side-n dump.

    Raises ValueError naming the defect unless the payload is a square
    float64 matrix of side n.
    """
    with open(path, "rb") as fh:
        header = fh.read(20)
        payload = fh.read()
    if header[:4] != b"IRK1":
        raise ValueError("not a matrix dump")
    if len(header) < 20:
        raise ValueError("truncated dump header")
    n, j_hat = struct.unpack("<qd", header[4:])
    if len(payload) % 8:
        raise ValueError(f"dump payload of {len(payload)} bytes is not a whole number of float64 entries")
    data = np.frombuffer(payload, dtype="<f8")
    side = math.isqrt(data.size)
    if side * side != data.size:
        raise ValueError(f"dump payload of {data.size} entries is not a square matrix")
    if side != n:
        raise ValueError(f"dump matrix side {side} is not n={n}")
    return n, j_hat, data.reshape(side, side).copy()


def dense_symmetrize_and_decompose(kernel, measure):
    """``kernel.symmetrize_and_decompose`` before its flip sectors: one dense ``eigh`` of side 2^N.

    Returns the package's ``SpectralDecomposition``, eigenvalues descending
    (ties by ascending ``eigh`` index), with no reversibility or flip check.
    """
    from isingring.kernel import SpectralDecomposition

    root = np.sqrt(measure.probabilities)
    sym = kernel.matrix * (root[:, None] / root[None, :])
    sym = 0.5 * (sym + sym.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(-eigvals, kind="stable")
    basis = eigvecs[:, order] / root[:, None]
    if basis[0, 0] < 0:
        basis[:, 0] = -basis[:, 0]
    return SpectralDecomposition(eigenvalues=eigvals[order], basis=basis)


def whole_batch_certification_sweep(kernel, measure, decomposition, n_random, rng):
    """``functionals.certification_sweep`` before its row blocks: the random family in one draw.

    Draws one (n_random, 2^N) normal array, then the two adversaries, and
    scores every batch with the package's batch functionals, so the reports
    must equal the package's bit for bit.
    """
    from isingring.functionals import (
        InequalityReport,
        dirichlet_form_batch,
        entropy_batch,
        lsi_constant_bound,
        poincare_constant_bound,
        ratio_ascent_adversary,
        structured_test_functions,
        variance_batch,
    )
    from isingring.randomness import as_generator

    gen = as_generator(rng)
    j_hat = kernel.params.require_finite("whole_batch_certification_sweep")
    c_ls = lsi_constant_bound(j_hat, kernel.n)
    c_pi = poincare_constant_bound(j_hat, kernel.n)
    batches = [("random", gen.standard_normal((n_random, kernel.size)))]
    for family, vec in structured_test_functions(decomposition, kernel.n):
        batches.append((family, vec[None, :]))
    for target in ("lsi", "poincare"):
        adv = ratio_ascent_adversary(kernel, measure, gen, target=target, restarts=20, sweeps=30)
        batches.append(("adversarial", adv[None, :]))
    results = []
    for family, fs in batches:
        energies = dirichlet_form_batch(fs, kernel, measure)
        ent = entropy_batch(fs**2, measure)
        var = variance_batch(fs, measure)
        for k in range(fs.shape[0]):
            results.append(InequalityReport(family, "lsi", float(ent[k]), float(c_ls * energies[k])))
            results.append(InequalityReport(family, "poincare", float(var[k]), float(c_pi * energies[k])))
    return results
