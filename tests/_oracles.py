"""Independent brute-force oracles for the test suite.

Everything here works on plain spin tuples or dense arrays with direct
enumeration and no shared code with the package internals, so oracle
agreement is meaningful. The exceptions are ``full_ratio_ascent_adversary``,
which checks how the package's search scores its moves, not the functionals
it scores them with, ``per_step_chain_bits``, the package's chain
arithmetic before its block loops, and ``per_state_simulate_sums``, the
simulate command's sums before its uint64 blocks; these two check the
package bit for bit.
"""

import itertools
import math

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


def set_arc_witness(sites, n):
    """First (start, length) in lexicographic order whose arc equals the set, else None."""
    for start in range(1, n + 1):
        for length in range(1, n + 1):
            if {(start - 1 + k) % n + 1 for k in range(length)} == sites:
                return (start, length)
    return None


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


def c_hat_direct(m, x):
    """1 + (2/m) sum_{1<=l<k<=m} x^{k-l}, the double-sum form."""
    total = 0.0
    for d in range(1, m):
        total += (m - d) * x**d
    return 1.0 + 2.0 * total / m


def geometric_sum_direct(m, x):
    return sum(x**k for k in range(1, m + 1))


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
    package's single-function functionals, so that the two searches differ
    only in how a trial is scored.
    """
    from isingring.functionals import dirichlet_form, entropy, variance
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
