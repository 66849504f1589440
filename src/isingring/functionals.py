"""Dirichlet forms, entropy/variance functionals, explicit log-Sobolev and
Poincare constants for the Wolff chain, inequality certification, and the
closed-form ergodic-average error bounds.

Functions on the configuration space are plain length-2^N float vectors in
binary state order. Single Dirichlet energies sum over the kernel's nonzero
support (``TransitionKernel.support``), not over all 4^N state pairs. The
ratio-ascent adversary calls ``dirichlet_form`` once per restart and scores
each one-coordinate trial move from a symmetric off-diagonal weight table
built once per call, in O(row degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import GibbsMeasure
from .kernel import SpectralDecomposition, TransitionKernel
from .randomness import as_generator


def _as_vector(f, size: int) -> np.ndarray:
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (size,):
        raise ValueError(f"expected a function vector of length {size}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("function vector must be finite")
    return arr


def dirichlet_form(f, kernel: TransitionKernel, measure: GibbsMeasure) -> float:
    """(1/2) sum_{x,y} (f(x)-f(y))^2 P(y,x) mu(y) over the pairs with P(y,x) > 0.

    Zero exactly on constants and never negative.
    """
    if kernel.n != measure.n:
        raise ValueError("kernel and measure sizes differ")
    vec = _as_vector(f, kernel.size)
    src, dst, prob = kernel.support
    diffs = vec[dst] - vec[src]
    return float(0.5 * (measure.probabilities[src] * prob * diffs**2).sum())


def dirichlet_form_batch(fs: np.ndarray, kernel: TransitionKernel, measure: GibbsMeasure) -> np.ndarray:
    """Dirichlet forms of many functions at once via <f, (I-P)f>_mu.

    Identical to the double-sum definition for reversible kernels (the
    identity is itself a tested invariant); used for bulk certification.
    """
    mu = measure.probabilities
    resid = fs - fs @ kernel.matrix.T
    return np.einsum("rx,x,rx->r", fs, mu, resid)


def _xlogx(arr: np.ndarray) -> np.ndarray:
    """Elementwise x log x for nonnegative x, with 0 log 0 = 0."""
    return np.where(arr > 0, arr * np.log(np.where(arr > 0, arr, 1.0)), 0.0)


def entropy(f, measure: GibbsMeasure) -> float:
    """Ent(f) = E[f log f] - E[f] log E[f] for nonnegative f, with 0 log 0 = 0.

    Negative entries are rejected rather than clamped: a negative input here
    means an upstream bug that should not be hidden.
    """
    vec = _as_vector(f, len(measure.probabilities))
    if (vec < 0).any():
        raise ValueError("entropy requires a nonnegative function")
    mu = measure.probabilities
    flogf = _xlogx(vec)
    mean = float(vec @ mu)
    if mean == 0.0:
        return 0.0
    return float(flogf @ mu) - mean * math.log(mean)


def entropy_batch(fs: np.ndarray, measure: GibbsMeasure) -> np.ndarray:
    if (fs < 0).any():
        raise ValueError("entropy requires nonnegative functions")
    mu = measure.probabilities
    flogf = _xlogx(fs)
    means = fs @ mu
    out = flogf @ mu
    pos = means > 0
    out[pos] -= means[pos] * np.log(means[pos])
    return out


def variance_batch(fs: np.ndarray, measure: GibbsMeasure) -> np.ndarray:
    """E[f^2] - (E[f])^2 under the Gibbs measure, one per row of ``fs``."""
    mu = measure.probabilities
    means = fs @ mu
    return fs**2 @ mu - means**2


def lsi_constant_bound(j_hat: float, n: int) -> float:
    """Explicit log-Sobolev constant e^{2J}(e^{4J}+1)(1/2 + J e^{(e^{2J}-1)/2}) N.

    Monotone increasing in both arguments; equals exactly N at j_hat = 0 (the
    classical hypercube random-walk constant). Raises ValueError where it
    overflows a float64, from j_hat of about 3.6 on.
    """
    j = float(j_hat)
    if j < 0 or not math.isfinite(j):
        raise ValueError("the log-Sobolev bound needs a finite nonnegative coupling")
    try:
        bound = math.exp(2 * j) * (math.exp(4 * j) + 1.0) * (0.5 + j * math.exp((math.exp(2 * j) - 1.0) / 2.0)) * n
    except OverflowError:
        bound = math.inf
    if math.isinf(bound):
        raise ValueError(f"the log-Sobolev bound overflows a float64 at j_hat={j!r}, n={n}")
    return bound


def poincare_constant_bound(j_hat: float, n: int) -> float:
    """Half the log-Sobolev constant (the standard linearization)."""
    return lsi_constant_bound(j_hat, n) / 2.0


#: A certification passes while rhs - lhs >= -SLACK_TOLERANCE (float64 rounding).
SLACK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class InequalityReport:
    """One certification: lhs <= rhs for one test function.

    ``kind`` is "lsi" (Ent(f^2) <= C_LS E(f)) or "poincare"
    (Var(f) <= C_PI E(f)); ``family`` names where the function came from.
    """

    family: str
    kind: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.slack >= -SLACK_TOLERANCE


def certify_lsi(f, kernel: TransitionKernel, measure: GibbsMeasure, constant: Optional[float] = None) -> InequalityReport:
    """Check Ent(f^2) <= constant * E(f) for one function (any sign)."""
    if constant is None:
        constant = lsi_constant_bound(kernel.params.require_finite("certify_lsi"), kernel.n)
    vec = _as_vector(f, kernel.size)
    lhs = entropy(vec**2, measure)
    rhs = constant * dirichlet_form(vec, kernel, measure)
    return InequalityReport(family="single", kind="lsi", lhs=lhs, rhs=rhs)


def ergodic_l2_bound(j_hat: float, n: int, m: int, f_norm: float) -> tuple:
    """Closed-form error bounds for M-step ergodic averages started from mu.

    Returns (averaged-operator bound, trajectory bound):
    the L^2 distance of (1/M) sum_k P^k f from E[f] is at most
    (||f||/M)(2 + C_PI), and the mean squared error of the time average along
    a stationary trajectory is at most (||f||^2/M) C_LS.
    """
    if m < 1:
        raise ValueError("need m >= 1 steps")
    avg_bound = (f_norm / m) * (2.0 + poincare_constant_bound(j_hat, n))
    traj_bound = (f_norm**2 / m) * lsi_constant_bound(j_hat, n)
    return avg_bound, traj_bound


# ---------------------------------------------------------------------------
# Test-function families for the certification sweep
# ---------------------------------------------------------------------------


def character_function(n: int, sites) -> np.ndarray:
    """chi_S(sigma) = prod_{i in S} sigma_i over all states in binary order."""
    states = np.arange(1 << n, dtype=np.int64)
    out = np.ones(1 << n)
    for s in sites:
        out *= 2.0 * ((states >> (s - 1)) & 1) - 1.0
    return out


def indicator_function(n: int, state_bits: int) -> np.ndarray:
    out = np.zeros(1 << n)
    out[state_bits] = 1.0
    return out


def structured_test_functions(decomposition: SpectralDecomposition, n: int) -> list:
    """(family, vector) pairs probing the inequalities where they are tightest:
    characters, indicators, exact eigenfunctions, and |eigenfunction| to
    stress the entropy side."""
    out = [
        ("character", character_function(n, [1])),
        ("character", character_function(n, [1, 2])),
        ("character", character_function(n, [1, (n // 2) + 1])),
        ("indicator", indicator_function(n, 0)),
        ("indicator", indicator_function(n, (1 << n) - 1)),
        ("indicator", indicator_function(n, (1 << n) // 3)),
    ]
    basis = decomposition.basis
    out.append(("eigenfunction", basis[:, 1].copy()))
    out.append(("eigenfunction", basis[:, min(2, basis.shape[1] - 1)].copy()))
    out.append(("eigenfunction", basis[:, -1].copy()))
    out.append(("abs-eigenfunction", np.abs(basis[:, 1])))
    out.append(("abs-eigenfunction", np.abs(basis[:, -1])))
    return out


#: Coordinate step of the ratio-ascent adversary's trial moves.
ADVERSARY_STEP = 0.25


def _pair_weights(kernel: TransitionKernel, measure: GibbsMeasure) -> tuple:
    """CSR rows (indptr, cols, weights) of W_xy = (mu_x P(x,y) + mu_y P(y,x))/2, x != y.

    E(f) is the sum over unordered pairs {x, y} of W_xy (f(x)-f(y))^2, so row
    x holds every term that a change of f(x) moves. Self-loops are dropped,
    since (f(x)-f(x))^2 = 0, and no reversibility is assumed.
    """
    size = kernel.size
    src, dst, prob = kernel.support
    off = src != dst
    src, dst = src[off], dst[off]
    half = 0.5 * measure.probabilities[src] * prob[off]
    keys, inverse = np.unique(np.concatenate([src * size + dst, dst * size + src]), return_inverse=True)
    weights = np.bincount(inverse, weights=np.concatenate([half, half]))
    indptr = np.searchsorted(keys // size, np.arange(size + 1))
    return indptr, keys % size, weights


def _score_sums(vec: np.ndarray, energy: float, mu: np.ndarray) -> tuple:
    """(E(v), sum mu v, sum mu v^2, sum mu v^2 log v^2) for a given energy E(v)."""
    sq = vec * vec
    return energy, float(vec @ mu), float(sq @ mu), float(_xlogx(sq) @ mu)


def _square_log(t: float) -> float:
    sq = t * t
    return sq * math.log(sq) if sq > 0 else 0.0


def _moved_sums(sums: tuple, vec: np.ndarray, x: int, delta: float, rows: tuple, mu: np.ndarray) -> tuple:
    """``_score_sums`` of ``vec`` with vec[x] += delta, in O(deg x) from ``sums``."""
    energy, mean, square, square_log = sums
    indptr, cols, weights = rows
    lo, hi = indptr[x], indptr[x + 1]
    old = float(vec[x])
    new = old + delta
    m = float(mu[x])
    d_energy = float(weights[lo:hi] @ (2.0 * delta * (old - vec[cols[lo:hi]]) + delta * delta))
    return (
        energy + d_energy,
        mean + m * delta,
        square + m * (new * new - old * old),
        square_log + m * (_square_log(new) - _square_log(old)),
    )


def _score(sums: tuple, target: str) -> float:
    """Ent(v^2)/E(v) or Var(v)/E(v); both are invariant under v -> c v."""
    energy, mean, square, square_log = sums
    if energy <= 1e-14 * square:
        return -math.inf
    if target == "lsi":
        return (square_log - square * math.log(square)) / energy
    return (square - mean * mean) / energy


def ratio_ascent_adversary(
    kernel: TransitionKernel,
    measure: GibbsMeasure,
    rng,
    target: str = "lsi",
    restarts: int = 100,
    sweeps: int = 40,
) -> np.ndarray:
    """Coordinate-ascent local search for a function with a large lhs/rhs ratio.

    Each restart draws a normalised Gaussian vector; each sweep draws one
    coordinate and accepts the first of the moves +-ADVERSARY_STEP that
    raises Ent(f^2)/E(f) (``target="lsi"``) or Var(f)/E(f)
    (``target="poincare"``), then renormalises to E[f^2] = 1. The best
    vector over the restarts is returned.

    ``dirichlet_form`` runs once per restart. A trial move is scored in
    O(deg x) from a symmetric off-diagonal weight table built once per call
    and four running sums (energy, E[f], E[f^2], E[f^2 log f^2]); an
    accepted move recomputes the last three in O(2^N). Trials are scored
    unnormalised, since both ratios are invariant under f -> c f. The moves
    are those of a search that renormalises and evaluates every trial in
    full, except on near-ties below one rounding unit: these appear once the
    smallest Gibbs weight is below about 2e-16 of the largest.

    Raises ValueError, before any draw, for an unknown ``target``,
    ``restarts < 1`` or ``sweeps < 0``.

    This is not a certified optimum (the exact log-Sobolev constant is out of
    scope); it only supplies adversarial inputs for one-sided certification.
    """
    if target not in ("lsi", "poincare"):
        raise ValueError(f"target must be 'lsi' or 'poincare', got {target!r}")
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    if sweeps < 0:
        raise ValueError(f"need sweeps >= 0, got {sweeps}")
    gen = as_generator(rng)
    mu = measure.probabilities
    size = kernel.size
    rows = _pair_weights(kernel, measure)

    best_vec = gen.standard_normal(size)
    best_ratio = -math.inf
    for _ in range(restarts):
        vec = gen.standard_normal(size)
        vec /= math.sqrt(float(vec**2 @ mu))
        sums = _score_sums(vec, dirichlet_form(vec, kernel, measure), mu)
        current = _score(sums, target)
        for _ in range(sweeps):
            x = int(gen.integers(size))
            for delta in (ADVERSARY_STEP, -ADVERSARY_STEP):
                moved = _moved_sums(sums, vec, x, delta, rows, mu)
                r = _score(moved, target)
                if r > current:
                    vec[x] += delta
                    norm2 = float(vec**2 @ mu)
                    vec /= math.sqrt(norm2)
                    sums = _score_sums(vec, moved[0] / norm2, mu)
                    current = r
                    break
        if current > best_ratio:
            best_ratio, best_vec = current, vec
    return best_vec


#: ``certification_sweep`` draws and certifies the random family this many rows at a time.
CERTIFY_BLOCK = 256


def _batch_reports(family: str, fs: np.ndarray, kernel: TransitionKernel, measure: GibbsMeasure,
                   c_ls: float, c_pi: float) -> list:
    """LSI and Poincare reports for each row of ``fs``, in row order."""
    energies = dirichlet_form_batch(fs, kernel, measure)
    ent = entropy_batch(fs**2, measure)
    var = variance_batch(fs, measure)
    results = []
    for k in range(fs.shape[0]):
        results.append(InequalityReport(family, "lsi", float(ent[k]), float(c_ls * energies[k])))
        results.append(InequalityReport(family, "poincare", float(var[k]), float(c_pi * energies[k])))
    return results


def certification_sweep(
    kernel: TransitionKernel,
    measure: GibbsMeasure,
    decomposition: SpectralDecomposition,
    n_random: int,
    rng,
) -> list:
    """Certify the LSI and Poincare inequalities on random, structured and adversarial functions.

    Random functions have i.i.d. standard normal components, drawn and
    certified ``CERTIFY_BLOCK`` rows at a time (the last block up to one row
    more): the rows and their reports are those of one (n_random, 2^N) draw,
    and no array grows with ``n_random``. The two ratio-ascent adversaries (one per inequality) draw
    from ``rng`` after them. Each block is vectorized (quadratic-form
    Dirichlet energies). Returns InequalityReport rows: random, structured,
    then adversarial.
    """
    gen = as_generator(rng)
    j_hat = kernel.params.require_finite("certification_sweep")
    n = kernel.n
    c_ls = lsi_constant_bound(j_hat, n)
    c_pi = poincare_constant_bound(j_hat, n)

    results = []
    done = 0
    while done < n_random:
        # a last block of one row would be summed by numpy's dot, not gemv as in one
        # whole draw, so the block before it takes that row
        rows = n_random - done if n_random - done <= CERTIFY_BLOCK + 1 else CERTIFY_BLOCK
        fs = gen.standard_normal((rows, kernel.size))
        results += _batch_reports("random", fs, kernel, measure, c_ls, c_pi)
        done += rows
    batches = [(family, vec[None, :]) for family, vec in structured_test_functions(decomposition, n)]
    adv = ratio_ascent_adversary(kernel, measure, gen, target="lsi", restarts=20, sweeps=30)
    batches.append(("adversarial", adv[None, :]))
    adv_p = ratio_ascent_adversary(kernel, measure, gen, target="poincare", restarts=20, sweeps=30)
    batches.append(("adversarial", adv_p[None, :]))
    for family, fs in batches:
        results += _batch_reports(family, fs, kernel, measure, c_ls, c_pi)
    return results
