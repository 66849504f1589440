"""Sample covariance matrices of chain runs, their spectra, Gershgorin
bounds, and the per-cell evaluation of the condensation experiment
contrasting the subcritical regime with the critical point.

A trajectory Y_1..Y_M gives the N x M ensemble of unit columns
X_k = Y_k / sqrt(N), and the covariance matrix is K = X X^T / M (trace 1).
Covariance accumulation is streaming (block rank updates), so M = 10^7 runs
in O(N^2) memory without storing the ensemble; error bars come from 20
contiguous batch means because successive chain states are correlated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    Configuration,
    ModelParams,
    derived_constants,
    susceptibility_closed_form_bound,
)
from .clusters import decompose
from .dynamics import _uniform_states, decode_states, iter_chain, sample_stationary
from .functionals import lsi_constant_bound
from .randomness import as_generator

DEFAULT_BATCHES = 20

#: Covariance runs decode and accumulate at most this many states at once.
ACCUMULATE_BLOCK = 8192


class CovarianceAccumulator:
    """Streaming K += X_k X_k^T / M without storing the ensemble.

    Accepts blocks of +-1 spin rows; per-chain partials merge associatively.
    """

    def __init__(self, n: int):
        self.n = n
        self.total = np.zeros((n, n))
        self.count = 0

    def add_spins(self, block: np.ndarray):
        """block: (B, n) matrix of +-1 spins (rows are successive states)."""
        b = np.asarray(block, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] != self.n:
            raise ValueError(f"expected a (B, {self.n}) block")
        self.total += b.T @ b
        self.count += b.shape[0]

    def merge(self, other: "CovarianceAccumulator"):
        if other.n != self.n:
            raise ValueError("accumulator sizes differ")
        self.total += other.total
        self.count += other.count

    def matrix(self) -> np.ndarray:
        if self.count == 0:
            raise ValueError("no samples accumulated")
        return self.total / (self.count * self.n)


def eigenvalues_symmetric(matrix: np.ndarray, k: Optional[int] = None) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending; optionally the top k."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    if not np.allclose(m, m.T, atol=1e-10):
        raise ValueError("matrix is not symmetric")
    values = np.linalg.eigvalsh(m)[::-1]
    return values[:k] if k is not None else values


def gershgorin_norm(matrix: np.ndarray) -> float:
    """Max absolute row sum; upper-bounds the spectral radius."""
    m = np.asarray(matrix, dtype=np.float64)
    return float(np.abs(m).sum(axis=1).max())


def exact_limit_covariance(params: ModelParams) -> np.ndarray:
    """The M -> infinity limit of K: entries E[sigma_i sigma_j]/N, closed form."""
    params.require_finite("exact_limit_covariance")
    n = params.n
    theta = derived_constants(params).tanh_j
    d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(np.float64)
    return (theta**d + theta ** (n - d)) / (1.0 + theta**n) / n


def khat_norm_bound(params: ModelParams) -> float:
    """Gershgorin bound for the limit covariance: (1/N) * susceptibility row-sum bound."""
    return susceptibility_closed_form_bound(params) / params.n


def subcritical_norm_bound(params: ModelParams, m: int) -> tuple:
    """(deterministic ||K_hat||_1 bound, stochastic E[||K||_1^2] bound at M=m).

    The stochastic bound is
    (sqrt(N^2/M * c) + 1/sqrt(N) + chi_term/sqrt(N))^2 with c the per-site
    log-Sobolev constant factor and chi_term the closed-form correlation sum.
    """
    j_hat = params.require_finite("subcritical_norm_bound")
    n = params.n
    det_bound = khat_norm_bound(params)
    c_per_site = lsi_constant_bound(j_hat, n) / n
    chi_term = susceptibility_closed_form_bound(params) - 1.0
    stoch = (math.sqrt(n**2 / m * c_per_site) + 1.0 / math.sqrt(n) + chi_term / math.sqrt(n)) ** 2
    return det_bound, stoch


# ---------------------------------------------------------------------------
# Chain-driven covariance runs
# ---------------------------------------------------------------------------


@dataclass
class CovarianceRun:
    """Covariance of one chain plus batch-means error bars and hit bookkeeping."""

    matrix: np.ndarray
    batch_matrices: np.ndarray  # (batches, n, n)
    hit_index: Optional[int] = None
    initial_plus_components: Optional[int] = None

    @property
    def norm1(self) -> float:
        return gershgorin_norm(self.matrix)

    @property
    def batch_norms(self) -> np.ndarray:
        return np.abs(self.batch_matrices).sum(axis=2).max(axis=1)

    @property
    def norm1_batch_mean(self) -> float:
        return float(self.batch_norms.mean())

    @property
    def norm1_batch_se(self) -> float:
        norms = self.batch_norms
        return float(norms.std(ddof=1) / math.sqrt(len(norms)))

    def entry_batch_se(self) -> np.ndarray:
        """Per-entry standard error from the batch means."""
        k = self.batch_matrices.shape[0]
        return self.batch_matrices.std(axis=0, ddof=1) / math.sqrt(k)


def run_covariance_chain(params: ModelParams, m: int, kind: str, rng) -> CovarianceRun:
    """Drive one chain for m states and stream-accumulate its covariance.

    Finite coupling starts from an exact stationary draw; the critical point
    starts from a uniform random state and records the aligned hitting index.
    """
    gen = as_generator(rng)
    n = params.n
    if params.is_critical:
        initial = Configuration(_uniform_states(n, 1, gen)[0], n)
    else:
        initial = sample_stationary(params, gen)

    boundaries = np.linspace(0, m, DEFAULT_BATCHES + 1, dtype=np.int64).tolist()
    batch_accums = [CovarianceAccumulator(n) for _ in range(DEFAULT_BATCHES)]
    dec0 = decompose(initial).plus_count if params.is_critical else None
    hit_index = None
    full = (1 << n) - 1
    states = iter_chain(initial.bits, m, kind, params, gen)
    for b, acc in enumerate(batch_accums):
        for lo in range(boundaries[b], boundaries[b + 1], ACCUMULATE_BLOCK):
            seg = np.fromiter(states, dtype=np.uint64, count=min(ACCUMULATE_BLOCK, boundaries[b + 1] - lo))
            if params.is_critical and hit_index is None:
                hits = np.flatnonzero((seg == 0) | (seg == full))
                if hits.size:
                    hit_index = lo + int(hits[0]) + 1
            acc.add_spins(decode_states(seg, n))

    total = CovarianceAccumulator(n)
    for acc in batch_accums:
        total.merge(acc)
    nonempty = [acc for acc in batch_accums if acc.count > 0]
    batch_matrices = np.stack([acc.matrix() for acc in nonempty])
    return CovarianceRun(
        matrix=total.matrix(),
        batch_matrices=batch_matrices,
        hit_index=hit_index,
        initial_plus_components=dec0,
    )


# ---------------------------------------------------------------------------
# Condensation experiment grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentCell:
    n: int
    j_hat: object  # float or INFINITE
    m: int


LAMBDA1_TOLERANCE = 0.01


@dataclass(frozen=True)
class CellResult:
    """One grid cell x seed: spectra, norms, bounds, and prediction pass flags.

    pass_41: fixed-point spectra: at the critical point lambda1 >= 1 - N/M
    and lambda2 <= N/M; at j_hat = 0, |lambda1 - 1/N| <= LAMBDA1_TOLERANCE;
    vacuous (True) elsewhere.
    pass_42: subcritical limit: every covariance entry within 4 batch
    standard errors of the exact limit K_hat; vacuous at the critical point.
    pass_43: ||K||_1^2 below the closed-form double-limit bound; vacuous at
    the critical point.
    """

    n: int
    j_hat: object
    m: int
    seed: int
    lambda1: float
    lambda2: float
    norm1: float
    khat_norm_bound: float
    thm43_bound: float
    pass_41: bool
    pass_42: bool
    pass_43: bool


def evaluate_cell(cell: ExperimentCell, run: CovarianceRun, seed: int) -> CellResult:
    """Evaluate the closed-form predictions for an already-run covariance chain."""
    params = ModelParams(cell.n, cell.j_hat)
    values = eigenvalues_symmetric(run.matrix, k=2)
    lam1, lam2 = float(values[0]), float(values[1])
    norm1 = run.norm1

    if params.is_critical:
        pass_41 = lam1 >= 1.0 - cell.n / cell.m - 1e-12 and lam2 <= cell.n / cell.m + 1e-12
        return CellResult(
            n=cell.n, j_hat=cell.j_hat, m=cell.m, seed=seed,
            lambda1=lam1, lambda2=lam2, norm1=norm1,
            khat_norm_bound=math.nan, thm43_bound=math.nan,
            pass_41=pass_41, pass_42=True, pass_43=True,
        )

    det_bound, stoch_bound = subcritical_norm_bound(params, cell.m)
    j = float(params.j_hat)
    pass_41 = abs(lam1 - 1.0 / cell.n) <= LAMBDA1_TOLERANCE if j == 0.0 else True
    k_hat = exact_limit_covariance(params)
    pass_42 = bool(np.all(np.abs(run.matrix - k_hat) <= 4.0 * run.entry_batch_se() + 1e-9))
    pass_43 = norm1**2 <= stoch_bound + 1e-12
    return CellResult(
        n=cell.n, j_hat=cell.j_hat, m=cell.m, seed=seed,
        lambda1=lam1, lambda2=lam2, norm1=norm1,
        khat_norm_bound=det_bound, thm43_bound=stoch_bound,
        pass_41=pass_41, pass_42=pass_42, pass_43=pass_43,
    )
