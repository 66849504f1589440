"""Exact finite-size quantities for the 1D Ising ring.

Everything here is closed-form or a direct enumeration: Hamiltonian, Gibbs
measure, transfer-matrix partition function, two-point correlations and the
susceptibility row sum. Spin configurations are bit-packed integers (bit
b = 1 means spin +1 at site b+1); public site indices are 1-based.

The zero-temperature critical coupling is the sentinel ``INFINITE`` rather
than ``float('inf')`` so that derived constants are set exactly and
Gibbs-measure operations reject it explicitly instead of propagating NaNs.

Note on N=2: the ring then carries two bonds between the same pair of sites,
(1,2) and (2,1), and the Hamiltonian sums both. Results at N=2 are
self-consistent under that convention but not physical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

#: Dense 2^N x 2^N kernels are refused above this size (memory).
KERNEL_SITE_LIMIT = 14
#: Full 2^N enumerations (brute-force sums, exact Gibbs vectors) stop here.
BRUTE_SITE_LIMIT = 20


class CriticalCouplingError(ValueError):
    """Operation requires a finite coupling but was given INFINITE."""


class ResourceLimitError(RuntimeError):
    """Request exceeds the documented size caps (2^N work or memory)."""


class _InfiniteCoupling:
    """Singleton sentinel for the critical point (zero temperature)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"

    def __reduce__(self):
        return (_InfiniteCoupling, ())


INFINITE = _InfiniteCoupling()

Coupling = Union[float, _InfiniteCoupling]


@dataclass(frozen=True)
class ModelParams:
    """Ring size and coupling constant (inverse temperature times J)."""

    n: int
    j_hat: Coupling

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"need an integer site count n >= 2, got {self.n!r}")
        if isinstance(self.j_hat, _InfiniteCoupling):
            return
        j = float(self.j_hat)
        if not math.isfinite(j) or j < 0.0:
            raise ValueError(
                f"coupling must be a finite nonnegative float or INFINITE, got {self.j_hat!r}"
            )
        object.__setattr__(self, "j_hat", j)

    @property
    def is_critical(self) -> bool:
        return isinstance(self.j_hat, _InfiniteCoupling)

    def require_finite(self, operation: str) -> float:
        """Return j_hat as a float, rejecting the critical point."""
        if self.is_critical:
            raise CriticalCouplingError(f"{operation} is undefined at the critical point (INFINITE coupling)")
        return float(self.j_hat)


@dataclass(frozen=True)
class Configuration:
    """Bit-packed spin assignment on the ring: bit b = 1 <-> spin +1 at site b+1."""

    bits: int
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"need an integer site count n >= 2, got {self.n!r}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits {self.bits} out of range for n={self.n}")

    @classmethod
    def from_spins(cls, spins: Sequence[int]) -> "Configuration":
        bits = 0
        for b, s in enumerate(spins):
            if s == 1:
                bits |= 1 << b
            elif s != -1:
                raise ValueError(f"spin values must be +1 or -1, got {s!r}")
        return cls(bits, len(spins))

    @classmethod
    def all_plus(cls, n: int) -> "Configuration":
        return cls((1 << n) - 1, n)

    @classmethod
    def all_minus(cls, n: int) -> "Configuration":
        return cls(0, n)

    def spin(self, site: int) -> int:
        """Spin at 1-based site index (periodic: site N+1 is site 1)."""
        b = (site - 1) % self.n
        return 2 * ((self.bits >> b) & 1) - 1

    def spins(self) -> tuple:
        return tuple(2 * ((self.bits >> b) & 1) - 1 for b in range(self.n))

    def flip(self, mask: int) -> "Configuration":
        """Flip the spins at the bit positions set in ``mask``."""
        return Configuration(self.bits ^ (mask & ((1 << self.n) - 1)), self.n)

    def negated(self) -> "Configuration":
        return Configuration(self.bits ^ ((1 << self.n) - 1), self.n)

    @property
    def is_aligned(self) -> bool:
        """True for the two fully aligned configurations."""
        return self.bits == 0 or self.bits == (1 << self.n) - 1

    @property
    def index(self) -> int:
        """Position of this configuration in the binary state order."""
        return self.bits


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants of the exactly solved ring.

    bond_prob is the Wolff cluster-growth probability 1 - e^{-2J}; bond_miss
    its complement e^{-2J}. tm_plus/tm_minus are the transfer-matrix
    eigenvalues e^J + e^{-J} and e^J - e^{-J}; tanh_j their ratio, which is
    also the infinite-volume nearest-neighbor correlation; corr_length the
    correlation length -1/log(tanh_j); partition the partition function
    tm_plus^N + tm_minus^N.
    """

    bond_prob: float
    bond_miss: float
    tm_plus: float
    tm_minus: float
    tanh_j: float
    corr_length: float
    partition: float


def derived_constants(params: ModelParams) -> DerivedConstants:
    """Evaluate the solved-model constants, with exact values at the endpoints."""
    if params.is_critical:
        return DerivedConstants(
            bond_prob=1.0,
            bond_miss=0.0,
            tm_plus=math.inf,
            tm_minus=math.inf,
            tanh_j=1.0,
            corr_length=math.inf,
            partition=math.inf,
        )
    j = float(params.j_hat)
    lam_plus = math.exp(j) + math.exp(-j)
    lam_minus = math.exp(j) - math.exp(-j)
    theta = lam_minus / lam_plus
    if theta == 0.0:
        corr_length = 0.0
    elif theta == 1.0:
        corr_length = math.inf  # tanh J rounds to 1 once J is above about 19
    else:
        corr_length = -1.0 / math.log(theta)
    try:
        partition = lam_plus**params.n + lam_minus**params.n
    except OverflowError:
        partition = math.inf  # huge rings: only the sampling paths apply there
    return DerivedConstants(
        bond_prob=1.0 - math.exp(-2.0 * j),
        bond_miss=math.exp(-2.0 * j),
        tm_plus=lam_plus,
        tm_minus=lam_minus,
        tanh_j=theta,
        corr_length=corr_length,
        partition=partition,
    )


def _rotated_bits(bits, n: int):
    """Bit b of the result is bit (b+1) mod n of the input (a Python int or an integer array)."""
    return (bits >> 1) | ((bits & 1) << (n - 1))


def frustrated_bond_count(config: Configuration) -> int:
    """Number of ring bonds whose endpoint spins differ (counts both N=2 bonds)."""
    t = config.bits ^ _rotated_bits(config.bits, config.n)
    return t.bit_count()


def hamiltonian(config: Configuration, params: ModelParams) -> int:
    """Energy -sum_i sigma_i sigma_{i+1} in units where the caller scales by j_hat."""
    if config.n != params.n:
        raise ValueError(f"configuration has n={config.n} but params have n={params.n}")
    f = frustrated_bond_count(config)
    return 2 * f - params.n


def partition_function(params: ModelParams) -> float:
    """Transfer-matrix partition function tm_plus^N + tm_minus^N."""
    params.require_finite("partition_function")
    c = derived_constants(params)
    return c.partition


def bond_sum_all_states(n: int) -> np.ndarray:
    """sum_i sigma_i sigma_{i+1} for every state in binary order (2^n entries)."""
    if n > BRUTE_SITE_LIMIT:
        raise ResourceLimitError(f"2^{n} enumeration exceeds the n <= {BRUTE_SITE_LIMIT} cap")
    states = np.arange(1 << n, dtype=np.int64)
    # int64: a uint8 count would wrap n - 2 * frustrated
    return n - 2 * np.bitwise_count(states ^ _rotated_bits(states, n)).astype(np.int64)


def gibbs_probability(config: Configuration, params: ModelParams) -> float:
    """mu_N(sigma) = exp(J sum sigma_i sigma_{i+1}) / Z_N."""
    j = params.require_finite("gibbs_probability")
    if config.n != params.n:
        raise ValueError(f"configuration has n={config.n} but params have n={params.n}")
    return math.exp(-j * hamiltonian(config, params)) / partition_function(params)


@dataclass(frozen=True)
class GibbsMeasure:
    """Exact probability vector over all 2^N configurations in binary order."""

    n: int
    j_hat: float
    probabilities: np.ndarray

    def probability(self, config: Configuration) -> float:
        return float(self.probabilities[config.bits])


def gibbs_measure(params: ModelParams) -> GibbsMeasure:
    """Tabulate mu_N exactly (normalized by the brute-force sum).

    Raises ValueError where the weight sum, at most 2^N e^{J N}, overflows a float64.
    """
    j = params.require_finite("gibbs_measure")
    with np.errstate(over="ignore"):
        weights = np.exp(j * bond_sum_all_states(params.n).astype(np.float64))
        total = weights.sum()
    if math.isinf(total):
        raise ValueError(f"the Gibbs weight sum overflows a float64 at j_hat={j!r}, n={params.n}")
    probs = weights / total
    return GibbsMeasure(n=params.n, j_hat=j, probabilities=probs)


def _check_site(i: int, n: int) -> int:
    if not 1 <= i <= n:
        raise ValueError(f"site index {i} out of range 1..{n}")
    return i


def two_point_correlation(i: int, j: int, params: ModelParams) -> float:
    """E_mu[sigma_i sigma_j] on the finite ring, closed form.

    Equals (t^d + t^{N-d}) / (1 + t^N) with t = tanh(j_hat) and d = |i-j|;
    symmetric in (i, j) and equal to 1 on the diagonal.
    """
    params.require_finite("two_point_correlation")
    _check_site(i, params.n)
    _check_site(j, params.n)
    if i == j:
        return 1.0
    d = abs(j - i)
    theta = derived_constants(params).tanh_j
    return (theta**d + theta ** (params.n - d)) / (1.0 + theta**params.n)


def susceptibility_row_sum(i: int, params: ModelParams) -> float:
    """sum_j E[sigma_i sigma_j]; translation invariant, bounded by e^{2 j_hat}."""
    params.require_finite("susceptibility_row_sum")
    _check_site(i, params.n)
    return float(sum(two_point_correlation(i, j, params) for j in range(1, params.n + 1)))


def susceptibility_closed_form_bound(params: ModelParams) -> float:
    """The closed-form row sum 1 + 2 sum_{d=1}^{N-1} t^d / (1 + t^N), at most N.

    Algebraically equal to 1 + 2 tm_plus/(tm_plus - tm_minus) (t - t^N)/(1 + t^N),
    since tm_plus/(tm_plus - tm_minus) = 1/(1 - t); summing the powers avoids
    the cancellation in t - t^N and 1 - t as t rounds towards 1 at large J.
    """
    params.require_finite("susceptibility_closed_form_bound")
    theta = derived_constants(params).tanh_j
    n = params.n
    return 1.0 + 2.0 * math.fsum(theta**d for d in range(1, n)) / (1.0 + theta**n)
