"""Combinatorics of spin configurations on the ring, on integer bitmasks.

Two encodings are used, both on a ring of n sites:

- a site mask has bit b set for site b+1, as in ``Configuration.bits``;
- a bond mask has bit b set for the bond (b+1, b+2 mod n) between site b+1
  and its right neighbour. At n=2 the bits are the two distinct bonds (1,2)
  and (2,1) of the doubled-edge ring.

With rot(A) the site mask rotated so that bit b reads site b+2, the bond
mask A ^ rot(A) holds the bonds with exactly one endpoint in A. Aligned and
frustrated bonds, connected components of the +1 and -1 site sets, and
edge/vertex boundaries of site subsets are all computed this way.
``plus_component_count`` reads the plus-component count from the frustrated
bonds alone, without building a ``ClusterDecomposition``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Configuration, _rotated_bits


def _rotated_left(bits: int, n: int) -> int:
    """Bit b of the result is bit (b-1) mod n of the input."""
    return ((bits << 1) | (bits >> (n - 1))) & ((1 << n) - 1)


@dataclass(frozen=True)
class FlipSet:
    """A subset of sites, bit-packed like Configuration (bit b <-> site b+1)."""

    mask: int
    n: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask} out of range for n={self.n}")

    @classmethod
    def from_sites(cls, sites: Iterable[int], n: int) -> "FlipSet":
        mask = 0
        for s in sites:
            if not 1 <= s <= n:
                raise ValueError(f"site {s} out of range 1..{n}")
            mask |= 1 << (s - 1)
        return cls(mask, n)

    @classmethod
    def arc(cls, start: int, length: int, n: int) -> "FlipSet":
        """Arc of ``length`` consecutive sites beginning at 1-based ``start`` (taken mod n)."""
        if not 1 <= length <= n:
            raise ValueError(f"arc length {length} out of range 1..{n}")
        shift = (start - 1) % n
        run = (1 << length) - 1
        return cls(((run << shift) | (run >> (n - shift))) & ((1 << n) - 1), n)

    @property
    def size(self) -> int:
        return self.mask.bit_count()


def is_connected(flipset: FlipSet) -> bool:
    """True iff the set induces a connected subgraph: a nonempty arc or the full ring."""
    mask, n = flipset.mask, flipset.n
    return mask == (1 << n) - 1 or edge_boundary(flipset).bit_count() == 2


def edge_boundary(flipset: FlipSet) -> int:
    """Bond mask of the ring bonds with exactly one endpoint in the set."""
    return flipset.mask ^ _rotated_bits(flipset.mask, flipset.n)


def vertex_boundary(flipset: FlipSet) -> int:
    """Site mask of the member sites with at least one ring neighbor outside the set."""
    mask, n = flipset.mask, flipset.n
    return mask & ~(_rotated_bits(mask, n) & _rotated_left(mask, n))


@dataclass(frozen=True)
class ClusterDecomposition:
    """Connected components of the +1 and -1 site sets of one configuration.

    Components are site masks listed by their lowest site, which fixes the
    component indices used in tests; the aligned bonds are a bond mask.
    """

    plus_components: tuple
    minus_components: tuple
    aligned_bonds: int

    @property
    def plus_count(self) -> int:
        return len(self.plus_components)

    @property
    def minus_count(self) -> int:
        return len(self.minus_components)

    def components(self) -> tuple:
        """All components, plus first, each listed by lowest site."""
        return self.plus_components + self.minus_components


def decompose(config: Configuration) -> ClusterDecomposition:
    """Maximal-arc decomposition of a configuration into aligned components."""
    n = config.n
    bits = config.bits
    full = (1 << n) - 1
    cut = bits ^ _rotated_bits(bits, n)  # bond mask of the frustrated bonds
    if cut == 0:
        comps = [full]
    else:
        # Each frustrated bond (b+1, b+2) ends a component at site b+1. With
        # below(b) the sites 1..b+1, the component after the last cut wraps
        # the seam and holds site 1; the others follow in ring order.
        below = []
        rest = cut
        while rest:
            low = rest & -rest
            below.append((low << 1) - 1)
            rest ^= low
        comps = [(full ^ below[-1]) | below[0]]
        comps += [hi ^ lo for lo, hi in zip(below, below[1:])]
    plus = tuple(c for c in comps if bits & c)
    minus = tuple(c for c in comps if not bits & c)
    return ClusterDecomposition(plus, minus, full ^ cut)


def plus_component_count(bits: int, n: int) -> int:
    """``decompose(Configuration(bits, n)).plus_count`` from the frustrated bonds alone.

    Components alternate in sign around the ring, so f > 0 frustrated bonds
    cut it into f components, f/2 of them plus; an aligned ring is one plus
    component if it is all-plus and none if it is all-minus.
    """
    frustrated = (bits ^ _rotated_bits(bits, n)).bit_count()
    return frustrated >> 1 if frustrated else int(bits != 0)
