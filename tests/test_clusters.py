import numpy as np
import pytest

from isingring import (
    Configuration,
    FlipSet,
    decompose,
    edge_boundary,
    is_connected,
    vertex_boundary,
)

import _oracles as oracle


def sites_of(mask, n):
    return {b + 1 for b in range(n) if (mask >> b) & 1}


def bonds_of(mask, n):
    """Bond mask -> set of (i, i mod n + 1) bonds; bit b is bond (b+1, b+2 mod n)."""
    return {(b + 1, (b + 1) % n + 1) for b in range(n) if (mask >> b) & 1}


def test_decompose_all_plus():
    d = decompose(Configuration.all_plus(5))
    assert d.plus_count == 1 and d.minus_count == 0
    assert d.plus_components == (FlipSet.from_sites([1, 2, 3, 4, 5], 5).mask,)
    assert d.frustrated_bonds == 0


def test_decompose_alternating():
    d = decompose(Configuration.from_spins([1, -1, 1, -1]))
    assert d.plus_count == d.minus_count == 2
    assert all(c.bit_count() == 1 for c in d.components())
    assert d.frustrated_bonds.bit_count() == 4


def test_decompose_wraps_the_seam():
    d = decompose(Configuration.from_spins([1, 1, -1, -1, 1]))
    assert d.plus_components == (FlipSet.from_sites([5, 1, 2], 5).mask,)
    assert d.minus_components == (FlipSet.from_sites([3, 4], 5).mask,)
    assert d.plus_count == d.minus_count == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12])
def test_decompose_invariants_every_state(n):
    full = (1 << n) - 1
    for bits in range(1 << n):
        cfg = Configuration(bits, n)
        d = decompose(cfg)
        sizes = sum(c.bit_count() for c in d.components())
        assert sizes == n
        counts = (d.plus_count, d.minus_count)
        assert counts[0] == counts[1] or counts in ((1, 0), (0, 1))
        assert d.aligned_bonds & d.frustrated_bonds == 0
        assert d.aligned_bonds | d.frustrated_bonds == full
        if counts[0] == counts[1]:
            assert d.frustrated_bonds.bit_count() == 2 * d.plus_count
        else:
            assert d.frustrated_bonds == 0
        assert d.frustrated_bonds.bit_count() % 2 == 0
        # flipping every component reproduces the global flip
        mask = 0
        for comp in d.components():
            mask |= comp
        assert cfg.flip(mask) == cfg.negated()
        # each component is one aligned arc; each list is ordered by lowest site
        for comp in d.components():
            assert is_connected(FlipSet(comp, n))
            assert bits & comp in (0, comp)
        for group in (d.plus_components, d.minus_components):
            lows = [c & -c for c in group]
            assert lows == sorted(lows)
        # plus/minus roles swap exactly under global flip
        d_neg = decompose(cfg.negated())
        assert d_neg.plus_components == d.minus_components
        assert d_neg.minus_components == d.plus_components


def test_decompose_matches_union_find_oracle():
    gen = np.random.default_rng(7)
    for _ in range(300):
        n = int(gen.integers(2, 13))
        bits = int(gen.integers(0, 1 << n))
        spins = Configuration(bits, n).spins()
        plus, minus = oracle.uf_components(spins)
        d = decompose(Configuration(bits, n))
        assert [frozenset(sites_of(c, n)) for c in d.plus_components] == plus
        assert [frozenset(sites_of(c, n)) for c in d.minus_components] == minus
        aligned = {(b + 1, (b + 1) % n + 1) for b in range(n) if spins[b] == spins[(b + 1) % n]}
        assert bonds_of(d.aligned_bonds, n) == aligned
        assert bonds_of(d.frustrated_bonds, n) == set(oracle.ring_bonds(n)) - aligned


def test_edge_boundary_examples():
    assert bonds_of(edge_boundary(FlipSet.from_sites([2, 3], 5)), 5) == {(1, 2), (3, 4)}
    assert edge_boundary(FlipSet.from_sites(range(1, 6), 5)) == 0
    assert edge_boundary(FlipSet(0, 5)) == 0
    assert bonds_of(edge_boundary(FlipSet.from_sites([1], 4)), 4) == {(4, 1), (1, 2)}


def test_vertex_boundary_examples():
    assert sites_of(vertex_boundary(FlipSet.from_sites([2, 3, 4], 6)), 6) == {2, 4}
    assert sites_of(vertex_boundary(FlipSet.from_sites([3], 6)), 6) == {3}
    assert vertex_boundary(FlipSet.from_sites(range(1, 7), 6)) == 0


def test_is_connected_examples():
    assert is_connected(FlipSet.from_sites([1, 2, 3], 5))
    assert not is_connected(FlipSet.from_sites([1, 3], 5))
    assert is_connected(FlipSet.from_sites([5, 1], 5))
    assert not is_connected(FlipSet(0, 5))
    assert is_connected(FlipSet.from_sites(range(1, 6), 5))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_boundaries_and_arcs_match_set_oracle_every_mask(n):
    # n = 2 covers the doubled-edge ring: bonds (1, 2) and (2, 1) are distinct
    for mask in range(1 << n):
        flip = FlipSet(mask, n)
        sites = sites_of(mask, n)
        assert bonds_of(edge_boundary(flip), n) == oracle.set_edge_boundary(sites, n)
        assert sites_of(vertex_boundary(flip), n) == oracle.set_vertex_boundary(sites, n)
        assert is_connected(flip) == oracle.set_is_connected(sites, n)
        assert flip.arc_witness() == oracle.set_arc_witness(sites, n)


def test_proper_arc_boundary_sizes():
    for n in (2, 3, 5, 8):
        for start in range(1, n + 1):
            for length in range(1, n):
                arc = FlipSet.arc(start, length, n)
                assert sites_of(arc.mask, n) == {(start - 1 + k) % n + 1 for k in range(length)}
                assert edge_boundary(arc).bit_count() == 2
                assert vertex_boundary(arc).bit_count() == (1 if length == 1 else 2)
                assert arc.arc_witness() == (start, length)
                # the start is taken mod n
                assert FlipSet.arc(start + n, length, n) == arc
                assert FlipSet.arc(start - n, length, n) == arc
            assert FlipSet.arc(start, n, n).mask == (1 << n) - 1


def test_arc_witness_round_trip():
    arc = FlipSet.arc(5, 3, 6)
    assert arc.sites == (1, 5, 6)
    assert arc.arc_witness() == (5, 3)
    assert FlipSet.from_sites([2, 4], 6).arc_witness() is None
    assert FlipSet.arc(1, 6, 6).arc_witness() == (1, 6)
