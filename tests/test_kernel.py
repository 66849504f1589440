import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from isingring import (
    INFINITE,
    Configuration,
    FlipSet,
    ModelParams,
    build_glauber_kernel,
    build_wolff_kernel,
    check_detailed_balance,
    empirical_vs_exact,
    derived_constants,
    gibbs_measure,
    poincare_constant_bound,
    symmetrize_and_decompose,
    wolff_dual_form_disagreement,
    wolff_entry_from_boundary,
    wolff_entry_from_components,
)
from isingring.kernel import TransitionKernel, _wolff_dual_form_columns, write_matrix_dump
from isingring.randomness import RngStream

import _oracles as oracle

J_GRID = [0.0, 0.25, 0.5, 1.0, 2.0]


def oracle_row(spins, j, n):
    row = np.zeros(1 << n)
    for target, p in oracle.percolation_step_distribution(spins, j).items():
        bits = sum(1 << b for b, s in enumerate(target) if s == 1)
        row[bits] = p
    return row


class TestWolffEntry:
    def test_full_flip_value(self):
        # bond_prob = 3/4, bond_miss = 1/4 at e^{2J} = 4
        p = ModelParams(3, math.log(2.0))
        value = wolff_entry_from_boundary(Configuration.all_plus(3), FlipSet.arc(1, 3, 3), p)
        assert value == pytest.approx((3 * 0.25 + 0.75) * 0.75**2, abs=1e-15)
        assert value == pytest.approx(27 / 32, abs=1e-15)

    def test_component_case_table(self):
        # (+,+,-) with e^{2J} = 2: both probabilities are 1/2
        p = ModelParams(3, 0.5 * math.log(2.0))
        sigma = Configuration.from_spins([1, 1, -1])
        cases = {
            (3,): 1 / 3,
            (1,): 1 / 6,
            (2,): 1 / 6,
            (1, 2): 1 / 3,
        }
        total = 0.0
        for sites, expected in cases.items():
            value = wolff_entry_from_boundary(sigma, FlipSet.from_sites(sites, 3), p)
            assert value == pytest.approx(expected, abs=1e-15)
            total += value
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_zero_coupling_single_flips_only(self):
        p = ModelParams(5, 0.0)
        sigma = Configuration.from_spins([1, -1, 1, 1, -1])
        for site in range(1, 6):
            assert wolff_entry_from_boundary(sigma, FlipSet.from_sites([site], 5), p) == pytest.approx(1 / 5, abs=1e-16)
        assert wolff_entry_from_boundary(sigma, FlipSet.from_sites([3, 4], 5), p) == 0.0

    def test_disconnected_and_misaligned_are_zero(self):
        p = ModelParams(6, 0.8)
        sigma = Configuration.from_spins([1, 1, -1, -1, 1, 1])
        assert wolff_entry_from_boundary(sigma, FlipSet.from_sites([1, 4], 6), p) == 0.0
        assert wolff_entry_from_boundary(sigma, FlipSet.from_sites([2, 3], 6), p) == 0.0  # connected but not aligned
        assert wolff_entry_from_boundary(sigma, FlipSet.arc(1, 6, 6), p) == 0.0  # full flip from a mixed state

    def test_empty_flip_set_rejected(self):
        with pytest.raises(ValueError):
            wolff_entry_from_boundary(Configuration.all_plus(4), FlipSet(0, 4), ModelParams(4, 0.5))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_dual_forms_agree_exhaustively(self, n):
        # every (state, nonempty subset) pair, both closed forms, exact equality
        p = ModelParams(n, 0.7)
        for bits in range(1 << n):
            cfg = Configuration(bits, n)
            for mask in range(1, 1 << n):
                flip = FlipSet(mask, n)
                a = wolff_entry_from_boundary(cfg, flip, p)
                b = wolff_entry_from_components(cfg, flip, p)
                assert abs(a - b) <= 1e-15

    @pytest.mark.parametrize("n", [8, 9, 10])
    @pytest.mark.parametrize("j", [0.25, 1.0])
    def test_dual_forms_agree_on_kernel_support(self, n, j):
        # all connected arcs (the kernel's entire nonzero support) plus a
        # sample of disconnected masks
        p = ModelParams(n, j)
        kernel = build_wolff_kernel(p)
        gen = np.random.default_rng(n * 100 + 1)
        states = gen.integers(0, 1 << n, size=40)
        for bits in states:
            cfg = Configuration(int(bits), n)
            for start in range(1, n + 1):
                for length in range(1, n + 1):
                    flip = FlipSet.arc(start, length, n)
                    a = wolff_entry_from_boundary(cfg, flip, p)
                    b = wolff_entry_from_components(cfg, flip, p)
                    assert abs(a - b) <= 1e-15
                    assert abs(a - kernel.matrix[cfg.bits, cfg.bits ^ flip.mask]) <= 1e-15
            for _ in range(12):
                mask = int(gen.integers(1, 1 << n))
                flip = FlipSet(mask, n)
                a = wolff_entry_from_boundary(cfg, flip, p)
                b = wolff_entry_from_components(cfg, flip, p)
                assert abs(a - b) <= 1e-15
                assert abs(a - kernel.matrix[cfg.bits, cfg.bits ^ mask]) <= 1e-15


def doctored_kernel(params, entry, nudge=1e-12):
    """A Wolff kernel whose matrix differs from the exact one in one entry."""
    matrix = build_wolff_kernel(params).matrix.copy()
    matrix[entry] += nudge
    return TransitionKernel(params=params, kind="wolff", matrix=matrix)


class TestDualFormArrays:
    @pytest.mark.parametrize("j", [0.0, 0.7, 2.5, INFINITE])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_exactly_zero_on_built_kernel(self, n, j):
        assert wolff_dual_form_disagreement(build_wolff_kernel(ModelParams(n, j))) == 0.0

    # j = 1e-5 at n = 2: numpy's array pow gives bond_miss^2 an ulp away from the scalar pow
    @pytest.mark.parametrize("j", [0.0, 1e-5, 0.7, 2.5, INFINITE])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_columns_equal_scalar_forms_on_every_pair(self, n, j):
        p = ModelParams(n, j)
        masks = []
        for mask, boundary, component in _wolff_dual_form_columns(p):
            masks.append(mask)
            flip = FlipSet(mask, n)
            for bits in range(1 << n):
                cfg = Configuration(bits, n)
                assert boundary[bits] == wolff_entry_from_boundary(cfg, flip, p)
                assert component[bits] == wolff_entry_from_components(cfg, flip, p)
        # every connected arc mask exactly once, the full ring last
        arcs = {FlipSet.arc(s, length, n).mask for s in range(1, n + 1) for length in range(1, n + 1)}
        assert len(masks) == n * (n - 1) + 1 == len(arcs) and set(masks) == arcs
        assert masks[-1] == (1 << n) - 1

    @pytest.mark.parametrize("entry", [(0, 1), (2, 1)], ids=["supported", "zero-on-arc-column"])
    def test_nudged_entry_is_seen(self, entry):
        # (0, 1): single flip out of all-minus; (2, 1): sites 1-2 of (-,+,-,-,-), a misaligned arc
        assert wolff_dual_form_disagreement(doctored_kernel(ModelParams(5, 0.7), entry)) >= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), j=st.floats(0.0, 6.0))
    def test_exact_laws_hold_for_random_couplings(self, n, j):
        p = ModelParams(n, j)
        measure = gibbs_measure(p)
        wolff, glauber = build_wolff_kernel(p), build_glauber_kernel(p)
        assert wolff_dual_form_disagreement(wolff) == 0.0
        for kernel in (wolff, glauber):
            assert kernel.row_sum_error() <= 1e-12
            assert check_detailed_balance(kernel, measure) <= 1e-12


class TestWolffKernel:
    @pytest.mark.parametrize("j", [0.25, 0.5 * math.log(2.0), 1.0])
    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_matches_percolation_oracle(self, n, j):
        kernel = build_wolff_kernel(ModelParams(n, j))
        for bits in range(1 << n):
            spins = Configuration(bits, n).spins()
            np.testing.assert_allclose(kernel.matrix[bits], oracle_row(spins, j, n), atol=1e-14)

    def test_matches_percolation_oracle_critical(self):
        kernel = build_wolff_kernel(ModelParams(5, INFINITE))
        for bits in range(32):
            spins = Configuration(bits, 5).spins()
            np.testing.assert_allclose(kernel.matrix[bits], oracle_row(spins, "inf", 5), atol=0)

    @pytest.mark.parametrize("j", J_GRID)
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_row_stochastic_zero_diagonal(self, n, j):
        kernel = build_wolff_kernel(ModelParams(n, j))
        assert kernel.row_sum_error() <= 1e-12
        assert np.all(kernel.matrix >= 0.0)
        assert np.all(np.diag(kernel.matrix) == 0.0)

    def test_zero_coupling_is_exactly_the_flip_walk(self):
        n = 6
        kernel = build_wolff_kernel(ModelParams(n, 0.0))
        expected = np.zeros((1 << n, 1 << n))
        for s in range(1 << n):
            for b in range(n):
                expected[s, s ^ (1 << b)] = 1.0 / n
        assert np.array_equal(kernel.matrix, expected)

    def test_critical_row_mass_by_component(self):
        kernel = build_wolff_kernel(ModelParams(6, INFINITE))
        sigma = Configuration.from_spins([1, 1, -1, 1, -1, -1])
        row = kernel.matrix[sigma.bits]
        from isingring import decompose

        d = decompose(sigma)
        for comp in d.components():
            assert row[sigma.bits ^ comp] == pytest.approx(comp.bit_count() / 6, abs=1e-15)
        assert row.sum() == pytest.approx(1.0, abs=1e-15)

    def test_matrix_power_row_sums(self):
        kernel = build_wolff_kernel(ModelParams(6, 0.5))
        power = np.eye(kernel.size)
        for _ in range(100):
            power = power @ kernel.matrix
        np.testing.assert_allclose(power.sum(axis=1), 1.0, atol=1e-10)

    def test_critical_restriction_is_two_cycle(self):
        kernel = build_wolff_kernel(ModelParams(5, INFINITE))
        full = kernel.size - 1
        assert kernel.matrix[0, full] == 1.0
        assert kernel.matrix[full, 0] == 1.0
        assert kernel.matrix[0].sum() == 1.0
        assert kernel.matrix[full].sum() == 1.0

    def test_ergodicity_witness(self):
        for j in (0.25, 0.5, 1.0, 2.0):
            kernel = build_wolff_kernel(ModelParams(5, j))
            full = kernel.size - 1
            p2 = kernel.matrix @ kernel.matrix
            p3 = p2 @ kernel.matrix
            assert p2[full, full] > 0.0
            assert p3[full, full] > 0.0
        # at zero coupling the walk is bipartite: odd powers cannot return
        kernel = build_wolff_kernel(ModelParams(5, 0.0))
        full = kernel.size - 1
        p2 = kernel.matrix @ kernel.matrix
        p3 = p2 @ kernel.matrix
        assert p2[full, full] > 0.0
        assert p3[full, full] == 0.0


class TestGlauberKernel:
    def test_zero_coupling_lazy(self):
        n = 5
        kernel = build_glauber_kernel(ModelParams(n, 0.0))
        for s in (0, 9, 31):
            assert kernel.matrix[s, s] == pytest.approx(0.5, abs=1e-15)
            for b in range(n):
                assert kernel.matrix[s, s ^ (1 << b)] == pytest.approx(1 / (2 * n), abs=1e-15)

    def test_isolated_site_rate(self):
        j = 0.8
        kernel = build_glauber_kernel(ModelParams(4, j))
        sigma = Configuration.from_spins([1, -1, 1, 1])  # site 2 is an isolated minus
        expected = math.exp(2 * j) / (math.exp(2 * j) + math.exp(-2 * j)) / 4
        assert kernel.matrix[sigma.bits, sigma.bits ^ 0b0010] == pytest.approx(expected, rel=1e-13)

    def test_support_is_single_flips(self):
        kernel = build_glauber_kernel(ModelParams(5, 0.9))
        for s in range(kernel.size):
            for t in np.nonzero(kernel.matrix[s])[0]:
                assert bin(s ^ int(t)).count("1") <= 1

    def test_stationarity(self):
        p = ModelParams(6, 0.7)
        kernel = build_glauber_kernel(p)
        mu = gibbs_measure(p).probabilities
        np.testing.assert_allclose(mu @ kernel.matrix, mu, atol=1e-12)

    @pytest.mark.parametrize("j", [0.0, 0.65, 2.5])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_kernel_entries_match_component_form(self, n, j):
        # the builder reads a table by aligned-neighbour count; tie every
        # single-flip entry to the independent component case analysis
        p = ModelParams(n, j)
        matrix = build_glauber_kernel(p).matrix
        for bits in range(1 << n):
            cfg = Configuration(bits, n)
            for b in range(n):
                expected = oracle.glauber_flip_probability_from_components(cfg, b + 1, p) / n
                assert abs(matrix[bits, bits ^ (1 << b)] - expected) <= 1e-15

    def test_critical_rejected(self):
        from isingring import CriticalCouplingError

        with pytest.raises(CriticalCouplingError):
            build_glauber_kernel(ModelParams(4, INFINITE))

    @pytest.mark.parametrize("form", [oracle.glauber_flip_probability_from_components])
    def test_flip_probability_rejects_bad_site_or_size(self, form):
        p = ModelParams(4, 0.5)
        for cfg in (Configuration.all_plus(4), Configuration.from_spins([1, -1, -1, 1])):
            for site in (0, 5, 99, -1):
                with pytest.raises(ValueError, match="out of range"):
                    form(cfg, site, p)
            with pytest.raises(ValueError, match="sizes"):
                form(Configuration(cfg.bits, 5), 1, p)
            assert 0.0 < form(cfg, 4, p) < 1.0


class TestDetailedBalance:
    @pytest.mark.parametrize("j", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_wolff_and_glauber(self, n, j):
        p = ModelParams(n, j)
        mu = gibbs_measure(p)
        for kernel in (build_wolff_kernel(p), build_glauber_kernel(p)):
            violation = check_detailed_balance(kernel, mu)
            assert violation <= 1e-12
            assert violation == oracle.dense_detailed_balance(kernel.matrix, mu.probabilities)

    def test_negative_control(self):
        p = ModelParams(4, 0.5)
        mu = gibbs_measure(p)
        kernel = build_wolff_kernel(p)
        doctored = kernel.matrix.copy()
        doctored[1, 0], doctored[1, 3] = doctored[1, 3], doctored[1, 0]
        from isingring import TransitionKernel

        bad = TransitionKernel(params=p, kind="wolff", matrix=doctored)
        violation = check_detailed_balance(bad, mu)
        assert violation > 1e-6
        assert violation == oracle.dense_detailed_balance(doctored, mu.probabilities)


class TestSpectralDecomposition:
    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_hypercube_spectrum_at_zero_coupling(self, n):
        p = ModelParams(n, 0.0)
        mu = gibbs_measure(p)
        dec = symmetrize_and_decompose(build_wolff_kernel(p), mu)
        np.testing.assert_allclose(dec.eigenvalues, oracle.hypercube_walk_spectrum(n), atol=1e-10)
        assert dec.gap == pytest.approx(2.0 / n, abs=1e-10)
        lazy = symmetrize_and_decompose(build_glauber_kernel(p), mu)
        np.testing.assert_allclose(lazy.eigenvalues, oracle.hypercube_walk_spectrum(n, lazy=True), atol=1e-10)
        assert lazy.gap == pytest.approx(1.0 / n, abs=1e-10)

    @pytest.mark.parametrize("j", [0.0, 0.5, 1.0])
    def test_basis_properties(self, j):
        n = 6
        p = ModelParams(n, j)
        mu = gibbs_measure(p)
        kernel = build_wolff_kernel(p)
        dec = symmetrize_and_decompose(kernel, mu)
        assert abs(dec.eigenvalues[0] - 1.0) <= 1e-10
        assert dec.eigenvalues[1] < 1.0 - 1e-10  # simple top eigenvalue
        assert np.abs(dec.eigenvalues).max() <= 1.0 + 1e-10
        np.testing.assert_allclose(dec.basis[:, 0], 1.0, atol=1e-9)
        gram = (dec.basis * mu.probabilities[:, None]).T @ dec.basis
        np.testing.assert_allclose(gram, np.eye(kernel.size), atol=1e-10)
        rebuilt = (dec.basis * dec.eigenvalues[None, :]) @ (dec.basis * mu.probabilities[:, None]).T
        np.testing.assert_allclose(rebuilt, kernel.matrix, atol=1e-9)

    def test_gap_vs_poincare_bound(self):
        p = ModelParams(8, 1.0)
        mu = gibbs_measure(p)
        dec = symmetrize_and_decompose(build_wolff_kernel(p), mu)
        assert 1.0 / dec.gap <= poincare_constant_bound(1.0, 8)

    def test_non_reversible_rejected(self):
        p = ModelParams(4, 0.5)
        mu = gibbs_measure(p)
        kernel = build_wolff_kernel(p)
        doctored = kernel.matrix.copy()
        doctored[0, 1] *= 1.5
        doctored[0, 0] = 0.0
        doctored[0] /= doctored[0].sum()
        from isingring import TransitionKernel

        with pytest.raises(ValueError):
            symmetrize_and_decompose(TransitionKernel(params=p, kind="wolff", matrix=doctored), mu)


def _swap_mixture(p, pairs, delta=0.1):
    """(1 - delta) P_Wolff + delta Q, with Q the permutation swapping each pair of states.

    Pairs of equal Gibbs weight keep the mixture reversible.
    """
    swap = np.eye(1 << p.n)
    for x, y in pairs:
        swap[[x, y]] = swap[[y, x]]
    return TransitionKernel(params=p, kind="wolff", matrix=(1 - delta) * build_wolff_kernel(p).matrix + delta * swap)


class TestFlipSectors:
    @pytest.mark.parametrize("builder", [build_wolff_kernel, build_glauber_kernel], ids=["wolff", "glauber"])
    @pytest.mark.parametrize("j", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
    def test_sectors_match_the_dense_decomposition(self, n, j, builder):
        p = ModelParams(n, j)
        mu = gibbs_measure(p)
        kernel = builder(p)
        dec = symmetrize_and_decompose(kernel, mu)
        dense = oracle.dense_symmetrize_and_decompose(kernel, mu)
        np.testing.assert_allclose(dec.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-13)
        assert np.all(np.diff(dec.eigenvalues) <= 0.0)
        # in the L^2(mu) frame phi = D^{1/2} xi, where rounding is not scaled by 1/sqrt(mu)
        root = np.sqrt(mu.probabilities)
        phi = dec.basis * root[:, None]
        np.testing.assert_allclose(phi.T @ phi, np.eye(kernel.size), rtol=0, atol=1e-12)
        rebuilt = (phi * dec.eigenvalues[None, :]) @ phi.T
        np.testing.assert_allclose(rebuilt, kernel.matrix * (root[:, None] / root[None, :]), rtol=0, atol=1e-12)
        # the first eigenfunction is the constant 1, in L^2(mu)
        assert math.sqrt(float((dec.basis[:, 0] - 1.0) ** 2 @ mu.probabilities)) <= 1e-12

    def test_each_eigenfunction_is_flip_even_or_odd(self):
        p = ModelParams(6, 0.5)
        dec = symmetrize_and_decompose(build_wolff_kernel(p), gibbs_measure(p))
        flipped = dec.basis[::-1]
        even = np.all(np.abs(flipped - dec.basis) <= 1e-12, axis=0)
        odd = np.all(np.abs(flipped + dec.basis) <= 1e-12, axis=0)
        assert np.all(even ^ odd)
        assert even.sum() == odd.sum() == 32
        assert even[0]

    def test_reversible_kernel_that_breaks_the_flip_is_rejected(self):
        # states 0b0001 and 0b0010 carry two domain walls each, so equal weight;
        # swapping them without their flips keeps detailed balance, not flip symmetry
        p = ModelParams(4, 0.5)
        mu = gibbs_measure(p)
        bad = _swap_mixture(p, [(0b0001, 0b0010)])
        assert check_detailed_balance(bad, mu) <= 1e-15
        with pytest.raises(ValueError, match="global spin flip"):
            symmetrize_and_decompose(bad, mu)

    def test_swap_with_its_flipped_twin_is_decomposed(self):
        p = ModelParams(4, 0.5)
        mu = gibbs_measure(p)
        good = _swap_mixture(p, [(0b0001, 0b0010), (0b1110, 0b1101)])
        dec = symmetrize_and_decompose(good, mu)
        dense = oracle.dense_symmetrize_and_decompose(good, mu)
        np.testing.assert_allclose(dec.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-13)


class TestEmpirical:
    @pytest.mark.parametrize("j", [0.0, 0.5, 3.0, INFINITE], ids=lambda v: "inf" if v is INFINITE else str(v))
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_wolff_bulk_is_one_chain_step_per_trial(self, n, j):
        # the bulk counts are the targets of one _wolff_arc_block step per trial, draw for draw
        from isingring.dynamics import _arc_draws, _wolff_arc_block
        from isingring.kernel import _one_step_counts_bulk

        params = ModelParams(n, j)
        kernel = build_wolff_kernel(params)
        for bits in range(1 << n):
            fast = _one_step_counts_bulk(bits, kernel, 500, RngStream(99, bits).generator())
            draws = _arc_draws(RngStream(99, bits).generator(), 500, n, derived_constants(params).bond_prob)
            targets = [_wolff_arc_block(bits, [seed], [right], [left], n)[0]
                       for seed, right, left in zip(*(d.tolist() for d in draws))]
            assert np.array_equal(fast, np.bincount(targets, minlength=1 << n))

    @pytest.mark.parametrize("j", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_glauber_bulk_is_one_chain_step_per_trial(self, n, j):
        # the bulk counts are the targets of one _glauber_block step per trial, draw for draw:
        # sites, then uniforms, as a chain block draws them
        from isingring.dynamics import _glauber_block, _glauber_flip_probs, _glauber_keys
        from isingring.kernel import _one_step_counts_bulk

        kernel = build_glauber_kernel(ModelParams(n, j))
        for bits in range(1 << n):
            fast = _one_step_counts_bulk(bits, kernel, 500, RngStream(77, bits).generator())
            ref = RngStream(77, bits).generator()
            sites = ref.integers(0, n, size=500).tolist()
            keys = _glauber_keys(ref.random(500), _glauber_flip_probs(j)).tolist()
            targets = [_glauber_block(bits, [site], [key], n)[0] for site, key in zip(sites, keys)]
            assert np.array_equal(fast, np.bincount(targets, minlength=1 << n))

    @pytest.mark.parametrize("method", ["bulk", "stack"])
    def test_wolff_sampler_vs_kernel(self, method, monkeypatch):
        # the stack case counts one-step targets with the reference stack sampler
        if method == "stack":
            monkeypatch.setattr("isingring.kernel._one_step_counts_bulk", oracle.one_step_counts_stack)
        params = ModelParams(5, 0.5)
        kernel = build_wolff_kernel(params)
        trials = 100000 if method == "bulk" else 20000
        check = empirical_vs_exact(kernel, params, trials, RngStream(11))
        assert check.off_support == 0
        assert check.max_z <= 4.0

    @pytest.mark.parametrize("method", ["bulk", "stack"])
    def test_samplers_handle_the_doubled_bond_ring(self, method, monkeypatch):
        # n=2 has two distinct bonds between the same sites; both get tested
        if method == "stack":
            monkeypatch.setattr("isingring.kernel._one_step_counts_bulk", oracle.one_step_counts_stack)
        params = ModelParams(2, 0.6)
        kernel = build_wolff_kernel(params)
        trials = 200000 if method == "bulk" else 40000
        check = empirical_vs_exact(kernel, params, trials, RngStream(12))
        assert check.off_support == 0
        assert check.max_z <= 4.0

    def test_glauber_sampler_vs_kernel(self):
        params = ModelParams(5, 0.5)
        kernel = build_glauber_kernel(params)
        check = empirical_vs_exact(kernel, params, 100000, RngStream(13))
        assert check.off_support == 0
        assert check.max_z <= 4.0

    def test_zero_coupling_single_flip_frequencies(self):
        params = ModelParams(5, 0.0)
        kernel = build_wolff_kernel(params)
        check = empirical_vs_exact(kernel, params, 100000, RngStream(17))
        assert check.off_support == 0
        assert check.max_z <= 4.0

    def test_detects_wrong_kernel(self):
        params = ModelParams(4, 0.5)
        kernel = build_wolff_kernel(params)
        from isingring import TransitionKernel

        wrong = build_wolff_kernel(ModelParams(4, 1.5))
        doctored = TransitionKernel(params=params, kind="wolff", matrix=wrong.matrix)
        check = empirical_vs_exact(doctored, params, 100000, RngStream(19))
        assert check.max_z > 4.0 or check.off_support > 0

    @pytest.mark.parametrize("kind", ["wolff", "glauber"])
    @pytest.mark.parametrize("j", [0.25, 0.5, 1.0])
    def test_one_step_frequencies_bonferroni(self, j, kind):
        # per-target 3-sigma criterion promoted to a family-wise threshold:
        # with K targets the global pass level is the two-sided 1% point
        # Bonferroni-split over K
        from statistics import NormalDist

        params = ModelParams(5, j)
        build = build_wolff_kernel if kind == "wolff" else build_glauber_kernel
        kernel = build(params)
        check = empirical_vs_exact(kernel, params, 10**6, RngStream(23, int(j * 100)))
        threshold = max(3.0, NormalDist().inv_cdf(1.0 - 0.01 / (2 * check.tests)))
        assert check.off_support == 0
        assert check.max_z <= threshold

    def test_start_state_cap(self):
        from isingring import ResourceLimitError

        params = ModelParams(9, 0.5)
        with pytest.raises(ResourceLimitError):
            empirical_vs_exact(build_glauber_kernel(params), params, 100, RngStream(0))


class TestExports:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 12), j_hat=st.one_of(st.just(0.0), st.floats(0.0, 4.0), st.just(math.inf)), data=st.data())
    def test_covariance_round_trip(self, tmp_path_factory, n, j_hat, data):
        # every float64 entry, inf and NaN included, comes back bit for bit
        matrix = data.draw(hnp.arrays(np.float64, (n, n)))
        path = tmp_path_factory.getbasetemp() / "cov_round_trip.bin"
        write_matrix_dump(path, n, j_hat, matrix)
        side, back_j, back = oracle.read_matrix_dump(path)
        assert side == n and back_j == j_hat
        assert back.tobytes() == matrix.tobytes()

    def test_malformed_dumps_are_named(self, tmp_path):
        path = tmp_path / "cov.bin"
        write_matrix_dump(path, 3, 0.5, np.arange(9.0).reshape(3, 3))
        data = path.read_bytes()
        for cut, message in [(8, "not a square matrix"), (3, "whole number of float64"), (len(data) - 10, "truncated dump header")]:
            path.write_bytes(data[:-cut])
            with pytest.raises(ValueError, match=message):
                oracle.read_matrix_dump(path)
        write_matrix_dump(path, 5, 0.5, np.eye(4))
        with pytest.raises(ValueError, match="side 4 is not n=5"):
            oracle.read_matrix_dump(path)
        # a dump has side n: a 2^n-side matrix is no dump of this format
        write_matrix_dump(path, 3, 0.5, np.eye(8))
        with pytest.raises(ValueError, match="side 8 is not n=3"):
            oracle.read_matrix_dump(path)
