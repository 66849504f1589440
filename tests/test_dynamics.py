import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingring import (
    GLAUBER,
    INFINITE,
    WOLFF,
    Configuration,
    CriticalCouplingError,
    INITIAL_LAWS,
    ModelParams,
    RngStream,
    build_glauber_kernel,
    decompose,
    decode_states,
    derived_constants,
    gibbs_measure,
    hitting_time_aligned,
    iter_chain,
    sample_stationary,
    sample_stationary_many,
    two_point_correlation,
)
from isingring import dynamics
from isingring.dynamics import (
    CHAIN_DRAW_BLOCK,
    HIT_STEP_CHUNK,
    _arc_draws,
    _arc_flip_masks,
    _arc_runs,
    _glauber_flip_probs,
    _uniform_states,
    _wolff_arc_block,
)
from isingring.functionals import lsi_constant_bound
from isingring.kernel import _one_step_counts_bulk

import _oracles as oracle


def twin_step(states, params, gen):
    """One Wolff step of each packed uint64 state by the arc law's uint64 twin, on one draw block."""
    n = params.n
    seeds, g_right, g_left = _arc_draws(gen, len(states), n, derived_constants(params).bond_prob)
    return states ^ _arc_flip_masks(seeds, g_right, g_left, *_arc_runs(states, seeds, n), n)


def copies(cfg, rows):
    """``rows`` copies of a configuration's packed state, as uint64 twin input."""
    return np.full(rows, cfg.bits, dtype=np.uint64)


def spin_products(states, i, j):
    """s_i s_j of each packed state (1-based sites), read from the XOR of their bits."""
    return np.array([1 - 2 * ((bits >> (i - 1) ^ bits >> (j - 1)) & 1) for bits in states])


class TestWolffStep:
    def test_zero_coupling_flips_exactly_one_site(self):
        params = ModelParams(7, 0.0)
        gen = RngStream(1).generator()
        cfg = Configuration.from_spins([1, -1, 1, 1, -1, -1, 1])
        states = list(iter_chain(cfg.bits, 501, WOLFF, params, gen))
        seen_sites = set()
        for a, b in zip(states, states[1:]):
            diff = a ^ b
            assert bin(diff).count("1") == 1
            seen_sites.add(diff.bit_length())
        assert seen_sites == set(range(1, 8))  # every site gets chosen eventually

    def test_always_changes_the_state(self):
        gen = RngStream(2).generator()
        for j in (0.0, 0.3, 1.0):
            params = ModelParams(6, j)
            cfg = Configuration.from_spins([1, 1, -1, 1, -1, -1])
            states = list(iter_chain(cfg.bits, 101, WOLFF, params, gen))
            for a, b in zip(states, states[1:]):
                assert a != b

    def test_cluster_is_aligned_arc(self):
        from isingring import FlipSet, is_connected

        params = ModelParams(8, 0.7)
        gen = RngStream(3).generator()
        cfg = Configuration.from_spins([1, 1, -1, 1, -1, -1, 1, 1])
        states = list(iter_chain(cfg.bits, 301, WOLFF, params, gen))
        for a, b in zip(states, states[1:]):
            flipped = [k + 1 for k in range(8) if (a ^ b) >> k & 1]
            values = {Configuration(a, 8).spin(s) for s in flipped}
            assert len(values) == 1  # all flipped spins shared one sign
            assert is_connected(FlipSet.from_sites(flipped, 8))

    def test_critical_deterministic_from_aligned(self):
        params = ModelParams(5, INFINITE)
        gen = RngStream(4).generator()
        plus = Configuration.all_plus(5)
        assert (twin_step(copies(plus, 10), params, gen) == 0).all()

    def test_critical_flips_exactly_one_component(self):
        params = ModelParams(9, INFINITE)
        gen = RngStream(5).generator()
        cfg = Configuration.from_spins([1, 1, -1, 1, -1, -1, 1, -1, 1])
        components = decompose(cfg).components()
        flips = twin_step(copies(cfg, 200), params, gen) ^ np.uint64(cfg.bits)
        for flip in flips.tolist():
            assert flip in components


class TestGlauberStep:
    def test_zero_coupling_is_lazy(self):
        params = ModelParams(6, 0.0)
        gen = RngStream(6).generator()
        cfg = Configuration.from_spins([1, -1, 1, -1, 1, 1])
        trials = 20000
        counts = _one_step_counts_bulk(cfg.bits, build_glauber_kernel(params), trials, gen)
        reached = np.nonzero(counts)[0]
        assert (np.bitwise_count(reached ^ cfg.bits) <= 1).all()
        assert abs(counts[cfg.bits] / trials - 0.5) < 0.02

    def test_flip_rate_with_opposed_neighbors(self):
        # sigma_i (s_{i-1}+s_{i+1}) = -2: flip probability e^{2J}/(e^{2J}+e^{-2J})
        j = 0.6
        params = ModelParams(3, j)
        cfg = Configuration.from_spins([-1, 1, -1])  # site 2 is +1 between two -1s
        gen = RngStream(7).generator()
        trials = 200000
        flips_at_2 = int(_one_step_counts_bulk(cfg.bits, build_glauber_kernel(params), trials, gen)[cfg.bits ^ 0b010])
        p_expected = math.exp(2 * j) / (math.exp(2 * j) + math.exp(-2 * j)) / 3
        se = math.sqrt(p_expected * (1 - p_expected) / trials)
        assert abs(flips_at_2 / trials - p_expected) <= 4 * se

    def test_critical_rejected(self):
        with pytest.raises(CriticalCouplingError):
            iter_chain("all-plus", 2, GLAUBER, ModelParams(4, INFINITE), RngStream(0))

    def test_heat_bath_odds_overflow_raises_naming_the_coupling(self):
        # e^{2J} is finite at J = 354 and overflows from about 354.9, where the odds would read inf/inf = NaN
        assert _glauber_flip_probs(354.0).tolist() == [1.0, 0.5, 0.0]
        with pytest.raises(ValueError, match=r"j_hat=400\.0"):
            _glauber_flip_probs(400.0)


class TestChains:
    def test_single_step_trajectory_is_initial(self):
        params = ModelParams(5, 0.5)
        cfg = Configuration.from_spins([1, 1, -1, 1, -1])
        # any operator.index start is taken as its Python int
        for start in (cfg.bits, np.uint64(cfg.bits), np.int8(cfg.bits)):
            traj = list(iter_chain(start, 1, WOLFF, params, RngStream(8)))
            assert traj == [cfg.bits] and type(traj[0]) is int

    def test_determinism(self):
        params = ModelParams(8, 0.8)
        a = list(iter_chain("uniform", 300, WOLFF, params, RngStream(9, 2)))
        b = list(iter_chain("uniform", 300, WOLFF, params, RngStream(9, 2)))
        c = list(iter_chain("uniform", 300, WOLFF, params, RngStream(9, 3)))
        assert a == b
        assert a != c

    @pytest.mark.parametrize("steps, kind", [(0, WOLFF), (-3, GLAUBER), (10, "metropolis")])
    def test_iter_chain_rejects_bad_arguments_at_the_call(self, steps, kind):
        # a stationary start is drawn only after every argument is checked
        gen, twin = RngStream(10).generator(), RngStream(10).generator()
        with pytest.raises(ValueError):
            iter_chain("stationary", steps, kind, ModelParams(6, 0.4), gen)
        assert gen.random() == twin.random()

    @pytest.mark.parametrize("initial, kind, j, error", [
        (1 << 6, WOLFF, 0.4, ValueError),
        (-1, GLAUBER, 0.4, ValueError),
        ("gibbs", WOLFF, 0.4, ValueError),
        (2.0, WOLFF, 0.4, TypeError),
        ("stationary", WOLFF, INFINITE, CriticalCouplingError),
    ])
    def test_a_bad_start_raises_at_the_call_before_any_draw(self, initial, kind, j, error):
        gen, twin = RngStream(10).generator(), RngStream(10).generator()
        with pytest.raises(error):
            iter_chain(initial, 10, kind, ModelParams(6, j), gen)
        assert gen.random() == twin.random()

    @pytest.mark.parametrize("law, kind, j", [
        (law, kind, j) for law in INITIAL_LAWS for kind, j in ((WOLFF, 0.7), (GLAUBER, 0.7), (WOLFF, INFINITE))
        if not (law == "stationary" and j is INFINITE)  # no Gibbs measure at 'inf'
    ], ids=str)
    @pytest.mark.parametrize("n", [2, 5, 64, 100])
    def test_a_named_start_is_its_draw_then_the_chain_from_its_bits(self, law, kind, j, n):
        # the law's draw comes first on the chain's generator, then the steps, draw for draw
        params = ModelParams(n, j)
        gen, ref = RngStream(36, n).generator(), RngStream(36, n).generator()
        named = list(iter_chain(law, 300, kind, params, gen))
        if law == "stationary":
            start = sample_stationary(params, ref).bits
        elif law == "uniform":
            start = _uniform_states(n, 1, ref)[0]
        else:
            start = (1 << n) - 1
        assert named == list(iter_chain(start, 300, kind, params, ref))
        assert gen.random() == ref.random()

    def test_critical_alternation_from_all_plus(self):
        params = ModelParams(4, INFINITE)
        traj = list(iter_chain("all-plus", 4, WOLFF, params, RngStream(11)))
        full = (1 << 4) - 1
        assert traj == [full, 0, full, 0]

    def test_ergodic_average_constant(self):
        params = ModelParams(4, 0.5)
        configs = (Configuration(b, 4) for b in iter_chain("all-plus", 25, WOLFF, params, RngStream(13)))
        assert oracle.ergodic_average(lambda c: 3.25, configs) == pytest.approx(3.25)

    def test_ergodic_average_magnetization_decays(self):
        params = ModelParams(6, 0.5)
        traj = iter_chain("all-plus", 20000, WOLFF, params, RngStream(14))
        mag = oracle.ergodic_average(lambda c: sum(c.spins()) / 6, (Configuration(b, 6) for b in traj))
        assert abs(mag) < 0.05

    def test_ergodic_average_pair_correlation(self):
        # tolerance from the stationary trajectory error bound
        n, j, m = 8, 0.5, 200000
        params = ModelParams(n, j)
        traj_bound = lsi_constant_bound(j, n) / m  # ||f||^2 = 1 for f = s1 s2
        exact = two_point_correlation(1, 2, params)
        avg = oracle.ergodic_average(
            lambda c: c.spin(1) * c.spin(2),
            (Configuration(b, n) for b in iter_chain("stationary", m, WOLFF, params, RngStream(15))),
        )
        assert (avg - exact) ** 2 <= 16 * traj_bound


class TestHitting:
    def test_aligned_start(self):
        assert hitting_time_aligned(0, 6, RngStream(16)) == 1

    @pytest.mark.parametrize("bits, error", [(1 << 6, ValueError), (-1, ValueError), ("all-plus", TypeError)])
    def test_a_bad_start_raises_before_any_draw(self, bits, error):
        gen, twin = RngStream(24).generator(), RngStream(24).generator()
        with pytest.raises(error):
            hitting_time_aligned(bits, 6, gen)
        assert gen.random() == twin.random()

    def test_alternating_start(self):
        cfg = Configuration.from_spins([1, -1, 1, -1, 1, -1])
        ctilde = decompose(cfg).plus_count
        assert ctilde == 3
        hits = {hitting_time_aligned(cfg.bits, cfg.n, RngStream(17, s)) for s in range(100)}
        assert hits == {ctilde + 1}

    def test_single_minus_arc(self):
        cfg = Configuration.from_spins([1, 1, -1, -1, 1, 1, 1])
        assert decompose(cfg).plus_count == 1
        hits = {hitting_time_aligned(cfg.bits, cfg.n, RngStream(18, s)) for s in range(50)}
        assert hits == {2}

    @pytest.mark.parametrize("spins", [[1, -1, 1, -1, 1, -1], [1, 1, -1, 1, -1, -1, -1, 1]])
    @pytest.mark.parametrize("shift", ["early", "late", "last draw"])
    def test_returns_the_index_the_chain_reaches(self, monkeypatch, spins, shift):
        # a stand-in block stepper whose chain first aligns after `steps` draws,
        # whatever the draws: the index returned is measured, never ctilde + 1
        cfg = Configuration.from_spins(spins)
        ctilde = decompose(cfg).plus_count
        steps = {"early": ctilde - 1, "late": ctilde + 1, "last draw": cfg.n + 1}[shift]
        taken = []

        def block(bits, seeds, g_rights, g_lefts, n):
            out = []
            for _ in seeds:
                taken.append(None)
                out.append(0 if len(taken) >= steps else bits)
            return out

        monkeypatch.setattr(dynamics, "_wolff_arc_block", block)
        assert hitting_time_aligned(cfg.bits, cfg.n, RngStream(20)) == steps + 1
        assert len(taken) <= cfg.n + 1

    def test_a_callers_generator_moves_as_at_version_0_5_0(self):
        # one generator through 1500 starts, every fifth aligned: the next uniform
        # is the one the per-call-constants version (0.5.0 before keyed streams) left
        n = 48
        full = (1 << n) - 1
        starts = RngStream(21).generator().integers(0, 1 << n, size=1500).tolist()
        gen = RngStream(21, 1).generator()
        for k, bits in enumerate(starts):
            if k % 5 == 0:
                bits = (0, full)[k // 5 % 2]
            hitting_time_aligned(bits, n, gen)
        assert gen.random() == 0.25776633192789056

    @pytest.mark.parametrize("n", [2, 3, 7, 48, 63])
    def test_a_start_draws_one_block_or_nothing(self, n):
        # a non-aligned start draws n + 1 seeds and 2(n + 1) uniforms, an aligned one nothing
        full = (1 << n) - 1
        for bits in (0, full, 1, full >> 1, RngStream(22, n).generator().integers(1, full)):
            gen, twin = RngStream(22).generator(), RngStream(22).generator()
            hitting_time_aligned(bits, n, gen)
            if bits not in (0, full):
                twin.integers(0, n, size=n + 1)
                twin.random(2 * (n + 1))
            state, twin_state = gen.bit_generator.state, twin.bit_generator.state
            assert state["state"]["counter"].tolist() == twin_state["state"]["counter"].tolist()
            assert (state["buffer_pos"], state["has_uint32"]) == (twin_state["buffer_pos"], twin_state["has_uint32"])
            assert gen.random() == twin.random()

    @pytest.mark.parametrize("n", [6, 48, 64, 300])
    def test_steps_come_in_chunks_and_stop_at_the_hit(self, monkeypatch, n):
        # at most HIT_STEP_CHUNK states per call, the predicted ctilde in the first call at n <= 64,
        # no step past the first aligned state, and the block of n + 1 steps drawn whole
        calls = []

        def recording_block(bits, seeds, g_rights, g_lefts, n):
            calls.append(len(seeds))
            return _wolff_arc_block(bits, seeds, g_rights, g_lefts, n)

        monkeypatch.setattr(dynamics, "_wolff_arc_block", recording_block)
        for s in range(20):
            # site 1 down and site n up: never aligned
            bits = _uniform_states(n, 1, RngStream(23, s).generator())[0] & ~1 | 1 << (n - 1)
            ctilde = decompose(Configuration(bits, n)).plus_count
            gen, twin = RngStream(23, 100 + s).generator(), RngStream(23, 100 + s).generator()
            calls.clear()
            assert hitting_time_aligned(bits, n, gen) == ctilde + 1
            assert max(calls) <= HIT_STEP_CHUNK
            assert sum(calls) == ctilde
            if n <= 64:
                assert calls == [ctilde]
            twin.integers(0, n, size=n + 1)
            twin.random(2 * (n + 1))
            assert gen.random() == twin.random()

    def test_post_hit_alternation(self):
        params = ModelParams(8, INFINITE)
        gen = RngStream(19).generator()
        cfg = Configuration.from_spins([1, -1, -1, 1, 1, -1, 1, 1])
        hit = hitting_time_aligned(cfg.bits, cfg.n, RngStream(19, 1))
        traj = list(iter_chain(cfg.bits, hit + 1000, WOLFF, params, RngStream(19, 2)))
        full = (1 << 8) - 1
        post = traj[hit - 1 :]
        assert post[0] in (0, full)
        for k in range(len(post) - 1):
            assert post[k + 1] == post[k] ^ full


def _pooled_chi_square(counts: np.ndarray, mu: np.ndarray, draws: int) -> tuple:
    """Pearson statistic and degrees of freedom of state counts against ``draws * mu``.

    The states expected fewer than 10 times share one cell, with as many of
    the next rarest as it takes for that cell to expect 10; every other
    state is its own cell.
    """
    expected = draws * mu
    order = np.argsort(expected)
    pooled = max(int(np.count_nonzero(expected < 10.0)),
                 int(np.searchsorted(np.cumsum(expected[order]), 10.0)) + 1)
    cells = order[pooled:]
    observed = np.append(counts[cells], counts[order[:pooled]].sum())
    expected = np.append(expected[cells], expected[order[:pooled]].sum())
    return float(((observed - expected) ** 2 / expected).sum()), len(cells)


def _chi_square_quantile(dof: int, z: float) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile at standard normal quantile ``z``."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3


#: Standard normal quantile at 1 - 1e-4. The approximation puts a correct
#: sampler's failure rate per case below at 1e-4; 40000 exact multinomial
#: count vectors per case put it at 0.5e-4 to 2.3e-4, so the four cases
#: together fail a correct sampler with probability below 1e-3.
CHI_SQUARE_Z = 3.7190

STATIONARY_DRAWS = 200000


def _unconditioned_wall_draw(params: ModelParams, count: int, gen) -> np.ndarray:
    # sample_stationary_many's first attempt, with every row kept whatever its wall count, packed
    miss = derived_constants(params).bond_miss
    thresholds = np.full(params.n + 1, miss / (1.0 + miss))
    thresholds[0] = 0.5
    marks = gen.random((count, params.n + 1)) < thresholds
    plus = ~np.logical_xor.accumulate(marks[:, : params.n], axis=1)
    return (plus.astype(np.int64) << np.arange(params.n)).sum(axis=1)


class TestStationarySampling:
    @pytest.mark.parametrize("n, j_hat", [(4, 0.3), (7, 0.5), (9, 2.0), (10, 1.0)])
    def test_sampler_matches_the_gibbs_measure(self, n, j_hat):
        params = ModelParams(n, j_hat)
        counts = np.bincount(sample_stationary_many(params, STATIONARY_DRAWS, RngStream(20, n)), minlength=1 << n)
        stat, dof = _pooled_chi_square(counts, gibbs_measure(params).probabilities, STATIONARY_DRAWS)
        assert stat <= _chi_square_quantile(dof, CHI_SQUARE_Z)

    def test_the_even_wall_count_condition_is_needed(self):
        # negative control: without it about (1 - tanh(1)^4)/2 = 1/3 of the draws come
        # from odd wall counts, and the pin above must fail
        params = ModelParams(4, 1.0)
        counts = np.bincount(_unconditioned_wall_draw(params, STATIONARY_DRAWS, RngStream(20, 4).generator()), minlength=16)
        stat, dof = _pooled_chi_square(counts, gibbs_measure(params).probabilities, STATIONARY_DRAWS)
        assert stat > _chi_square_quantile(dof, CHI_SQUARE_Z)

    def test_one_draw_is_the_first_row_of_many(self):
        params = ModelParams(9, 0.7)
        for seed in range(20):
            one = sample_stationary(params, RngStream(seed))
            many = sample_stationary_many(params, 1, RngStream(seed))[0]
            assert one == Configuration(many, 9)

    def test_zero_coupling_fair_signs(self):
        params = ModelParams(10, 0.0)
        states = sample_stationary_many(params, 50000, RngStream(21))
        means = decode_states(states, 10).mean(axis=0)
        assert np.abs(means).max() <= 4.0 / math.sqrt(50000)
        # neighbors uncorrelated
        corr = spin_products(states, 1, 2).mean()
        assert abs(corr) <= 4.0 / math.sqrt(50000)

    def test_all_plus_frequency(self):
        params = ModelParams(8, 1.0)
        target = gibbs_measure(params).probabilities[(1 << 8) - 1]
        draws = 200000
        hits = sample_stationary_many(params, draws, RngStream(22)).count((1 << 8) - 1)
        se = math.sqrt(draws * target * (1 - target))
        assert abs(hits - draws * target) <= 4 * se

    def test_large_ring_pair_correlation(self):
        params = ModelParams(64, 0.5)
        states = sample_stationary_many(params, 100000, RngStream(24))
        exact = two_point_correlation(1, 2, params)
        emp = float(spin_products(states, 1, 2).mean())
        se = math.sqrt((1 - exact**2) / 100000)
        assert abs(emp - exact) <= 4 * se
        # distant pair too (wrap-around term matters at finite n)
        exact_far = two_point_correlation(1, 33, params)
        emp_far = float(spin_products(states, 1, 33).mean())
        assert abs(emp_far - exact_far) <= 4 / math.sqrt(100000) + 1e-3

    def test_thousand_site_ring_pair_correlation(self):
        # the draw is one (count, n + 1) block per attempt at any n; 5000 rows keep it near 40 MB
        params = ModelParams(1024, 0.5)
        draws = 5000
        states = sample_stationary_many(params, draws, RngStream(24))
        for i, j in ((1, 2), (1, 1024), (1, 4), (1, 513)):
            exact = two_point_correlation(i, j, params)
            emp = float(spin_products(states, i, j).mean())
            assert abs(emp - exact) <= 4 * math.sqrt((1 - exact**2) / draws)

    def test_critical_rejected(self):
        with pytest.raises(CriticalCouplingError):
            sample_stationary(ModelParams(4, INFINITE), RngStream(25))


class TestBatchSteppers:
    def test_wolff_batch_only_flips_aligned_arcs(self):
        params = ModelParams(10, 0.6)
        gen = RngStream(26).generator()
        states = gen.integers(0, 1 << 10, size=64).astype(np.uint64)
        for _ in range(50):
            nxt = twin_step(states, params, gen)
            changed = nxt ^ states
            assert (changed != 0).all()  # a Wolff step always moves
            shared = states & changed
            assert ((shared == 0) | (shared == changed)).all()  # the flipped spins share one sign
            states = nxt

    def test_batch_chain_reaches_stationarity(self):
        # 64 parallel chains, long run, empirical measure close to Gibbs
        params = ModelParams(5, 0.5)
        mu = gibbs_measure(params).probabilities
        gen = RngStream(27).generator()
        chains = 64
        states = gen.integers(0, 32, size=chains).astype(np.uint64)
        counts = np.zeros(32)
        burn, keep = 200, 3000
        for step in range(burn + keep):
            states = twin_step(states, params, gen)
            if step >= burn:
                counts += np.bincount(states.view(np.int64), minlength=32)
        tv = 0.5 * np.abs(counts / counts.sum() - mu).sum()
        assert tv < 0.01


@pytest.mark.parametrize("j", [0.0, 0.3, 1.0, 3.0, INFINITE])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 31, 32, 33, 63, 64, 100])
def test_arc_law_forms_agree_draw_for_draw(n, j):
    # scalar arc law, its uint64 twin (n <= 64) and the roll/cumprod oracle,
    # fed the same draws, from both aligned states, every one-arc state
    # (long runs on both sides of most seeds) and random states
    params = ModelParams(n, j)
    bond_prob = derived_constants(params).bond_prob
    full = (1 << n) - 1
    gen = RngStream(30, n).generator()
    states = [0, full] + [(1 << k) - 1 for k in range(1, n)]
    states += [int.from_bytes(gen.bytes(8 + n // 8), "little") & full for _ in range(256 - len(states))]
    spins = np.array([Configuration(b, n).spins() for b in states], dtype=np.int8)
    for step in range(4):
        expected = oracle.roll_cumprod_wolff_step_many(spins, bond_prob, RngStream(31, step).generator())
        draws = _arc_draws(RngStream(31, step).generator(), len(states), n, bond_prob)
        stepped = [_wolff_arc_block(b, [seed], [right], [left], n)[0]
                   for b, seed, right, left in zip(states, *(x.tolist() for x in draws))]
        assert stepped == [Configuration.from_spins(row.tolist()).bits for row in expected]
        if n <= 64:
            twin = twin_step(np.array(states, dtype=np.uint64), params, RngStream(31, step).generator())
            assert twin.tolist() == stepped
        states, spins = stepped, expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 64), j=st.one_of(st.floats(0.0, 4.0), st.just(INFINITE)), data=st.data())
def test_arc_law_engines_agree_on_random_rings(n, j, data):
    # _wolff_arc_block, the uint64 twin and the roll/cumprod oracle step random
    # states on one draw block of a random stream
    params = ModelParams(n, j)
    bond_prob = derived_constants(params).bond_prob
    states = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=32), label="states")
    stream = data.draw(st.integers(0, 2**32 - 1), label="stream")
    spins = np.array([Configuration(b, n).spins() for b in states], dtype=np.int8)
    expected = oracle.roll_cumprod_wolff_step_many(spins, bond_prob, RngStream(35, stream).generator())
    draws = _arc_draws(RngStream(35, stream).generator(), len(states), n, bond_prob)
    scalar = [_wolff_arc_block(b, [seed], [right], [left], n)[0]
              for b, seed, right, left in zip(states, *(x.tolist() for x in draws))]
    twin = twin_step(np.array(states, dtype=np.uint64), params, RngStream(35, stream).generator())
    assert scalar == twin.tolist() == [Configuration.from_spins(row.tolist()).bits for row in expected]


def _glauber_by_hand(bits, site, u, n, j_hat):
    # the heat-bath rule written out from the spins, independently of _glauber_block
    s = [2 * ((bits >> k) & 1) - 1 for k in ((site - 1) % n, site, (site + 1) % n)]
    aligned = (s[0] == s[1]) + (s[2] == s[1])
    return bits ^ (1 << site) if u < _glauber_flip_probs(j_hat)[aligned] else bits


@pytest.mark.parametrize("kind", [WOLFF, GLAUBER])
def test_chain_draw_blocks_are_cut_at_the_steps_remaining(kind):
    # a chain of k states draws k-1 steps: full blocks, then one cut block;
    # Wolff blocks are seeds, right and left uniforms, Glauber blocks sites then uniforms
    n = 12
    params = ModelParams(n, 0.7)
    gen = RngStream(32).generator()
    chain = list(iter_chain(5, CHAIN_DRAW_BLOCK + 10, kind, params, gen))
    ref = RngStream(32).generator()
    bits, expected = 5, [5]
    for count in (CHAIN_DRAW_BLOCK, 9):
        if kind == WOLFF:
            draws = _arc_draws(ref, count, n, derived_constants(params).bond_prob)
            for seed, right, left in zip(*(x.tolist() for x in draws)):
                bits = _wolff_arc_block(bits, [seed], [right], [left], n)[0]
                expected.append(bits)
        else:
            sites = ref.integers(0, n, size=count)
            for site, u in zip(sites.tolist(), ref.random(count).tolist()):
                bits = _glauber_by_hand(bits, site, u, n, 0.7)
                expected.append(bits)
    assert chain == expected
    assert gen.random() == ref.random()  # nothing drawn beyond the chain's own steps


@pytest.mark.parametrize("length", [1, 2, CHAIN_DRAW_BLOCK, CHAIN_DRAW_BLOCK + 1, 2 * CHAIN_DRAW_BLOCK + 1])
@pytest.mark.parametrize("n", [2, 3, 5, 16, 48, 64, 100, 300])
@pytest.mark.parametrize("kind, j", [(WOLFF, 0.0), (WOLFF, 0.5), (WOLFF, 1.5), (WOLFF, INFINITE),
                                     (GLAUBER, 0.0), (GLAUBER, 0.5), (GLAUBER, 1.5), (GLAUBER, 300.0)],
                         ids=lambda v: "inf" if v is INFINITE else str(v))
def test_block_chains_match_the_per_step_chain(kind, j, n, length):
    # the block loops step exactly as one call per step did, draw for draw
    params = ModelParams(n, j)
    law = derived_constants(params).bond_prob if kind == WOLFF else _glauber_flip_probs(j).tolist()
    start = int.from_bytes(RngStream(33, n).generator().bytes(8 + n // 8), "little") & ((1 << n) - 1)
    ref = RngStream(34).generator()
    expected = oracle.per_step_chain_bits(start, length, kind, n, law, ref)
    gen = RngStream(34).generator()
    assert list(iter_chain(start, length, kind, params, gen)) == expected
    assert gen.random() == ref.random()  # nothing drawn beyond the chain's own steps


@pytest.mark.parametrize("kind", [WOLFF, GLAUBER])
def test_large_ring_streaming(kind):
    # nothing in the streaming path may assume 64-bit packing
    n = 300
    params = ModelParams(n, 0.5)
    exact = two_point_correlation(1, 2, params)
    total = 0.0
    count = 0
    for bits in iter_chain("stationary", 400, kind, params, RngStream(29)):
        spins = Configuration(bits, n).spins()
        total += sum(spins[i] * spins[(i + 1) % n] for i in range(n)) / n
        count += 1
    assert count == 400
    assert abs(total / count - exact) < 0.05


@pytest.mark.parametrize("kind", [WOLFF, GLAUBER])
def test_long_run_total_variation(kind):
    # both dynamics share the Gibbs invariant measure
    n, j, m = 5, 0.5, 3_000_000
    params = ModelParams(n, j)
    mu = gibbs_measure(params).probabilities
    counts = np.zeros(1 << n)
    for bits in iter_chain("all-plus", m, kind, params, RngStream(28)):
        counts[bits] += 1
    tv = 0.5 * np.abs(counts / m - mu).sum()
    assert tv <= 0.005
