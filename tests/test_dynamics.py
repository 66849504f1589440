import math

import numpy as np
import pytest

from isingring import (
    GLAUBER,
    INFINITE,
    WOLFF,
    Configuration,
    CriticalCouplingError,
    InitialLaw,
    ModelParams,
    ResourceLimitError,
    RngStream,
    decompose,
    decode_states,
    derived_constants,
    encode_spins,
    gibbs_measure,
    gibbs_probability,
    glauber_step,
    hitting_time_aligned,
    iter_chain,
    run_chain,
    sample_stationary,
    sample_stationary_many,
    two_point_correlation,
    wolff_step,
    wolff_step_many,
)
from isingring.dynamics import (
    CHAIN_DRAW_BLOCK,
    _arc_draws,
    _chain_bits,
    _glauber_flip_probs,
    _wolff_arc_block,
)
from isingring.functionals import lsi_constant_bound

import _oracles as oracle


class TestWolffStep:
    def test_zero_coupling_flips_exactly_one_site(self):
        params = ModelParams(7, 0.0)
        gen = RngStream(1).generator()
        cfg = Configuration.from_spins([1, -1, 1, 1, -1, -1, 1])
        seen_sites = set()
        for _ in range(500):
            nxt = wolff_step(cfg, params, gen)
            diff = nxt.bits ^ cfg.bits
            assert bin(diff).count("1") == 1
            seen_sites.add(diff.bit_length())
            cfg = nxt
        assert seen_sites == set(range(1, 8))  # every site gets chosen eventually

    def test_always_changes_the_state(self):
        gen = RngStream(2).generator()
        for j in (0.0, 0.3, 1.0):
            params = ModelParams(6, j)
            cfg = Configuration.from_spins([1, 1, -1, 1, -1, -1])
            for _ in range(100):
                nxt = wolff_step(cfg, params, gen)
                assert nxt != cfg
                cfg = nxt

    def test_cluster_is_aligned_arc(self):
        params = ModelParams(8, 0.7)
        gen = RngStream(3).generator()
        cfg = Configuration.from_spins([1, 1, -1, 1, -1, -1, 1, 1])
        for _ in range(300):
            nxt = wolff_step(cfg, params, gen)
            flipped = [b + 1 for b in range(8) if (nxt.bits ^ cfg.bits) >> b & 1]
            values = {cfg.spin(s) for s in flipped}
            assert len(values) == 1  # all flipped spins shared one sign
            from isingring import FlipSet, is_connected

            assert is_connected(FlipSet.from_sites(flipped, 8))
            cfg = nxt

    def test_critical_deterministic_from_aligned(self):
        params = ModelParams(5, INFINITE)
        gen = RngStream(4).generator()
        plus = Configuration.all_plus(5)
        for _ in range(10):
            assert wolff_step(plus, params, gen) == plus.negated()

    def test_critical_flips_exactly_one_component(self):
        params = ModelParams(9, INFINITE)
        gen = RngStream(5).generator()
        cfg = Configuration.from_spins([1, 1, -1, 1, -1, -1, 1, -1, 1])
        components = decompose(cfg).components()
        for _ in range(200):
            nxt = wolff_step(cfg, params, gen)
            assert nxt.bits ^ cfg.bits in components


class TestGlauberStep:
    def test_zero_coupling_is_lazy(self):
        params = ModelParams(6, 0.0)
        gen = RngStream(6).generator()
        cfg = Configuration.from_spins([1, -1, 1, -1, 1, 1])
        stays = 0
        trials = 20000
        for _ in range(trials):
            nxt = glauber_step(cfg, params, gen)
            diff = bin(nxt.bits ^ cfg.bits).count("1")
            assert diff <= 1
            stays += diff == 0
        assert abs(stays / trials - 0.5) < 0.02

    def test_flip_rate_with_opposed_neighbors(self):
        # sigma_i (s_{i-1}+s_{i+1}) = -2: flip probability e^{2J}/(e^{2J}+e^{-2J})
        j = 0.6
        params = ModelParams(3, j)
        cfg = Configuration.from_spins([-1, 1, -1])  # site 2 opposed on both sides... site 2 is +1 between -1s
        gen = RngStream(7).generator()
        trials = 200000
        flips_at_2 = 0
        for _ in range(trials):
            nxt = glauber_step(cfg, params, gen)
            if nxt.bits != cfg.bits and (nxt.bits ^ cfg.bits) == 0b010:
                flips_at_2 += 1
        p_expected = math.exp(2 * j) / (math.exp(2 * j) + math.exp(-2 * j)) / 3
        se = math.sqrt(p_expected * (1 - p_expected) / trials)
        assert abs(flips_at_2 / trials - p_expected) <= 4 * se

    def test_critical_rejected(self):
        with pytest.raises(CriticalCouplingError):
            glauber_step(Configuration.all_plus(4), ModelParams(4, INFINITE), RngStream(0))

    def test_heat_bath_odds_overflow_raises_naming_the_coupling(self):
        # e^{2J} is finite at J = 354 and overflows from about 354.9, where the odds would read inf/inf = NaN
        assert _glauber_flip_probs(354.0).tolist() == [1.0, 0.5, 0.0]
        with pytest.raises(ValueError, match=r"j_hat=400\.0"):
            _glauber_flip_probs(400.0)


class TestChains:
    def test_single_step_trajectory_is_initial(self):
        params = ModelParams(5, 0.5)
        cfg = Configuration.from_spins([1, 1, -1, 1, -1])
        traj = run_chain(InitialLaw.fixed(cfg), 1, WOLFF, params, RngStream(8))
        assert traj.steps == 1
        assert traj.initial == cfg

    def test_determinism(self):
        params = ModelParams(8, 0.8)
        law = InitialLaw.uniform_random()
        a = run_chain(law, 300, WOLFF, params, RngStream(9, 2))
        b = run_chain(law, 300, WOLFF, params, RngStream(9, 2))
        c = run_chain(law, 300, WOLFF, params, RngStream(9, 3))
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)

    def test_iter_chain_matches_run_chain(self):
        params = ModelParams(6, 0.4)
        law = InitialLaw.all_plus()
        stored = run_chain(law, 50, GLAUBER, params, RngStream(10))
        streamed = list(iter_chain(law, 50, GLAUBER, params, RngStream(10)))
        assert stored.states.tolist() == streamed

    @pytest.mark.parametrize("steps, kind", [(0, WOLFF), (-3, GLAUBER), (10, "metropolis")])
    def test_iter_chain_rejects_bad_arguments_at_the_call(self, steps, kind):
        with pytest.raises(ValueError):
            iter_chain(InitialLaw.all_plus(), steps, kind, ModelParams(6, 0.4), RngStream(10))

    def test_critical_alternation_from_all_plus(self):
        params = ModelParams(4, INFINITE)
        traj = run_chain(InitialLaw.all_plus(), 4, WOLFF, params, RngStream(11))
        full = (1 << 4) - 1
        assert traj.states.tolist() == [full, 0, full, 0]

    def test_storage_budget(self, monkeypatch):
        monkeypatch.setattr("isingring.dynamics.STORAGE_BUDGET", 1000)
        params = ModelParams(4, 0.5)
        with pytest.raises(ResourceLimitError):
            run_chain(InitialLaw.all_plus(), 10**6, WOLFF, params, RngStream(12))

    def test_ergodic_average_constant(self):
        params = ModelParams(4, 0.5)
        traj = run_chain(InitialLaw.all_plus(), 25, WOLFF, params, RngStream(13))
        assert oracle.ergodic_average(lambda c: 3.25, traj) == pytest.approx(3.25)

    def test_ergodic_average_magnetization_decays(self):
        params = ModelParams(6, 0.5)
        traj = run_chain(InitialLaw.all_plus(), 20000, WOLFF, params, RngStream(14))
        mag = oracle.ergodic_average(lambda c: sum(c.spins()) / 6, traj)
        assert abs(mag) < 0.05

    def test_ergodic_average_pair_correlation(self):
        # tolerance from the stationary trajectory error bound
        n, j, m = 8, 0.5, 200000
        params = ModelParams(n, j)
        traj_bound = lsi_constant_bound(j, n) / m  # ||f||^2 = 1 for f = s1 s2
        exact = two_point_correlation(1, 2, params)
        avg = oracle.ergodic_average(
            lambda c: c.spin(1) * c.spin(2),
            (Configuration(b, n) for b in iter_chain(InitialLaw.stationary(), m, WOLFF, params, RngStream(15))),
        )
        assert (avg - exact) ** 2 <= 16 * traj_bound


class TestHitting:
    def test_aligned_start(self):
        assert hitting_time_aligned(Configuration.all_minus(6), RngStream(16)) == 1

    def test_alternating_start(self):
        cfg = Configuration.from_spins([1, -1, 1, -1, 1, -1])
        ctilde = decompose(cfg).plus_count
        assert ctilde == 3
        hits = {hitting_time_aligned(cfg, RngStream(17, s)) for s in range(100)}
        assert hits == {ctilde + 1}

    def test_single_minus_arc(self):
        cfg = Configuration.from_spins([1, 1, -1, -1, 1, 1, 1])
        assert decompose(cfg).plus_count == 1
        hits = {hitting_time_aligned(cfg, RngStream(18, s)) for s in range(50)}
        assert hits == {2}

    def test_post_hit_alternation(self):
        params = ModelParams(8, INFINITE)
        gen = RngStream(19).generator()
        cfg = Configuration.from_spins([1, -1, -1, 1, 1, -1, 1, 1])
        hit = hitting_time_aligned(cfg, RngStream(19, 1))
        traj = run_chain(InitialLaw.fixed(cfg), hit + 1000, WOLFF, params, RngStream(19, 2))
        full = (1 << 8) - 1
        post = traj.states[hit - 1 :]
        assert post[0] in (0, full)
        for k in range(len(post) - 1):
            assert post[k + 1] == post[k] ^ full


class TestStationarySampling:
    def test_inverse_cdf_frequencies(self):
        params = ModelParams(6, 0.7)
        mu = gibbs_measure(params).probabilities
        gen = RngStream(20).generator()
        draws = 100000
        counts = np.zeros(64)
        for _ in range(draws):
            counts[sample_stationary(params, gen).bits] += 1
        z = (counts - draws * mu) / np.sqrt(draws * mu * (1 - mu))
        assert np.abs(z).max() <= 4.0

    def test_zero_coupling_fair_signs(self):
        params = ModelParams(10, 0.0)
        spins = sample_stationary_many(params, 50000, RngStream(21))
        means = spins.mean(axis=0)
        assert np.abs(means).max() <= 4.0 / math.sqrt(50000)
        # neighbors uncorrelated
        corr = (spins[:, 0] * spins[:, 1]).mean()
        assert abs(corr) <= 4.0 / math.sqrt(50000)

    def test_all_plus_frequency(self):
        params = ModelParams(8, 1.0)
        target = gibbs_probability(Configuration.all_plus(8), params)
        draws = 200000
        spins = sample_stationary_many(params, draws, RngStream(22))
        hits = int((spins == 1).all(axis=1).sum())
        se = math.sqrt(draws * target * (1 - target))
        assert abs(hits - draws * target) <= 4 * se

    def test_sequential_sampler_matches_exact_measure(self):
        # the transfer-matrix path must agree with the enumerated measure
        params = ModelParams(6, 0.9)
        mu = gibbs_measure(params).probabilities
        draws = 150000
        spins = sample_stationary_many(params, draws, RngStream(23))
        bits = encode_spins(spins)
        counts = np.bincount(bits.astype(np.int64), minlength=64)
        z = (counts - draws * mu) / np.sqrt(draws * mu * (1 - mu))
        assert np.abs(z).max() <= 4.5

    def test_large_ring_pair_correlation(self):
        params = ModelParams(64, 0.5)
        spins = sample_stationary_many(params, 100000, RngStream(24))
        exact = two_point_correlation(1, 2, params)
        emp = float((spins[:, 0] * spins[:, 1]).mean())
        se = math.sqrt((1 - exact**2) / 100000)
        assert abs(emp - exact) <= 4 * se
        # distant pair too (wrap-around term matters at finite n)
        exact_far = two_point_correlation(1, 33, params)
        emp_far = float((spins[:, 0] * spins[:, 32]).mean())
        assert abs(emp_far - exact_far) <= 4 / math.sqrt(100000) + 1e-3

    def test_critical_rejected(self):
        with pytest.raises(CriticalCouplingError):
            sample_stationary(ModelParams(4, INFINITE), RngStream(25))


class TestBatchSteppers:
    def test_wolff_batch_only_flips_aligned_arcs(self):
        params = ModelParams(10, 0.6)
        gen = RngStream(26).generator()
        spins = decode_states(gen.integers(0, 1 << 10, size=64).astype(np.uint64), 10)
        for _ in range(50):
            nxt = wolff_step_many(spins, params, gen)
            changed = nxt != spins
            assert changed.any(axis=1).all()  # a Wolff step always moves
            for row in range(64):
                flipped = np.nonzero(changed[row])[0]
                assert len({int(spins[row, b]) for b in flipped}) == 1
            spins = nxt

    def test_batch_chain_reaches_stationarity(self):
        # 64 parallel chains, long run, empirical measure close to Gibbs
        params = ModelParams(5, 0.5)
        mu = gibbs_measure(params).probabilities
        gen = RngStream(27).generator()
        chains = 64
        spins = decode_states(gen.integers(0, 32, size=chains).astype(np.uint64), 5)
        counts = np.zeros(32)
        burn, keep = 200, 3000
        for step in range(burn + keep):
            spins = wolff_step_many(spins, params, gen)
            if step >= burn:
                counts += np.bincount(encode_spins(spins).astype(np.int64), minlength=32)
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
        states = [_wolff_arc_block(b, [seed], [right], [left], n)[0]
                  for b, seed, right, left in zip(states, *(x.tolist() for x in draws))]
        assert states == [Configuration.from_spins(row.tolist()).bits for row in expected]
        if n <= 64:
            assert np.array_equal(wolff_step_many(spins, params, RngStream(31, step).generator()), expected)
        spins = expected


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
    chain = list(_chain_bits(5, CHAIN_DRAW_BLOCK + 10, kind, params, gen))
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
@pytest.mark.parametrize("n", [2, 3, 5, 16, 48, 64, 100])
@pytest.mark.parametrize("kind, j", [(WOLFF, 0.0), (WOLFF, 0.5), (WOLFF, 1.5), (WOLFF, INFINITE),
                                     (GLAUBER, 0.0), (GLAUBER, 0.5), (GLAUBER, 1.5)],
                         ids=lambda v: "inf" if v is INFINITE else str(v))
def test_block_chains_match_the_per_step_chain(kind, j, n, length):
    # the block loops step exactly as one call per step did, draw for draw,
    # through _chain_bits and, where states fit a uint64, through run_chain
    params = ModelParams(n, j)
    law = derived_constants(params).bond_prob if kind == WOLFF else _glauber_flip_probs(j).tolist()
    start = int.from_bytes(RngStream(33, n).generator().bytes(8 + n // 8), "little") & ((1 << n) - 1)
    ref = RngStream(34).generator()
    expected = oracle.per_step_chain_bits(start, length, kind, n, law, ref)
    gen = RngStream(34).generator()
    assert np.array_equal(np.array(list(_chain_bits(start, length, kind, params, gen)), dtype=object),
                          np.array(expected, dtype=object))
    after = ref.random()
    assert gen.random() == after  # nothing drawn beyond the chain's own steps
    if n <= 64:
        gen = RngStream(34).generator()
        traj = run_chain(InitialLaw.fixed(Configuration(start, n)), length, kind, params, gen)
        assert np.array_equal(traj.states, np.array(expected, dtype=np.uint64))
        assert gen.random() == after


@pytest.mark.parametrize("kind", [WOLFF, GLAUBER])
def test_large_ring_streaming(kind):
    # nothing in the streaming path may assume 64-bit packing
    n = 300
    params = ModelParams(n, 0.5)
    exact = two_point_correlation(1, 2, params)
    total = 0.0
    count = 0
    for bits in iter_chain(InitialLaw.stationary(), 400, kind, params, RngStream(29)):
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
    for bits in iter_chain(InitialLaw.all_plus(), m, kind, params, RngStream(28)):
        counts[bits] += 1
    tv = 0.5 * np.abs(counts / m - mu).sum()
    assert tv <= 0.005
