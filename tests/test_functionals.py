import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingring import (
    InequalityReport,
    ModelParams,
    RngStream,
    build_glauber_kernel,
    build_wolff_kernel,
    certification_sweep,
    certify_lsi,
    character_function,
    check_detailed_balance,
    dirichlet_form,
    entropy,
    ergodic_l2_bound,
    gibbs_measure,
    indicator_function,
    lsi_constant_bound,
    poincare_constant_bound,
    symmetrize_and_decompose,
    two_point_correlation,
)
from isingring.functionals import (
    CERTIFY_BLOCK,
    _moved_sums,
    _pair_weights,
    _score_sums,
    dirichlet_form_batch,
    entropy_batch,
    ratio_ascent_adversary,
    variance_batch,
)
from isingring.kernel import TransitionKernel

import _oracles as oracle


def variance(f, measure):
    """Var(f) as the package computes it: one row of ``variance_batch``."""
    return float(variance_batch(np.asarray(f, dtype=np.float64)[None, :], measure)[0])


def poincare_report(f, kernel, measure, constant=None):
    """Var(f) <= constant * E(f) for one function, scored as ``certification_sweep`` scores it."""
    if constant is None:
        constant = poincare_constant_bound(kernel.params.require_finite("poincare_report"), kernel.n)
    return InequalityReport("single", "poincare", variance(f, measure), constant * dirichlet_form(f, kernel, measure))


@pytest.fixture(scope="module")
def setup_n6():
    params = ModelParams(6, 0.5)
    kernel = build_wolff_kernel(params)
    measure = gibbs_measure(params)
    return params, kernel, measure


class TestDirichletForm:
    def test_constant_is_zero(self, setup_n6):
        _, kernel, measure = setup_n6
        f = np.full(kernel.size, 2.5)
        assert dirichlet_form(f, kernel, measure) == pytest.approx(0.0, abs=1e-15)

    def test_character_at_zero_coupling(self):
        # only the flip at site 1 changes sigma_1, by +-2: energy = 2/N
        n = 6
        params = ModelParams(n, 0.0)
        kernel = build_wolff_kernel(params)
        measure = gibbs_measure(params)
        f = character_function(n, [1])
        assert dirichlet_form(f, kernel, measure) == pytest.approx(2.0 / n, abs=1e-13)

    def test_quadratic_form_identity(self, setup_n6):
        _, kernel, measure = setup_n6
        gen = np.random.default_rng(1)
        fs = gen.standard_normal((100, kernel.size))
        batch = dirichlet_form_batch(fs, kernel, measure)
        for k in range(100):
            assert abs(batch[k] - dirichlet_form(fs[k], kernel, measure)) <= 1e-12 * max(1.0, abs(batch[k]))

    @pytest.mark.parametrize("kind", ["wolff", "glauber"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_support_sum_matches_dense_oracle(self, n, kind):
        build = build_wolff_kernel if kind == "wolff" else build_glauber_kernel
        gen = np.random.default_rng(100 + n)
        for j in (0.0, 0.25, 1.0, 2.5):
            params = ModelParams(n, j)
            kernel = build(params)
            measure = gibbs_measure(params)
            mu = measure.probabilities
            assert dirichlet_form(np.full(kernel.size, -1.5), kernel, measure) == 0.0
            for f in [character_function(n, [1]), *gen.standard_normal((5, kernel.size))]:
                dense = oracle.dense_dirichlet_form(f, kernel.matrix, mu)
                support = dirichlet_form(f, kernel, measure)
                assert support >= 0.0
                assert abs(support - dense) <= 1e-13 * dense

    def test_hypercube_normalization(self):
        # the zero-coupling Wolff Dirichlet form is the hypercube form
        n = 5
        params = ModelParams(n, 0.0)
        kernel = build_wolff_kernel(params)
        measure = gibbs_measure(params)
        gen = np.random.default_rng(2)
        for _ in range(20):
            f = gen.standard_normal(kernel.size)
            direct = dirichlet_form(f, kernel, measure)
            flips = 0.0
            for b in range(n):
                states = np.arange(1 << n)
                flips += float((((f[states ^ (1 << b)] - f[states]) ** 2) * measure.probabilities).sum())
            assert direct == pytest.approx(flips / (2 * n), rel=1e-12)


class TestEntropy:
    def test_constant_is_zero(self, setup_n6):
        _, kernel, measure = setup_n6
        assert entropy(np.full(kernel.size, 3.0), measure) == pytest.approx(0.0, abs=1e-14)

    def test_indicator_under_uniform(self):
        n = 6
        measure = gibbs_measure(ModelParams(n, 0.0))
        f = indicator_function(n, 5)
        expected = (n * math.log(2)) / (1 << n)  # -E[f] log E[f] with E[f log f] = 0
        assert entropy(f, measure) == pytest.approx(expected, rel=1e-12)

    def test_homogeneity(self, setup_n6):
        _, kernel, measure = setup_n6
        gen = np.random.default_rng(3)
        f = np.abs(gen.standard_normal(kernel.size))
        for c in (0.5, 2.0, 7.5):
            assert entropy(c * f, measure) == pytest.approx(c * entropy(f, measure), rel=1e-11)

    def test_negative_input_rejected(self, setup_n6):
        _, kernel, measure = setup_n6
        f = np.ones(kernel.size)
        f[3] = -1e-9
        with pytest.raises(ValueError):
            entropy(f, measure)

    def test_zero_log_zero_convention(self, setup_n6):
        _, kernel, measure = setup_n6
        f = np.zeros(kernel.size)
        assert entropy(f, measure) == 0.0

    def test_nonnegative_and_batch_agreement(self, setup_n6):
        _, kernel, measure = setup_n6
        gen = np.random.default_rng(4)
        fs = gen.standard_normal((50, kernel.size)) ** 2
        ents = entropy_batch(fs, measure)
        assert (ents >= -1e-14).all()
        for k in range(50):
            assert ents[k] == pytest.approx(entropy(fs[k], measure), rel=1e-11, abs=1e-13)


class TestVariance:
    def test_constant(self, setup_n6):
        _, kernel, measure = setup_n6
        assert variance(np.full(kernel.size, -4.0), measure) == pytest.approx(0.0, abs=1e-13)

    def test_single_spin_at_zero_coupling(self):
        measure = gibbs_measure(ModelParams(6, 0.0))
        assert variance(character_function(6, [1]), measure) == pytest.approx(1.0, rel=1e-13)

    def test_sum_of_two_spins(self):
        params = ModelParams(4, 1.0)
        measure = gibbs_measure(params)
        f = character_function(4, [1]) + character_function(4, [2])
        expected = 2.0 + 2.0 * two_point_correlation(1, 2, params)
        assert variance(f, measure) == pytest.approx(expected, rel=1e-12)
        brute = oracle.brute_expectation(4, 1.0, lambda s: (s[0] + s[1]) ** 2)
        assert variance(f, measure) == pytest.approx(brute, rel=1e-12)

    def test_batch_agreement(self, setup_n6):
        _, kernel, measure = setup_n6
        gen = np.random.default_rng(5)
        fs = gen.standard_normal((50, kernel.size))
        vars_ = variance_batch(fs, measure)
        for k in range(50):
            assert vars_[k] == pytest.approx(oracle.variance(fs[k], measure), rel=1e-11)


class TestConstants:
    def test_hypercube_value_is_exact(self):
        for n in (2, 5, 8, 16):
            assert lsi_constant_bound(0.0, n) == float(n)
            assert poincare_constant_bound(0.0, n) == n / 2.0

    def test_half_relation(self):
        for j in (0.0, 0.25, 1.0, 2.0):
            assert 2.0 * poincare_constant_bound(j, 8) == lsi_constant_bound(j, 8)

    def test_independent_arithmetic(self):
        # e * (e^2+1) * (1/2 + 0.5 e^{(e-1)/2}) * 8, written out separately
        expected = math.e * (math.e**2 + 1.0) * (0.5 + 0.5 * math.exp((math.e - 1.0) / 2.0)) * 8.0
        assert lsi_constant_bound(0.5, 8) == pytest.approx(expected, rel=1e-15)

    def test_monotone(self):
        grid = [0.0, 0.1, 0.5, 1.0, 1.5, 2.0]
        values = [lsi_constant_bound(j, 8) for j in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert lsi_constant_bound(1.0, 10) > lsi_constant_bound(1.0, 9)

    def test_rejects_bad_coupling(self):
        with pytest.raises(ValueError):
            lsi_constant_bound(-0.5, 4)
        with pytest.raises(ValueError):
            lsi_constant_bound(math.inf, 4)

    def test_overflow_is_an_error_not_inf(self):
        assert math.isfinite(lsi_constant_bound(3.6, 64))
        for j, n in ((3.62, 2), (30.0, 4), (3.6, 10**300)):
            with pytest.raises(ValueError, match="overflows a float64"):
                lsi_constant_bound(j, n)


class TestCertification:
    def test_constant_function_passes(self, setup_n6):
        _, kernel, measure = setup_n6
        f = np.full(kernel.size, 1.7)
        assert certify_lsi(f, kernel, measure).passed
        assert poincare_report(f, kernel, measure).passed

    def test_random_functions_pass(self, setup_n6):
        _, kernel, measure = setup_n6
        gen = np.random.default_rng(6)
        for _ in range(200):
            f = gen.standard_normal(kernel.size)
            r = certify_lsi(f, kernel, measure)
            assert r.passed, f"slack {r.slack}"
            r2 = poincare_report(f, kernel, measure)
            assert r2.passed, f"slack {r2.slack}"

    def test_second_eigenfunction_is_extremal_for_poincare(self, setup_n6):
        params, kernel, measure = setup_n6
        dec = symmetrize_and_decompose(kernel, measure)
        xi2 = dec.basis[:, 1]
        var = variance(xi2, measure)
        energy = dirichlet_form(xi2, kernel, measure)
        assert var / energy == pytest.approx(1.0 / dec.gap, rel=1e-9)
        assert poincare_report(xi2, kernel, measure).passed

    def test_adversarial_search_passes(self, setup_n6):
        params, kernel, measure = setup_n6
        adv = ratio_ascent_adversary(kernel, measure, RngStream(30), target="lsi", restarts=15, sweeps=25)
        assert certify_lsi(adv, kernel, measure).passed
        adv_p = ratio_ascent_adversary(kernel, measure, RngStream(31), target="poincare", restarts=15, sweeps=25)
        assert poincare_report(adv_p, kernel, measure).passed

    @pytest.mark.parametrize("target", ["lsi", "poincare"])
    def test_adversary_path_unchanged_by_support_sum(self, setup_n6, monkeypatch, target):
        # the search compares energies, so the support sum must steer it exactly
        # as the dense double sum does
        _, kernel, measure = setup_n6
        support = ratio_ascent_adversary(kernel, measure, RngStream(33), target=target, restarts=15, sweeps=25)
        monkeypatch.setattr(
            "isingring.functionals.dirichlet_form",
            lambda f, k, m: oracle.dense_dirichlet_form(f, k.matrix, m.probabilities),
        )
        dense = ratio_ascent_adversary(kernel, measure, RngStream(33), target=target, restarts=15, sweeps=25)
        np.testing.assert_array_equal(support, dense)

    def test_sweep_all_pass_and_covers_families(self, setup_n6):
        params, kernel, measure = setup_n6
        dec = symmetrize_and_decompose(kernel, measure)
        results = certification_sweep(kernel, measure, dec, 500, RngStream(32))
        assert all(r.passed for r in results)
        families = {r.family for r in results}
        assert {"random", "character", "indicator", "eigenfunction", "abs-eigenfunction", "adversarial"} <= families

    @pytest.mark.parametrize("n_random", [1, 257, 300, 513])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_row_blocks_match_one_whole_batch(self, setup_n6, seed, n_random):
        # no size is a multiple of CERTIFY_BLOCK; 257 and 513 leave one row past a block
        _, kernel, measure = setup_n6
        assert n_random % CERTIFY_BLOCK
        dec = symmetrize_and_decompose(kernel, measure)
        blocks = certification_sweep(kernel, measure, dec, n_random, RngStream(seed))
        whole = oracle.whole_batch_certification_sweep(kernel, measure, dec, n_random, RngStream(seed))
        assert blocks == whole

    def test_working_memory_does_not_grow_with_the_family(self):
        # peak above the memory the returned reports hold: the random family's temporaries
        params = ModelParams(8, 0.5)
        kernel = build_wolff_kernel(params)
        measure = gibbs_measure(params)
        dec = symmetrize_and_decompose(kernel, measure)
        certification_sweep(kernel, measure, dec, 1, RngStream(0))  # warm caches

        def working_peak(n_random):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                results = certification_sweep(kernel, measure, dec, n_random, RngStream(0))
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(results) == 2 * (n_random + 13)
            return (peak - kept) / 2**20, (kept - before) / 2**20

        small, _ = working_peak(256)
        large, kept = working_peak(4096)
        assert abs(large - small) < 1.0, (small, large, kept)

    def test_glauber_kernel_certifies_too(self):
        # the explicit constants bound the Wolff form, but certification is
        # generic: it must also hold for Glauber with its own spectral slack
        params = ModelParams(5, 0.3)
        kernel = build_glauber_kernel(params)
        measure = gibbs_measure(params)
        dec = symmetrize_and_decompose(kernel, measure)
        constant = 2.0 / dec.gap
        gen = np.random.default_rng(7)
        for _ in range(50):
            assert poincare_report(gen.standard_normal(32), kernel, measure, constant=constant).passed


@functools.lru_cache(maxsize=None)
def kernel_and_measure(kind, n, j):
    """A Wolff or Glauber kernel, or a Wolff kernel doctored to break detailed
    balance: its support entries are scaled by random factors, rows renormalised."""
    params = ModelParams(n, j)
    measure = gibbs_measure(params)
    if kind == "glauber":
        return build_glauber_kernel(params), measure
    kernel = build_wolff_kernel(params)
    if kind == "wolff":
        return kernel, measure
    matrix = kernel.matrix * np.random.default_rng(n).uniform(0.5, 1.5, kernel.matrix.shape)
    matrix /= matrix.sum(axis=1, keepdims=True)
    return TransitionKernel(params=params, kind="wolff", matrix=matrix), measure


class TestRatioAscentAdversary:
    @pytest.mark.parametrize("kind", ["wolff", "glauber"])
    @pytest.mark.parametrize("n, j", [(2, 0.5), (3, 0.0), (5, 0.3), (6, 1.0), (8, 0.25)])
    @pytest.mark.parametrize("target", ["lsi", "poincare"])
    def test_matches_full_evaluation_oracle(self, kind, n, j, target):
        # the search scores trials incrementally but must take the same moves
        # as the one that renormalises and re-evaluates every trial in full;
        # the Glauber kernel is lazy, so this also covers self-loops
        kernel, measure = kernel_and_measure(kind, n, j)
        for seed in range(3):
            fast = ratio_ascent_adversary(kernel, measure, RngStream(seed, 40), target=target, restarts=20, sweeps=30)
            full = oracle.full_ratio_ascent_adversary(kernel, measure, RngStream(seed, 40), target=target,
                                                      restarts=20, sweeps=30)
            np.testing.assert_array_equal(fast, full)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["wolff", "glauber", "doctored"]),
        n=st.integers(2, 6),
        j=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        delta=st.sampled_from([0.25, -0.25]),
    )
    def test_incremental_sums_match_full_recomputation(self, kind, n, j, seed, delta):
        kernel, measure = kernel_and_measure(kind, n, j)
        mu = measure.probabilities
        gen = np.random.default_rng(seed)
        vec = gen.standard_normal(kernel.size)
        x = int(gen.integers(kernel.size))
        sums = _score_sums(vec, dirichlet_form(vec, kernel, measure), mu)
        energy, mean, square, square_log = _moved_sums(sums, vec, x, delta, _pair_weights(kernel, measure), mu)
        moved = vec.copy()
        moved[x] += delta
        assert energy == pytest.approx(dirichlet_form(moved, kernel, measure), rel=1e-12)
        assert square_log - square * math.log(square) == pytest.approx(entropy(moved**2, measure), rel=1e-12)
        assert square - mean * mean == pytest.approx(oracle.variance(moved, measure), rel=1e-12)

    def test_doctored_kernel_is_not_reversible(self):
        kernel, measure = kernel_and_measure("doctored", 4, 0.3)
        assert check_detailed_balance(kernel, measure) > 1e-3

    @pytest.mark.parametrize("kwargs", [
        {"target": "LSI"},
        {"target": "entropy"},
        {"restarts": 0},
        {"restarts": -1},
        {"sweeps": -1},
    ])
    def test_rejects_bad_arguments_before_drawing(self, setup_n6, kwargs):
        _, kernel, measure = setup_n6
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        with pytest.raises(ValueError):
            ratio_ascent_adversary(kernel, measure, gen, **kwargs)
        assert gen.bit_generator.state == state

    def test_zero_sweeps_returns_a_normalised_restart(self, setup_n6):
        _, kernel, measure = setup_n6
        adv = ratio_ascent_adversary(kernel, measure, RngStream(34), restarts=3, sweeps=0)
        assert float(adv**2 @ measure.probabilities) == pytest.approx(1.0, rel=1e-12)


class TestErgodicBounds:
    def test_zero_coupling_trajectory_bound(self):
        avg, traj = ergodic_l2_bound(0.0, 12, 1000, f_norm=2.0)
        assert traj == pytest.approx(4.0 * 12 / 1000, rel=1e-14)
        assert avg == pytest.approx((2.0 / 1000) * (2.0 + 6.0), rel=1e-14)

    def test_decreases_like_one_over_m(self):
        _, t1 = ergodic_l2_bound(0.5, 8, 1000, 1.0)
        _, t2 = ergodic_l2_bound(0.5, 8, 2000, 1.0)
        assert t2 == pytest.approx(t1 / 2, rel=1e-12)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            ergodic_l2_bound(0.5, 8, 0, 1.0)
