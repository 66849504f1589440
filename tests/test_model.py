import math

import numpy as np
import pytest

from isingring import (
    INFINITE,
    Configuration,
    CriticalCouplingError,
    ModelParams,
    ResourceLimitError,
    derived_constants,
    gibbs_measure,
    sample_stationary_many,
    susceptibility_closed_form_bound,
    two_point_correlation,
)
from isingring.model import bond_sum_all_states

import _oracles as oracle

J_GRID = [0.0, 0.25, 0.5, 1.0, 2.0]


class TestConfiguration:
    def test_round_trip_small_sizes(self):
        for n in (2, 3, 5):
            for bits in range(1 << n):
                cfg = Configuration(bits, n)
                assert Configuration.from_spins(cfg.spins()).bits == bits

    def test_round_trip_n16_sample(self):
        gen = np.random.default_rng(0)
        for bits in gen.integers(0, 1 << 16, size=200):
            cfg = Configuration(int(bits), 16)
            spins = cfg.spins()
            assert all(s in (-1, 1) for s in spins)
            assert Configuration.from_spins(spins) == cfg

    def test_periodic_indexing(self):
        cfg = Configuration.from_spins([1, -1, 1])
        assert cfg.spin(4) == cfg.spin(1) == 1
        assert cfg.spin(0) == cfg.spin(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Configuration(8, 3)
        with pytest.raises(ValueError):
            Configuration.from_spins([1, 0, -1])


class TestHamiltonian:
    # the energy is -J times the bond sum, tabulated for every state by bond_sum_all_states
    def test_all_plus(self):
        assert bond_sum_all_states(4)[Configuration.all_plus(4).bits] == 4

    def test_alternating(self):
        assert bond_sum_all_states(4)[Configuration.from_spins([1, -1, 1, -1]).bits] == -4

    def test_three_site_example(self):
        # bonds (1,2)=+1, (2,3)=-1, (3,1)=-1 -> bond sum 1-1-1 = -1
        assert bond_sum_all_states(3)[Configuration.from_spins([1, 1, -1]).bits] == -1

    def test_matches_oracle_and_parity(self):
        for n in (2, 3, 6, 9):
            table = bond_sum_all_states(n)
            for spins in oracle.all_spin_tuples(n)[:: max(1, (1 << n) // 64)]:
                value = int(table[Configuration.from_spins(spins).bits])
                assert value == oracle.bond_sum(spins)
                assert -n <= value <= n
                assert (value - n) % 2 == 0


class TestPartitionFunction:
    # the brute-force sum over the package's bond-sum table, against the
    # transfer-matrix closed form lam_plus^N + lam_minus^N
    @staticmethod
    def transfer_matrix(n, j):
        return (math.exp(j) + math.exp(-j)) ** n + (math.exp(j) - math.exp(-j)) ** n

    def test_free_spins(self):
        assert oracle.partition_function_brute(ModelParams(3, 0.0)) == pytest.approx(8.0, rel=1e-14)

    def test_n2_doubled_bond(self):
        # the N=2 ring counts the (1,2) and (2,1) bonds separately
        expected = (math.e + 1 / math.e) ** 2 + (math.e - 1 / math.e) ** 2
        assert self.transfer_matrix(2, 1.0) == pytest.approx(expected, rel=1e-13)
        assert oracle.partition_function_brute(ModelParams(2, 1.0)) == pytest.approx(expected, rel=1e-13)

    def test_frozen_enumeration_value(self):
        # brute-force sum over all 256 states at N=8, J=0.5
        assert oracle.partition_function_brute(ModelParams(8, 0.5)) == pytest.approx(670.5988487454317, rel=1e-13)

    @pytest.mark.parametrize("j", J_GRID)
    @pytest.mark.parametrize("n", range(2, 13))
    def test_transfer_matrix_vs_brute(self, n, j):
        z_tm = self.transfer_matrix(n, j)
        z_brute = oracle.partition_function_brute(ModelParams(n, j))
        assert abs(z_tm - z_brute) / z_brute <= 1e-12

    def test_critical_rejected(self):
        # the Gibbs measure, and so the stationary sampler, does not exist at INFINITE
        with pytest.raises(CriticalCouplingError):
            sample_stationary_many(ModelParams(4, INFINITE), 1, np.random.default_rng(0))

    def test_brute_size_cap(self):
        with pytest.raises(ResourceLimitError):
            oracle.partition_function_brute(ModelParams(21, 0.5))


class TestGibbs:
    def test_uniform_at_zero_coupling(self):
        mu = gibbs_measure(ModelParams(5, 0.0)).probabilities
        for bits in (0, 7, 31):
            assert mu[bits] == pytest.approx(1 / 32, rel=1e-13)

    def test_all_plus_value(self):
        p = ModelParams(3, 1.0)
        lam_p = math.exp(1) + math.exp(-1)
        lam_m = math.exp(1) - math.exp(-1)
        expected = math.exp(3) / (lam_p**3 + lam_m**3)
        assert gibbs_measure(p).probabilities[Configuration.all_plus(3).bits] == pytest.approx(expected, rel=1e-13)

    def test_flip_symmetry(self):
        mu = gibbs_measure(ModelParams(8, 0.7)).probabilities
        gen = np.random.default_rng(3)
        for bits in gen.integers(0, 256, size=100):
            assert mu[bits] == pytest.approx(mu[bits ^ 255], rel=1e-13)

    @pytest.mark.parametrize("j", J_GRID)
    def test_measure_normalized_and_symmetric(self, j):
        mu = gibbs_measure(ModelParams(8, j))
        assert abs(mu.probabilities.sum() - 1.0) <= 1e-12
        flipped = mu.probabilities[::-1]  # negation reverses the binary order
        np.testing.assert_allclose(mu.probabilities, flipped, atol=1e-15)

    def test_measure_matches_oracle(self):
        mu = gibbs_measure(ModelParams(6, 0.75))
        table = oracle.brute_gibbs(6, 0.75)
        for spins, prob in table.items():
            bits = sum(1 << b for b, s in enumerate(spins) if s == 1)
            assert mu.probabilities[bits] == pytest.approx(prob, rel=1e-12)

    def test_critical_rejected(self):
        with pytest.raises(CriticalCouplingError):
            gibbs_measure(ModelParams(4, INFINITE))

    def test_weight_sum_overflow_raises_naming_the_coupling(self):
        # 2^4 e^{4J} is finite at J = 177 and overflows at J = 200, where the weights would read inf/inf = NaN
        mu = gibbs_measure(ModelParams(4, 177.0)).probabilities
        assert mu[0] == mu[15] == 0.5 and mu.sum() == 1.0
        with pytest.raises(ValueError, match=r"j_hat=200\.0, n=4"):
            gibbs_measure(ModelParams(4, 200.0))


class TestTwoPointCorrelation:
    def test_diagonal(self):
        assert two_point_correlation(3, 3, ModelParams(6, 0.8)) == 1.0

    def test_independent_at_zero(self):
        assert two_point_correlation(1, 4, ModelParams(6, 0.0)) == 0.0

    def test_closed_form_example(self):
        theta = math.tanh(1.0)
        expected = (theta + theta**3) / (1 + theta**4)
        assert two_point_correlation(1, 2, ModelParams(4, 1.0)) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", [3, 5, 8, 10])
    def test_matches_brute_force_all_pairs(self, n):
        j = 0.6
        p = ModelParams(n, j)
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                exact = two_point_correlation(i, k, p)
                brute = oracle.brute_pair_correlation(n, j, i, k)
                assert abs(exact - brute) <= 1e-12

    def test_symmetry_and_range_errors(self):
        p = ModelParams(7, 0.4)
        assert two_point_correlation(2, 6, p) == two_point_correlation(6, 2, p)
        with pytest.raises(ValueError):
            two_point_correlation(0, 3, p)
        with pytest.raises(ValueError):
            two_point_correlation(1, 8, p)


class TestSusceptibility:
    def test_zero_coupling(self):
        assert oracle.susceptibility_row_sum(1, ModelParams(9, 0.0)) == pytest.approx(1.0, rel=1e-14)

    def test_translation_invariance(self):
        p = ModelParams(10, 1.0)
        assert oracle.susceptibility_row_sum(1, p) == pytest.approx(oracle.susceptibility_row_sum(5, p), rel=1e-13)

    @pytest.mark.parametrize("j", J_GRID)
    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_bounds(self, n, j):
        p = ModelParams(n, j)
        value = oracle.susceptibility_row_sum(1, p)
        assert value == pytest.approx(susceptibility_closed_form_bound(p), rel=0, abs=1e-12)
        assert value <= math.exp(2 * j) + 1e-12

    @pytest.mark.parametrize("j", [10.0, 15.0, 18.7, 19.0, 30.0])
    def test_closed_form_at_large_coupling_stays_at_most_n(self, j):
        # tanh J rounds to 1 here; the row sum tends to N from below
        value = susceptibility_closed_form_bound(ModelParams(8, j))
        assert math.isfinite(value) and 7.9 < value <= 8 * (1 + 1e-15)

    def test_brute_force_cross_check(self):
        p = ModelParams(8, 0.5)
        brute = sum(oracle.brute_pair_correlation(8, 0.5, 1, k) for k in range(1, 9))
        assert oracle.susceptibility_row_sum(1, p) == pytest.approx(brute, abs=1e-12)
        assert brute <= math.e


class TestDerivedConstants:
    @pytest.mark.parametrize("j", J_GRID)
    def test_complementary_probabilities(self, j):
        c = derived_constants(ModelParams(6, j))
        assert c.bond_prob + c.bond_miss == pytest.approx(1.0, abs=1e-15)
        assert 0.0 <= c.tanh_j < 1.0

    def test_endpoints(self):
        zero = derived_constants(ModelParams(4, 0.0))
        assert zero.tanh_j == 0.0
        crit = derived_constants(ModelParams(4, INFINITE))
        assert crit.bond_prob == 1.0 and crit.bond_miss == 0.0
        assert crit.tanh_j == 1.0

    def test_huge_coupling_has_infinite_correlation_length(self):
        # tanh J rounds to 1.0 from J of about 19 on
        c = derived_constants(ModelParams(4, 30.0))
        assert c.tanh_j == 1.0
        assert c.bond_miss == math.exp(-60.0) and c.bond_prob == 1.0

    def test_huge_ring_constants_stay_bounded(self):
        # sampling at n in the thousands only needs the bounded constants
        c = derived_constants(ModelParams(1000, 1.0))
        assert 0.0 < c.tanh_j < 1.0
        assert c.bond_prob + c.bond_miss == 1.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(1, 0.5)
        with pytest.raises(ValueError):
            ModelParams(4, -0.1)
        with pytest.raises(ValueError):
            ModelParams(4, float("nan"))
        assert ModelParams(4, INFINITE).is_critical
