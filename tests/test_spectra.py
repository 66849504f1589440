import math

import numpy as np
import pytest

from isingring import (
    GLAUBER,
    INFINITE,
    WOLFF,
    Configuration,
    CovarianceAccumulator,
    CriticalCouplingError,
    ExperimentCell,
    ModelParams,
    RngStream,
    decompose,
    eigenvalues_symmetric,
    evaluate_cell,
    exact_limit_covariance,
    gershgorin_norm,
    iter_chain,
    khat_norm_bound,
    run_covariance_chain,
    subcritical_norm_bound,
    two_point_correlation,
)
from isingring.dynamics import _uniform_states
from isingring.cli import CSV_COLUMNS, result_row
from isingring import spectra
from isingring.dynamics import decode_states
from isingring.spectra import ACCUMULATE_BLOCK

import _oracles as oracle


class TestEnsemble:
    def test_single_column(self):
        params = ModelParams(9, 0.5)
        traj = np.fromiter(iter_chain("all-plus", 1, WOLFF, params, RngStream(1)), np.uint64, count=1)
        ens = oracle.build_ensemble(traj, 9)
        assert ens.x.shape == (9, 1)
        assert np.linalg.norm(ens.x[:, 0]) == pytest.approx(1.0, rel=1e-14)

    def test_correlation_matrix_normalization(self):
        params = ModelParams(6, 0.4)
        traj = np.fromiter(iter_chain("uniform", 40, WOLFF, params, RngStream(2)), np.uint64, count=40)
        ens = oracle.build_ensemble(traj, 6)
        corr = oracle.correlation_matrix(ens)
        assert np.trace(corr) == pytest.approx(1.0, rel=1e-13)
        np.testing.assert_allclose(np.diag(corr), 1.0 / 40, atol=1e-15)

    def test_covariance_and_correlation_share_spectrum(self):
        params = ModelParams(6, 0.4)
        traj = np.fromiter(iter_chain("uniform", 12, WOLFF, params, RngStream(3)), np.uint64, count=12)
        ens = oracle.build_ensemble(traj, 6)
        ev_k = eigenvalues_symmetric(oracle.covariance_matrix(ens))
        ev_c = eigenvalues_symmetric(oracle.correlation_matrix(ens))
        nonzero_k = ev_k[ev_k > 1e-12]
        nonzero_c = ev_c[ev_c > 1e-12]
        np.testing.assert_allclose(nonzero_k, nonzero_c[: len(nonzero_k)], atol=1e-10)


class TestCovariance:
    def test_rank_one_when_all_columns_equal(self):
        n = 7
        spins = np.ones((30, n), dtype=np.int8)
        acc = CovarianceAccumulator(n)
        acc.add_spins(spins)
        k = acc.matrix()
        np.testing.assert_allclose(k, np.full((n, n), 1.0 / n), atol=1e-15)
        values = eigenvalues_symmetric(k)
        assert values[0] == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(values[1:], 0.0, atol=1e-12)

    def test_sign_cancellation(self):
        n = 5
        row = np.array([1, -1, 1, 1, -1], dtype=np.int8)
        acc1 = CovarianceAccumulator(n)
        acc1.add_spins(row[None, :])
        acc2 = CovarianceAccumulator(n)
        acc2.add_spins(np.vstack([row, -row]))
        np.testing.assert_allclose(acc1.matrix(), acc2.matrix(), atol=1e-15)

    def test_trace_one_and_psd(self):
        gen = np.random.default_rng(4)
        n = 8
        acc = CovarianceAccumulator(n)
        acc.add_spins(np.where(gen.random((500, n)) < 0.5, 1, -1).astype(np.int8))
        k = acc.matrix()
        assert np.trace(k) == pytest.approx(1.0, abs=1e-12)
        assert eigenvalues_symmetric(k)[-1] >= -1e-10

    def test_iid_offdiagonal_scale(self):
        gen = np.random.default_rng(5)
        n, m = 8, 100000
        acc = CovarianceAccumulator(n)
        acc.add_spins(np.where(gen.random((m, n)) < 0.5, 1, -1).astype(np.int8))
        k = acc.matrix()
        off = k[~np.eye(n, dtype=bool)]
        assert np.abs(off).max() <= 4.0 / (n * math.sqrt(m))
        # entrywise bound: every entry averages +-1/n terms
        assert np.abs(k).max() <= 1.0 / n + 1e-15

    def test_merge_is_associative_sum(self):
        gen = np.random.default_rng(6)
        blocks = [np.where(gen.random((100, 4)) < 0.5, 1, -1).astype(np.int8) for _ in range(3)]
        whole = CovarianceAccumulator(4)
        for b in blocks:
            whole.add_spins(b)
        partials = []
        for b in blocks:
            acc = CovarianceAccumulator(4)
            acc.add_spins(b)
            partials.append(acc)
        merged = partials[0]
        merged.merge(partials[1])
        merged.merge(partials[2])
        np.testing.assert_allclose(merged.matrix(), whole.matrix(), atol=1e-15)


class TestExactAccumulation:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_decode_matches_the_broadcast_decoder(self, n):
        gen = np.random.default_rng(n)
        words = gen.integers(0, 2**64, size=301, dtype=np.uint64)
        words[:4] = [0, 2**64 - 1, 1, 2**63]
        states = words >> np.uint64(64 - n)
        for layout in (states, states[::3], states.astype(">u8"), states.astype(">u8")[1::2], states[:0]):
            got = decode_states(layout, n)
            assert got.dtype == np.int8
            assert np.array_equal(got, oracle.broadcast_decode_states(layout, n))

    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 8, 20, 701])
    def test_float32_chunks_equal_the_float64_product(self, monkeypatch, rows):
        # every chunk boundary: 7 rows per product, and a fresh accumulator per block size
        gen = np.random.default_rng(rows)
        monkeypatch.setattr(spectra, "SPIN_PRODUCT_ROWS", 7)
        for n in (1, 5, 48, 64):
            blocks = [np.where(gen.random((r, n)) < 0.5, 1, -1).astype(np.int8) for r in (rows, rows // 2 + 3)]
            acc = CovarianceAccumulator(n)
            total = np.zeros((n, n))
            for b in blocks:
                acc.add_spins(b)
                total += b.astype(np.float64).T @ b.astype(np.float64)
            assert np.array_equal(acc.total, total)
            assert acc.count == sum(len(b) for b in blocks)

    def test_an_unpatched_chunk_equals_the_float64_product(self):
        # one float32 product of 100000 rows, far more than an accumulation block
        gen = np.random.default_rng(7)
        block = np.where(gen.random((100_000, 48)) < 0.7, 1, -1).astype(np.int8)
        acc = CovarianceAccumulator(48)
        acc.add_spins(block)
        wide = block.astype(np.float64)
        assert np.array_equal(acc.total, wide.T @ wide)


class TestEigenAndNorm:
    def test_rank_one_projector(self):
        n = 6
        k = np.full((n, n), 1.0 / n)
        values = eigenvalues_symmetric(k)
        assert values[0] == pytest.approx(1.0, rel=1e-13)
        np.testing.assert_allclose(values[1:], 0.0, atol=1e-13)
        assert gershgorin_norm(k) == pytest.approx(1.0, rel=1e-14)

    def test_identity_over_n(self):
        k = np.eye(5) / 5
        assert gershgorin_norm(k) == pytest.approx(0.2, rel=1e-15)
        np.testing.assert_allclose(eigenvalues_symmetric(k), 0.2, atol=1e-15)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eigenvalues_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_gershgorin_dominates_top_eigenvalue(self):
        gen = np.random.default_rng(7)
        for _ in range(20):
            a = gen.standard_normal((6, 6))
            k = a @ a.T / 6
            assert eigenvalues_symmetric(k)[0] <= gershgorin_norm(k) + 1e-12

    def test_top_k(self):
        k = np.diag([0.5, 0.3, 0.2])
        np.testing.assert_allclose(eigenvalues_symmetric(k, 2), [0.5, 0.3])

    def test_spectrum_report_invariants(self):
        # for a PSD matrix the spectral radius is the top eigenvalue, at most
        # the Gershgorin norm, and the eigenvalues sum to the trace
        gen = np.random.default_rng(9)
        for _ in range(10):
            a = gen.standard_normal((6, 60))
            k = a @ a.T / 60
            eigenvalues = eigenvalues_symmetric(k)
            spectral_radius = float(np.abs(eigenvalues).max())
            assert spectral_radius == pytest.approx(float(eigenvalues[0]), rel=1e-12)
            assert spectral_radius <= gershgorin_norm(k) + 1e-12
            assert eigenvalues.sum() == pytest.approx(np.trace(k), rel=1e-12)
            assert (np.diff(eigenvalues) <= 1e-12).all()


class TestExactLimit:
    def test_zero_coupling_identity(self):
        k_hat = exact_limit_covariance(ModelParams(6, 0.0))
        np.testing.assert_array_equal(k_hat, np.eye(6) / 6)

    def test_matches_pair_correlations(self):
        params = ModelParams(8, 0.5)
        k_hat = exact_limit_covariance(params)
        for i in range(8):
            for j in range(8):
                expected = two_point_correlation(i + 1, j + 1, params) / 8
                assert k_hat[i, j] == pytest.approx(expected, rel=1e-13)
        assert np.trace(k_hat) == pytest.approx(1.0, rel=1e-13)
        assert (k_hat >= 0).all()
        assert eigenvalues_symmetric(k_hat)[-1] >= -1e-12

    @pytest.mark.parametrize("n", [2, 4, 16, 64, 256])
    @pytest.mark.parametrize("j", [0.0, 0.5, 1.0, 2.0])
    def test_gershgorin_bound_tight(self, n, j):
        params = ModelParams(n, j)
        k_hat = exact_limit_covariance(params)
        assert gershgorin_norm(k_hat) <= khat_norm_bound(params) + 1e-12

    def test_critical_rejected(self):
        with pytest.raises(CriticalCouplingError):
            exact_limit_covariance(ModelParams(4, INFINITE))


class TestBounds:
    def test_zero_coupling_deterministic_bound(self):
        det, _ = subcritical_norm_bound(ModelParams(10, 0.0), 1000)
        assert det == pytest.approx(0.1, rel=1e-14)

    def test_vanishes_along_cubic_schedule(self):
        values = []
        for n in (8, 16, 32, 64, 128):
            _, stoch = subcritical_norm_bound(ModelParams(n, 0.5), n**3)
            values.append(stoch)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_zero_expectation_identity(self):
        # E[<sigma, x>^2] = ||x||^2 under the product measure, brute force
        gen = np.random.default_rng(8)
        for n in (3, 6, 10):
            x = gen.standard_normal(n)
            value = oracle.brute_expectation(n, 0.0, lambda s: sum(xi * si for xi, si in zip(x, s)) ** 2)
            assert value == pytest.approx(float(x @ x), rel=1e-10)


class TestCovarianceRuns:
    def test_glauber_runs_too(self):
        params = ModelParams(5, 0.4)
        run = run_covariance_chain(params, 5000, GLAUBER, RngStream(10))
        assert np.trace(run.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_critical_run_hits_and_condenses(self):
        # the run's uniform start is the first draw of its generator
        params = ModelParams(8, INFINITE)
        initial = Configuration(_uniform_states(8, 1, RngStream(12).generator())[0], 8)
        run = run_covariance_chain(params, 800, WOLFF, RngStream(12))
        ctilde = decompose(initial).plus_count
        assert run.initial_plus_components == ctilde
        assert run.hit_index == (1 if initial.is_aligned else ctilde + 1)
        values = eigenvalues_symmetric(run.matrix, 2)
        assert values[0] >= 1.0 - 8 / 800 - 1e-12
        assert values[1] <= 8 / 800 + 1e-12

    def test_batch_bookkeeping(self):
        params = ModelParams(4, 0.3)
        run = run_covariance_chain(params, 2000, WOLFF, RngStream(13))
        assert run.batch_matrices.shape[0] == 20
        np.testing.assert_allclose(run.batch_matrices.mean(axis=0), run.matrix, atol=1e-12)
        assert run.norm1_batch_se >= 0.0

    @pytest.mark.parametrize("kind", [WOLFF, GLAUBER])
    @pytest.mark.parametrize("n", [4, 16, 24])
    def test_streaming_matches_the_stored_ensemble(self, n, kind):
        # both paths draw the stationary start, then step the same chain; m crosses
        # an accumulation block
        params = ModelParams(n, 0.5)
        m = 10007
        assert m > ACCUMULATE_BLOCK
        run = run_covariance_chain(params, m, kind, RngStream(15, n))
        traj = np.fromiter(iter_chain("stationary", m, kind, params, RngStream(15, n)), np.uint64, count=m)
        np.testing.assert_allclose(run.matrix, oracle.covariance_matrix(oracle.build_ensemble(traj, n)), rtol=0, atol=1e-13)

    def test_simulated_covariance_matches_exact_limit_entrywise(self):
        params = ModelParams(8, 0.5)
        run = run_covariance_chain(params, 200000, WOLFF, RngStream(14))
        k_hat = exact_limit_covariance(params)
        assert np.all(np.abs(run.matrix - k_hat) <= 4.0 * run.entry_batch_se() + 1e-9)


def run_cell(cell, seed):
    """One grid unit on stream 0, as the first unit of an ``isingring spectra`` run."""
    run = run_covariance_chain(ModelParams(cell.n, cell.j_hat), cell.m, WOLFF, RngStream(seed, 0))
    return evaluate_cell(cell, run, seed)


class TestCondensationGrid:
    def test_zero_coupling_cell(self):
        cell = ExperimentCell(n=8, j_hat=0.0, m=200000)
        result = run_cell(cell, seed=21)
        assert result.pass_41 and result.pass_42 and result.pass_43
        assert abs(result.lambda1 - 1 / 8) <= 0.01

    def test_critical_cell(self):
        cell = ExperimentCell(n=16, j_hat=INFINITE, m=1600)
        result = run_cell(cell, seed=22)
        assert result.pass_41
        assert result.lambda1 >= 1 - 16 / 1600 - 1e-12
        assert result.lambda2 <= 16 / 1600 + 1e-12
        assert math.isnan(result.thm43_bound)

    def test_subcritical_cell_and_rows(self):
        cell = ExperimentCell(n=8, j_hat=0.5, m=8**3)
        results = [run_cell(cell, seed) for seed in (5, 6)]
        assert len(results) == 2
        assert all(r.pass_43 for r in results)
        for r in results:
            row = result_row(r)
            assert len(row) == len(CSV_COLUMNS)
            assert row[1] == "0.5"
