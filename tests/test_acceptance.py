"""Acceptance suite: one test per headline guarantee, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Covers: exact-kernel certification (row sums, zero diagonal, detailed
balance), sampler-vs-formula agreement at 10^6 one-step trials per state,
the hypercube reduction at zero coupling, log-Sobolev/Poincare certification
over random and structured functions, the stationary ergodic-average error
bound, critical-point hitting/oscillation and covariance condensation, the
subcritical decay of the covariance Gershgorin norm, and the
Glauber-vs-Wolff single-flip comparison inequality.
"""

import math
import time

import numpy as np
import pytest

from isingring import (
    GLAUBER,
    INFINITE,
    WOLFF,
    Configuration,
    ModelParams,
    RngStream,
    build_glauber_kernel,
    build_wolff_kernel,
    certification_sweep,
    check_detailed_balance,
    decode_states,
    decompose,
    derived_constants,
    eigenvalues_symmetric,
    empirical_vs_exact,
    exact_limit_covariance,
    gershgorin_norm,
    gibbs_measure,
    iter_chain,
    khat_norm_bound,
    lsi_constant_bound,
    poincare_constant_bound,
    run_covariance_chain,
    sample_stationary_many,
    subcritical_norm_bound,
    symmetrize_and_decompose,
    two_point_correlation,
)
from isingring.dynamics import _arc_draws, _arc_flip_masks, _arc_runs
from isingring.functionals import SLACK_TOLERANCE, ratio_ascent_adversary, certify_lsi

import _oracles as oracle

J_GRID = [0.0, 0.25, 0.5, 1.0, 2.0]
SEED = 31415926


def report(number: int, name: str, passed: bool, details: str):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} ({details})"
    print(line)
    assert passed, line


def test_criterion_1_exact_kernel_certification():
    t0 = time.monotonic()
    worst_row = worst_diag = worst_db = 0.0
    for n in range(2, 11):
        for j in J_GRID:
            params = ModelParams(n, j)
            kernel = build_wolff_kernel(params)
            measure = gibbs_measure(params)
            worst_row = max(worst_row, kernel.row_sum_error())
            worst_diag = max(worst_diag, float(np.abs(np.diag(kernel.matrix)).max()))
            worst_db = max(worst_db, check_detailed_balance(kernel, measure))
    elapsed = time.monotonic() - t0
    ok = worst_row <= 1e-12 and worst_diag == 0.0 and worst_db <= 1e-12 and elapsed < 60.0
    report(1, "exact-kernel certification", ok,
           f"N=2..10 x 5 couplings: row-sum err {worst_row:.2e}, diag {worst_diag:.1e}, "
           f"detailed-balance violation {worst_db:.2e}, {elapsed:.1f}s")


def test_criterion_2_sampler_formula_agreement():
    t0 = time.monotonic()
    worst = 0.0
    off_support = 0
    for idx, j in enumerate([0.25, 1.0]):
        params = ModelParams(6, j)
        kernel = build_wolff_kernel(params)
        check = empirical_vs_exact(kernel, params, 10**6, RngStream(SEED, idx))
        worst = max(worst, check.max_z)
        off_support += check.off_support
    elapsed = time.monotonic() - t0
    ok = worst <= 4.0 and off_support == 0 and elapsed < 300.0
    report(2, "sampler-formula agreement", ok,
           f"N=6, 1e6 one-step trials per start state: max |z| {worst:.2f}, "
           f"off-support hits {off_support}, {elapsed:.1f}s")


def test_criterion_3_hypercube_reduction():
    worst_spec = worst_gap = 0.0
    exact_kernel = True
    exact_constant = True
    for n in range(2, 11):
        params = ModelParams(n, 0.0)
        kernel = build_wolff_kernel(params)
        uniform = np.zeros_like(kernel.matrix)
        states = np.arange(kernel.size)
        for b in range(n):
            uniform[states, states ^ (1 << b)] = 1.0 / n
        exact_kernel = exact_kernel and np.array_equal(kernel.matrix, uniform)
        dec = symmetrize_and_decompose(kernel, gibbs_measure(params))
        worst_spec = max(worst_spec, float(np.abs(dec.eigenvalues - oracle.hypercube_walk_spectrum(n)).max()))
        worst_gap = max(worst_gap, abs(dec.gap - 2.0 / n))
        exact_constant = exact_constant and lsi_constant_bound(0.0, n) == float(n)
    ok = exact_kernel and worst_spec <= 1e-10 and worst_gap <= 1e-10 and exact_constant
    report(3, "hypercube reduction at zero coupling", ok,
           f"kernel equality exact: {exact_kernel}, spectrum err {worst_spec:.2e}, "
           f"gap err {worst_gap:.2e}, constant == N: {exact_constant}")


def test_criterion_4_functional_inequalities():
    t0 = time.monotonic()
    worst_slack = math.inf
    spectral_ok = True
    count = 0
    for n in range(2, 9):
        for j in J_GRID:
            params = ModelParams(n, j)
            kernel = build_wolff_kernel(params)
            measure = gibbs_measure(params)
            dec = symmetrize_and_decompose(kernel, measure)
            results = certification_sweep(kernel, measure, dec, 10**4, RngStream(SEED, 100 + count))
            count += 1
            worst_slack = min(worst_slack, min(r.slack for r in results))
            if any(not r.passed for r in results):
                report(4, "functional inequalities", False, f"violation at n={n} j={j}")
            spectral_ok = spectral_ok and (1.0 / dec.gap <= poincare_constant_bound(j, n) * (1 + 1e-9))
    # full-strength adversarial search at the largest size
    for j in J_GRID:
        params = ModelParams(8, j)
        kernel = build_wolff_kernel(params)
        measure = gibbs_measure(params)
        adv = ratio_ascent_adversary(kernel, measure, RngStream(SEED, 999), target="lsi",
                                     restarts=100, sweeps=40)
        r = certify_lsi(adv, kernel, measure, constant=lsi_constant_bound(j, 8))
        worst_slack = min(worst_slack, r.slack)
    elapsed = time.monotonic() - t0
    ok = worst_slack >= -SLACK_TOLERANCE and spectral_ok and elapsed < 600.0
    report(4, "functional inequalities", ok,
           f"N<=8 grid, 1e4 random + structured + adversarial functions: worst slack {worst_slack:.3e}, "
           f"1/gap <= C_PI everywhere: {spectral_ok}, {elapsed:.1f}s")


def test_criterion_5_ergodic_average_bound():
    n, j, m, replicas = 8, 0.5, 10**5, 200
    params = ModelParams(n, j)
    exact = two_point_correlation(1, 2, params)
    _, traj_bound = (None, lsi_constant_bound(j, n) / m)  # ||f||_L2^2 = 1 for f = s1*s2
    gen = RngStream(SEED, 5).generator()
    states = np.array(sample_stationary_many(params, replicas, gen), dtype=np.uint64)
    bond_prob = derived_constants(params).bond_prob
    one = np.uint64(1)
    unlike = (states ^ (states >> one)) & one  # per replica, the states with s1 != s2 (s1*s2 = -1)
    # one draw block per step, stepped by the arc law's uint64 twin on the packed states
    for _ in range(m - 1):
        seeds, g_right, g_left = _arc_draws(gen, replicas, n, bond_prob)
        states ^= _arc_flip_masks(seeds, g_right, g_left, *_arc_runs(states, seeds, n), n)
        unlike += (states ^ (states >> one)) & one
    sums = m - 2.0 * unlike  # sum of s1*s2 over the m states, an exact integer as before
    deviations = sums / m - exact
    mse = float((deviations**2).mean())
    ok = mse <= traj_bound
    report(5, "ergodic-average bound", ok,
           f"200 stationary replicas, N=8, M=1e5, f=s1*s2: mean sq. error {mse:.3e} "
           f"<= trajectory bound {traj_bound:.3e}")


def test_criterion_6_critical_point_spectra():
    ok = True
    details = []
    for n in (8, 16, 32):
        params = ModelParams(n, INFINITE)
        m = 100 * n
        full = (1 << n) - 1
        gen = RngStream(SEED, 6000 + n).generator()
        for rep in range(50):
            initial = Configuration(int(gen.integers(0, 1 << n)), n)
            ctilde = decompose(initial).plus_count
            chain = iter_chain(initial.bits, m, WOLFF, params, RngStream(SEED, 6100 + n * 100 + rep))
            traj = np.fromiter(chain, np.uint64, count=m)
            hit = 1 + next(k for k, bits in enumerate(traj) if bits in (0, full))
            ok = ok and hit == (1 if initial.is_aligned else ctilde + 1)
            post = traj[hit - 1 :]
            ok = ok and all(post[k + 1] == post[k] ^ full for k in range(len(post) - 1))
            spins = decode_states(traj, n).astype(np.float64)
            k_matrix = spins.T @ spins / (m * n)
            values = eigenvalues_symmetric(k_matrix, 2)
            ok = ok and values[0] >= 1.0 - n / m - 1e-12
            ok = ok and values[1] <= n / m + 1e-12
        # exact alternation over a longer window: 1000 steps past the hit
        initial = Configuration(int(gen.integers(0, 1 << n)), n)
        chain = iter_chain(initial.bits, n + 1000, WOLFF, params, RngStream(SEED, 6500 + n))
        traj = np.fromiter(chain, np.uint64, count=n + 1000)
        hit_at = next(k for k, bits in enumerate(traj) if bits in (0, full))
        post = traj[hit_at:]
        ok = ok and all(post[k + 1] == post[k] ^ full for k in range(len(post) - 1))
        # lambda1 climbs toward 1 along growing M
        lams = []
        for scale in (10, 100, 1000):
            run = run_covariance_chain(params, scale * n, WOLFF, RngStream(SEED, 6900 + n + scale))
            lams.append(float(eigenvalues_symmetric(run.matrix, 1)[0]))
            ok = ok and lams[-1] >= 1.0 - n / (scale * n) - 1e-12
        ok = ok and lams[0] < lams[1] < lams[2] <= 1.0 + 1e-12
        details.append(f"n={n}: lambda1(M=10N..1000N) {lams[0]:.4f}->{lams[2]:.5f}")
    report(6, "critical-point spectra", ok, "50 initials per size, hit/alternation/spectra all verified; " + "; ".join(details))


def test_criterion_7_subcritical_decay():
    t0 = time.monotonic()
    # fixed point j = 0: lambda1 -> 1/N
    run = run_covariance_chain(ModelParams(16, 0.0), 10**6, WOLFF, RngStream(SEED, 70))
    lam1 = float(eigenvalues_symmetric(run.matrix, 1)[0])
    fixed_ok = abs(lam1 - 1.0 / 16.0) <= 0.01

    # norm decay along N with M = N^3
    monotone_ok = True
    bound_ok = True
    norm_details = []
    for j in (0.5, 1.0):
        stats = []
        for idx, n in enumerate((8, 16, 32, 64)):
            params = ModelParams(n, j)
            m = n**3
            run = run_covariance_chain(params, m, WOLFF, RngStream(SEED, 7100 + idx + int(10 * j)))
            _, stoch_bound = subcritical_norm_bound(params, m)
            bound_ok = bound_ok and run.norm1**2 <= stoch_bound + 1e-12
            stats.append((run.norm1_batch_mean, run.norm1_batch_se))
        for (m1, s1), (m2, s2) in zip(stats, stats[1:]):
            monotone_ok = monotone_ok and m2 <= m1 + 2.0 * math.hypot(s1, s2)
        norm_details.append(f"j={j}: " + "->".join(f"{m:.4f}" for m, _ in stats))

    # exact limit covariance satisfies its Gershgorin bound up to N = 256
    khat_ok = True
    for n in (2, 3, 4, 8, 16, 32, 64, 128, 256):
        for j in J_GRID:
            params = ModelParams(n, j)
            khat_ok = khat_ok and gershgorin_norm(exact_limit_covariance(params)) <= khat_norm_bound(params) + 1e-12
    elapsed = time.monotonic() - t0
    ok = fixed_ok and monotone_ok and bound_ok and khat_ok and elapsed < 1800.0
    report(7, "subcritical decay", ok,
           f"lambda1(j=0,N=16,M=1e6)={lam1:.4f}; " + "; ".join(norm_details)
           + f"; limit-covariance Gershgorin <= bound to 1e-12 up to N=256: {khat_ok}, {elapsed:.1f}s")


def test_criterion_8_comparison_inequality():
    worst = -math.inf
    for n in range(2, 11):
        for j in J_GRID:
            params = ModelParams(n, j)
            wolff = build_wolff_kernel(params)
            glauber = build_glauber_kernel(params)
            factor = 0.5 * math.exp(2.0 * j)
            states = np.arange(wolff.size)
            for b in range(n):
                targets = states ^ (1 << b)
                excess = glauber.matrix[states, targets] - factor * wolff.matrix[states, targets]
                worst = max(worst, float(excess.max()))
    ok = worst <= 1e-15
    report(8, "Glauber-Wolff comparison inequality", ok,
           f"every single-flip rate over N=2..10 x couplings: max excess {worst:.2e}")
