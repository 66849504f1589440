"""Functional inequalities for the cluster dynamics, certified numerically.

The explicit constants

    C_LS(j, N) = e^{2j} (e^{4j}+1) (1/2 + j e^{(e^{2j}-1)/2}) N,  C_PI = C_LS/2

bound the entropy and variance of arbitrary test functions by the Wolff
Dirichlet form. At j=0 the chain is the uniform single-flip walk on the
hypercube and C_LS collapses to the classical value N. This script sweeps
thousands of random and structured functions and reports the worst slack,
then compares 1/(spectral gap) with C_PI.
"""

import numpy as np

from isingring import (
    ModelParams,
    RngStream,
    build_wolff_kernel,
    certification_sweep,
    ergodic_l2_bound,
    gibbs_measure,
    lsi_constant_bound,
    poincare_constant_bound,
    symmetrize_and_decompose,
)

print("explicit constants (N = 8):")
for j in (0.0, 0.25, 0.5, 1.0):
    print(f"  j={j:4.2f}:  C_LS = {lsi_constant_bound(j, 8):12.3f}   C_PI = {poincare_constant_bound(j, 8):12.3f}")
print("  (j=0 gives exactly N: the hypercube random-walk constant)")
print()

for j in (0.0, 0.5, 1.0):
    params = ModelParams(7, j)
    kernel = build_wolff_kernel(params)
    measure = gibbs_measure(params)
    dec = symmetrize_and_decompose(kernel, measure)
    results = certification_sweep(kernel, measure, dec, n_random=2000, rng=RngStream(5))
    worst = min(r.slack for r in results)
    gap = dec.gap
    print(f"j={j}: {len(results)} certifications, worst slack {worst:+.3e}, "
          f"1/gap = {1/gap:8.3f} <= C_PI = {poincare_constant_bound(j, 7):10.3f}")
print()

avg_bound, traj_bound = ergodic_l2_bound(0.5, 8, 100_000, f_norm=1.0)
print("ergodic-average error bounds at N=8, j=0.5, M=1e5, ||f||=1:")
print(f"  averaged-operator bound: {avg_bound:.3e}")
print(f"  stationary trajectory bound: {traj_bound:.3e}")
print("  (the acceptance suite verifies 200 replicas land far below the trajectory bound)")
