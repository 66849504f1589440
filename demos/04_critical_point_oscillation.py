"""Zero-temperature (critical) behavior: absorption into the aligned pair.

At infinite coupling every cluster update flips one whole aligned component,
so the number of components drops by one per step until the chain reaches
{all-minus, all-plus}, after which it alternates deterministically. The
first aligned index is therefore the initial plus-component count + 1, and
the sample covariance matrix condenses: its top eigenvalue climbs to 1.
"""

import numpy as np

from isingring import (
    Configuration,
    INFINITE,
    InitialLaw,
    ModelParams,
    RngStream,
    WOLFF,
    decompose,
    eigenvalues_symmetric,
    hitting_time_aligned,
    run_chain,
    run_covariance_chain,
)

n = 16
params = ModelParams(n, INFINITE)
gen = RngStream(3).generator()

print("hitting the aligned pair (N=16, critical coupling):")
print("  components  hit index (10 random starts each)")
for _ in range(5):
    initial = Configuration(int(gen.integers(0, 1 << n)), n)
    ctilde = decompose(initial).plus_count
    hits = {hitting_time_aligned(initial, RngStream(9, s)) for s in range(10)}
    print(f"  {ctilde:10d}  {sorted(hits)}")
print("  (the hit index is deterministic: one component pair merges per step)")
print()

states = run_chain(InitialLaw.all_plus(), 6, WOLFF, params, RngStream(1))
print("from all-plus the chain alternates:", ["+1" if b else "-1" for b in (states == states[0])])
print()

print("covariance condensation: lambda_1 -> 1 as the sample count grows")
for scale in (10, 100, 1000):
    run = run_covariance_chain(params, scale * n, WOLFF, RngStream(17))
    lam = eigenvalues_symmetric(run.matrix, 2)
    print(f"  M = {scale*n:6d}: lambda1 = {lam[0]:.5f}  lambda2 = {lam[1]:.5f}  "
          f"(bounds: >= {1 - n/(scale*n):.5f}, <= {n/(scale*n):.5f})")
