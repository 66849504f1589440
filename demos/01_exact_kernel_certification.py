"""Exact transition kernels at small N.

Builds the dense Wolff and Glauber kernels on a short ring, prints a few
closed-form entries, and certifies row-stochasticity and detailed balance
against the exact Gibbs measure.
"""

import numpy as np

from isingring import (
    Configuration,
    FlipSet,
    ModelParams,
    build_glauber_kernel,
    build_wolff_kernel,
    check_detailed_balance,
    gibbs_measure,
    wolff_entry_from_boundary,
)

n, j = 6, 0.5
params = ModelParams(n, j)

print(f"ring of {n} sites, coupling {j}")
print()

sigma = Configuration.from_spins([1, 1, -1, 1, -1, -1])
print("cluster-flip probabilities out of", sigma.spins())
for sites in [(3,), (1, 2), (5, 6), (2,), (4,)]:
    flip = FlipSet.from_sites(sites, n)
    print(f"  flip {str(sites):10s} -> {wolff_entry_from_boundary(sigma, flip, params):.6f}")
print(f"  flip everything -> {wolff_entry_from_boundary(sigma, FlipSet.arc(1, n, n), params):.6f} (only aligned states can flip the whole ring)")
print()

wolff = build_wolff_kernel(params)
glauber = build_glauber_kernel(params)
mu = gibbs_measure(params)

print(f"Wolff kernel: {wolff.size}x{wolff.size}")
print(f"  row-sum error        {wolff.row_sum_error():.2e}")
print(f"  diagonal mass        {np.abs(np.diag(wolff.matrix)).max():.2e}  (a cluster flip always moves)")
print(f"  detailed balance     {check_detailed_balance(wolff, mu):.2e}")
print(f"Glauber kernel:")
print(f"  row-sum error        {glauber.row_sum_error():.2e}")
print(f"  lazy diagonal at 0-coupling would be 1/2; here min diag = {np.diag(glauber.matrix).min():.4f}")
print(f"  detailed balance     {check_detailed_balance(glauber, mu):.2e}")
print()
print("both chains are reversible for the same Gibbs measure: they sample the same model")
