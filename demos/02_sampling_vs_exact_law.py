"""Monte Carlo samplers versus the exact one-step law.

Runs a million single Wolff updates from each start state and compares the
observed target frequencies with the exact kernel row (z-scores), then lets
a long chain equilibrate and measures the total-variation distance of its
empirical distribution from the Gibbs measure.
"""

import numpy as np

from isingring import (
    InitialLaw,
    ModelParams,
    RngStream,
    WOLFF,
    build_wolff_kernel,
    empirical_vs_exact,
    gibbs_measure,
    iter_chain,
)

params = ModelParams(5, 0.5)
kernel = build_wolff_kernel(params)

print("one-step frequencies vs exact kernel rows (N=5, coupling 0.5)")
trials = 10**6
check = empirical_vs_exact(kernel, params, trials, RngStream(7))
print(f"  bulk sampler, {trials:>8d} trials/state: max |z| = {check.max_z:.2f} "
      f"over {check.tests} tested targets, off-support hits = {check.off_support}")
print()

m = 500_000
mu = gibbs_measure(params).probabilities
counts = np.zeros(kernel.size)
for bits in iter_chain(InitialLaw.all_plus(), m, WOLFF, params, RngStream(11)):
    counts[bits] += 1
tv = 0.5 * np.abs(counts / m - mu).sum()
print(f"long-run check: {m} Wolff steps from the all-plus state")
print(f"  total-variation distance to the Gibbs measure: {tv:.4f}")
print(f"  most and least likely states match:",
      int(counts.argmax()) in (0, kernel.size - 1), "(aligned states dominate at positive coupling)")
