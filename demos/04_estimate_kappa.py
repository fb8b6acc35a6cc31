"""Estimate the bracketing weight and check it against a brute force.

The weight kappa places the mid treatment's mean on the line between
the broad-anchor and narrow-anchor means: 0 means fully broad, 1 fully
narrow, and values beyond 1 mean the mid cell overshoots the narrow
anchor.

Run: python3 demos/04_estimate_kappa.py
"""
import numpy as np

from bracketlab import (
    MixtureComposition,
    PopulationSpec,
    Scenario,
    Treatment,
    cell_wages,
    kappa_profile_oracle,
    mwu_test,
    nls_kappa,
    power_two_sample,
    simulate_dataset,
)

# Simulate a population whose true composition we know, then recover it.
for share in (1.0, 0.0, 0.7):
    spec = PopulationSpec(
        counts={Treatment.BROAD: 400, Treatment.NARROW: 400, Treatment.LOW: 400},
        seed=11,
        composition=MixtureComposition(share),
        tremble=0.0,
        gamma_bounds=(1.8, 2.2),
    )
    fit = nls_kappa(simulate_dataset(spec))
    oracle = kappa_profile_oracle(simulate_dataset(spec))
    print(
        f"true narrow share {share:.1f}: kappa = {fit.kappa:.3f} "
        f"(se {fit.se_kappa:.3f}), grid-search check {oracle:.3f}"
    )

# Rank-sum test: does the NARROW arm differ from the LOW arm at all?
spec = PopulationSpec(
    counts={Treatment.NARROW: 400, Treatment.LOW: 400},
    seed=11,
    composition=MixtureComposition(0.0),  # broad bracketers notice the endowment
    tremble=0.0,
)
# each arm's sample pools the wages of both scenarios
cells = cell_wages(simulate_dataset(spec))
narrow, low = (np.concatenate([cells[arm, s] for s in Scenario]) for arm in (Treatment.NARROW, Treatment.LOW))
test = mwu_test(narrow, low)
print(f"\nbroad population, NARROW vs LOW: z = {test.z:.2f}, p = {test.p:.2g}")

# How many subjects would a new run need to see d = 0.4 at 90% power
# with a 1.5:1 allocation, using a rank-sum test?
n_large, n_small = power_two_sample(0.4, alpha=0.05, power=0.90, ratio=1.5, wilcoxon_are=True)
print(f"sample size for d=0.4, 1.5:1 allocation, rank-sum: {n_large} + {n_small}")
