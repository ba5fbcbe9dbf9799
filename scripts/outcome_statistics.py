#!/usr/bin/env python3
"""Compare sampled second-step outcomes against the analytic mixture.

Draws `--count` outcomes p_R in one block from the exact two-stage sampler
`sample_second_outcome` on `RandomSource(--seed)`, bins them, and prints
observed versus expected counts plus the chi-square statistic.  Only p_R
is drawn.
"""

import argparse

import numpy as np
from scipy.stats import chi2, norm

from spincat import (
    RandomSource,
    choose_truncation,
    sample_second_outcome,
    squeezed_state_exact,
)
from spincat.state import TAIL_TOL


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xi2", type=float, default=20.0)
    parser.add_argument("--beta", type=float, default=1.0 / 3.0)
    parser.add_argument("--count", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bins", type=int, default=24)
    args = parser.parse_args()

    state = squeezed_state_exact(
        args.xi2, choose_truncation(args.xi2, args.beta, 0.0, TAIL_TOL))
    draws = sample_second_outcome(state, args.beta, RandomSource(args.seed), args.count)

    lo, hi = np.quantile(draws, [0.001, 0.999])
    edges = np.concatenate(([-np.inf], np.linspace(lo, hi, args.bins - 1), [np.inf]))
    observed = np.histogram(draws, bins=edges)[0]

    weights = np.abs(state.amplitudes) ** 2
    means = args.beta * np.arange(weights.size)
    cdf = norm.cdf((edges[:, None] - means) / np.sqrt(0.5)) @ weights
    expected = np.diff(cdf) * args.count

    print(f"{'bin':>24s} {'observed':>10s} {'expected':>12s}")
    for i in range(len(observed)):
        label = f"[{edges[i]:.2f}, {edges[i + 1]:.2f})"
        print(f"{label:>24s} {observed[i]:>10d} {expected[i]:>12.1f}")

    keep = expected > 0
    stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    dof = int(keep.sum()) - 1
    critical = chi2.ppf(0.99, dof)
    print(f"\nchi-square {stat:.2f} on {dof} dof "
          f"(1% critical value {critical:.2f}) -> "
          f"{'consistent' if stat < critical else 'INCONSISTENT'}")


if __name__ == "__main__":
    main()
