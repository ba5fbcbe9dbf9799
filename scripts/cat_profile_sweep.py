#!/usr/bin/env python3
"""Sweep the conditional mean flip number and tabulate cat metrics.

For each mu the exact two-step conditional state is built at the outcome
p_R = beta * (mu - correction) that makes mu_exact equal the requested mu,
then peak and fringe detectors run on both the exact state and the
two-Gaussian / envelope-cosine approximations.
"""

import argparse
import csv
import sys

import numpy as np

from spincat import (
    Basis,
    CatApproxParams,
    approx_p_wavefunction,
    apply_number_qnd,
    check_cat_conditions,
    choose_truncation,
    default_cat_grid,
    detect_peaks,
    fringe_metrics,
    overlap,
    riemann_normalize,
    squeezed_state_exact,
)
from spincat.state import _expand, effective_max_index


def invert_mu(mu, beta, xi2):
    # p_R giving mu_exact == mu
    return beta * mu - np.log((xi2 - 1.0) / (xi2 + 1.0)) / (2.0 * beta)


def run_sweep(xi2, beta, mu_values):
    rows = []
    for mu in mu_values:
        p_r = invert_mu(mu, beta, xi2)
        n_max = choose_truncation(xi2, beta, mu, 1e-10)
        cat = apply_number_qnd(squeezed_state_exact(xi2, n_max), beta, p_r)
        grid = default_cat_grid(mu, effective_max_index(cat))
        p_wf, x_wf = (riemann_normalize(wf) for wf in _expand(
            [(cat, Basis.P), (cat, Basis.X)], grid))

        positions, widths = detect_peaks(p_wf)
        try:
            period, visibility = fringe_metrics(x_wf)
        except Exception:
            period, visibility = float("nan"), float("nan")
        approx = approx_p_wavefunction(CatApproxParams(mu=mu, beta=beta), grid)
        resolvable, reachable, combined = check_cat_conditions(mu, beta, xi2)
        rows.append({
            "mu": mu,
            "p_R": p_r,
            "n_peaks": len(positions),
            "peak_abs": abs(positions[-1]) if positions else float("nan"),
            "peak_target": np.sqrt(2.0 * mu),
            "mean_width": float(np.mean(widths)),
            "fringe_period": period,
            "period_target": 2.0 * np.pi / np.sqrt(2.0 * mu),
            "visibility": visibility,
            "overlap_approx": overlap(p_wf, approx),
            "resolvable": resolvable,
            "reachable": reachable,
            "combined": combined,
        })
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xi2", type=float, default=20.0)
    parser.add_argument("--beta", type=float, default=1.0 / 3.0)
    parser.add_argument("--mu-min", type=float, default=2.0)
    parser.add_argument("--mu-max", type=float, default=14.0)
    parser.add_argument("--steps", type=int, default=7)
    parser.add_argument("--csv", help="optional output CSV path")
    args = parser.parse_args()

    mu_values = np.linspace(args.mu_min, args.mu_max, args.steps)
    rows = run_sweep(args.xi2, args.beta, mu_values)

    header = ("mu", "n_peaks", "peak_abs", "peak_target", "fringe_period",
              "period_target", "visibility", "overlap_approx", "resolvable")
    print("  ".join(f"{h:>14s}" for h in header))
    for row in rows:
        print("  ".join(
            f"{row[h]:>14.5g}" if isinstance(row[h], float) else f"{row[h]!s:>14s}"
            for h in header))

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    main()
