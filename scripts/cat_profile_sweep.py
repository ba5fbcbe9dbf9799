#!/usr/bin/env python3
"""Sweep the conditional mean flip number and tabulate cat metrics.

For each mu the cat is analyzed, as `spincat cat --pr` does, at the outcome
p_R = beta * (mu - correction) that makes mu_exact equal the requested mu.
The detected peaks and fringes are set against their closed forms, and the
exact p wavefunction against the two-Gaussian approximation.  A point whose
grid loses probability mass, or any other spincat error, ends the sweep
with exit 3.
"""

import argparse
import csv
import sys

import numpy as np

from spincat import SpinCatError, analyze_cat, detect_peaks


def invert_mu(mu, beta, xi2):
    # p_R giving mu_exact == mu
    return beta * mu - np.log((xi2 - 1.0) / (xi2 + 1.0)) / (2.0 * beta)


def _nan_if_none(value):
    return float("nan") if value is None else value


def run_sweep(xi2, beta, mu_values):
    rows = []
    for mu in mu_values:
        p_r = invert_mu(mu, beta, xi2)
        _, _, wavefunctions, metrics = analyze_cat(xi2, beta, p_r)
        positions, widths = detect_peaks(dict(wavefunctions)["cat_p"])
        rows.append({
            "mu": mu,
            "p_R": p_r,
            "n_peaks": len(positions),
            "peak_abs": abs(positions[-1]),
            "peak_target": np.sqrt(2.0 * mu),
            "mean_width": float(np.mean(widths)),
            "fringe_period": _nan_if_none(metrics["fringe_period"]),
            "period_target": 2.0 * np.pi / np.sqrt(2.0 * mu),
            "visibility": _nan_if_none(metrics["visibility"]),
            "overlap_approx": _nan_if_none(metrics["overlap_p_approx"]),
            "resolvable": metrics["resolvable"],
            "reachable": metrics["reachable"],
            "combined": metrics["combined"],
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
    if args.steps < 1:
        parser.error(f"--steps must be at least 1, got {args.steps}")

    mu_values = np.linspace(args.mu_min, args.mu_max, args.steps)
    try:
        rows = run_sweep(args.xi2, args.beta, mu_values)
    except SpinCatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(3)

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
