#!/usr/bin/env python3
"""Sweep the conditional mean flip number and tabulate cat metrics.

For each mu the script runs `spincat cat --pr <p_R>` in-process, at the
outcome p_R = beta * (mu - correction) that makes mu_exact equal the
requested mu, and sets the peaks and fringes the command reports against
their closed forms.  The peak columns are NaN where the command reports
no peak pair.  A point the command refuses, such as one whose grid loses
probability mass, ends the sweep with the command's stderr and exit code.
"""

import argparse
import contextlib
import csv
import io
import json
import sys
import tempfile

import numpy as np

import spincat.cli


def run_command(argv):
    """(exit code, stdout JSON or None, stderr) of spincat.cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = spincat.cli.main(argv)
    return code, json.loads(out.getvalue()) if code == 0 else None, err.getvalue()


def invert_mu(mu, beta, xi2):
    # p_R giving mu_exact == mu
    return float(beta * mu - np.log((xi2 - 1.0) / (xi2 + 1.0)) / (2.0 * beta))


def _nan_if_none(value):
    return float("nan") if value is None else value


def run_sweep(xi2, beta, mu_values, out_dir):
    rows = []
    for mu in mu_values:
        p_r = invert_mu(mu, beta, xi2)
        code, result, err = run_command(["cat", "--xi2", repr(xi2), "--beta", repr(beta),
                                         "--pr", repr(p_r), "--out-dir", out_dir])
        if code:
            sys.stderr.write(err)
            sys.exit(code)
        metrics = result["metrics"]
        peaks = metrics["peak_positions"]
        rows.append({
            "mu": mu,
            "p_R": p_r,
            "peak_abs": float("nan") if peaks is None else abs(peaks[1]),
            "peak_target": np.sqrt(2.0 * mu),
            "mean_width": _nan_if_none(metrics["peak_std"]),
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
    with tempfile.TemporaryDirectory() as out_dir:
        rows = run_sweep(args.xi2, args.beta, mu_values, out_dir)

    header = ("mu", "peak_abs", "peak_target", "fringe_period",
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
