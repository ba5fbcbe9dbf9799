#!/usr/bin/env python3
"""Compare sampled second-step outcomes against the analytic mixture.

Runs `spincat trajectories` in-process with the given --xi2, --beta,
--count and --seed, bins the p_R column of the records it writes, and
prints observed versus expected counts plus the chi-square statistic.
The command draws each block's p_P before its p_R, so these are the p_R
of full protocol runs.  The expected counts come from the squeezed state
at the command's own truncation, the summary's n_max.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile

import numpy as np
from scipy.stats import chi2, norm

import spincat.cli
from spincat.protocol import squeezed_state_exact


def run_command(argv):
    """(exit code, stdout JSON or None, stderr) of spincat.cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = spincat.cli.main(argv)
    return code, json.loads(out.getvalue()) if code == 0 else None, err.getvalue()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    # Passed to the command as given, which checks them.
    parser.add_argument("--xi2", default="20.0")
    parser.add_argument("--beta", default=repr(1.0 / 3.0))
    parser.add_argument("--count", default="50000")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--bins", type=int, default=24)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as out_dir:
        code, result, err = run_command([
            "trajectories", "--xi2", args.xi2, "--beta", args.beta, "--count", args.count,
            "--seed", args.seed, "--out-dir", out_dir])
        if code:
            sys.stderr.write(err)
            sys.exit(code)
        with open(result["files"]["trajectories"]) as handle:
            draws = np.array([json.loads(line)["p_R"] for line in handle])
    summary = result["summary"]

    lo, hi = np.quantile(draws, [0.001, 0.999])
    edges = np.concatenate(([-np.inf], np.linspace(lo, hi, args.bins - 1), [np.inf]))
    observed = np.histogram(draws, bins=edges)[0]

    state = squeezed_state_exact(summary["xi2"], summary["n_max"])
    weights = np.abs(state.amplitudes) ** 2
    means = summary["beta"] * np.arange(weights.size)
    cdf = norm.cdf((edges[:, None] - means) / np.sqrt(0.5)) @ weights
    expected = np.diff(cdf) * summary["count"]

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
