#!/usr/bin/env python3
"""Scan optical depth against atom number and report where a superposition
state is reachable, in free space and inside a low-finesse cavity.

Each cell is the `depth_flag` of `spincat feasibility`, run in-process at
that cell's parameters, or `regime!` where the command refuses them."""

import argparse
import contextlib
import io
import json
import tempfile

import numpy as np

import spincat.cli


def run_command(argv):
    """(exit code, stdout JSON or None, stderr) of spincat.cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = spincat.cli.main(argv)
    return code, json.loads(out.getvalue()) if code == 0 else None, err.getvalue()


def survey(transmission, kappa0_values, atom_values, gamma, delta_ratio, out_dir):
    print(f"\ntransmission T = {transmission}")
    header = "kappa0 \\ N_a" + "".join(f"{n:>12.0f}" for n in atom_values)
    print(header)
    for kappa0 in kappa0_values:
        cells = []
        for n_atoms in atom_values:
            code, result, _ = run_command([
                "feasibility", "--kappa0", repr(float(kappa0)), "--gamma", repr(gamma),
                "--delta", repr(delta_ratio * gamma), "--n-atoms", str(int(n_atoms)),
                "--n-photons", "1e6", "--transmission", repr(transmission),
                "--out-dir", out_dir])
            cells.append("regime!" if code else result["report"]["depth_flag"])
        print(f"{kappa0:>13.0f}" + "".join(f"{c:>12s}" for c in cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--delta-ratio", type=float, default=1e4,
                        help="detuning in units of the linewidth")
    parser.add_argument("--transmission", type=float, default=0.05)
    args = parser.parse_args()

    kappa0_values = np.logspace(0, 4, 5)
    atom_values = np.logspace(2, 6, 5)
    with tempfile.TemporaryDirectory() as out_dir:
        for transmission in (1.0, args.transmission):
            survey(transmission, kappa0_values, atom_values,
                   args.gamma, args.delta_ratio, out_dir)


if __name__ == "__main__":
    main()
