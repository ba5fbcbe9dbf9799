#!/usr/bin/env python3
"""Scan optical depth against atom number and report where a superposition
state is reachable, in free space and inside a low-finesse cavity."""

import argparse

import numpy as np

from spincat import DomainError, ExperimentalParams, evaluate_scenario


def survey(transmission, kappa0_values, atom_values, gamma, delta_ratio):
    print(f"\ntransmission T = {transmission}")
    header = "kappa0 \\ N_a" + "".join(f"{n:>12.0f}" for n in atom_values)
    print(header)
    for kappa0 in kappa0_values:
        cells = []
        for n_atoms in atom_values:
            params = ExperimentalParams(
                kappa0=kappa0, gamma=gamma, delta=delta_ratio * gamma,
                n_atoms=int(n_atoms), n_photons=1e6,
                transmission=transmission)
            try:
                report = evaluate_scenario(params)
                cells.append(report.depth_flag)
            except DomainError:
                cells.append("regime!")
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
    survey(1.0, kappa0_values, atom_values, args.gamma, args.delta_ratio)
    survey(args.transmission, kappa0_values, atom_values,
           args.gamma, args.delta_ratio)


if __name__ == "__main__":
    main()
