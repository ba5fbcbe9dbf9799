"""Byte manifest of the command line's outputs.

For a fixed list of commands (the benchmark batches of
`perfbench/workloads.py` at seeds 1-5, the README's command-line
examples, edge cats, `squeeze --xi2 150` and feasibility reports that
overflow or that the chain refuses) the manifest holds the exit
code and the SHA-256 of stdout (with the output directory written as
"<out>"), of stderr and of every file the command writes.  Every command
runs in-process through `spincat.cli.main`, each into its own empty
directory.

    python tests/golden/regenerate.py    # rewrite tests/golden/manifest.json

`tests/test_manifest.py` recomputes the manifest and compares it with the
committed one.  A change that moves output bytes on purpose reruns this
script and names the entries that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = Path(__file__).resolve().parent / "manifest.json"
BENCH_SEEDS = range(1, 6)

# Edge cats: one whose p peaks are wide against their distance from 0
# (beta*sqrt(2 mu) = 0.085), the removed grid flags --grid-half-width and
# --grid-count (edge/01-04 and edge/13, each a config error now), mu < 0,
# improbable outcomes, extreme numbers, a small sampled mu and the large
# point; a squeeze far past the benchmark's squeezing; feasibility reports
# that overflow to inf or NaN; and the chain's own refusals: a negative
# detuning (non-positive coupling), a single-pass rotation not small
# against T, an eta that underflows, and a 4*delta**2 that underflows to 0;
# and the seeding edges of the outcome streams: sampled cats at the largest
# and the smallest 64-bit seed, a trajectory run whose second block holds
# one record, and one at seed 0; a cat of mu_exact 2.2e-4, whose approximate
# x wavefunction underflows to no norm and is not written; and the
# refusals flags reach: an occupancy past HERMITE_N_BUDGET, a truncation
# past its cap, a tail ratio that rounds to 1, a beta whose square
# underflows, an out_dir under a device file, and outcomes too narrow in
# doubles for the histogram's bins.
EDGE_COMMANDS = [
    "cat --xi2 45.933626852860776 --beta 0.03197871375401286 --pr-over-beta 24.844678751740197",
    "cat --xi2 20 --beta 0.3333 --pr-over-beta 7 --grid-half-width 2 --grid-count 256",
    "cat --xi2 20 --beta 0.3333 --pr-over-beta 7 --grid-half-width 14 --grid-count 1025",
    "cat --xi2 20 --beta 0.3333 --pr-over-beta 7 --grid-half-width 12 --grid-count 128",
    "cat --xi2 20 --beta 0.3333 --pr 0 --grid-half-width 5e-324 --grid-count 2",
    "cat --xi2 2 --beta 0.1 --pr 0.05",
    "cat --xi2 2 --beta 0.1 --pr 150",
    "cat --xi2 20 --beta 0.3333 --pr 500",
    "cat --xi2 1.0000000000000002 --beta 1e-15 --pr 1e300",
    "cat --xi2 1.0000000000000002 --beta 1e300 --sample",
    "cat --xi2 20 --beta 0.3333 --sample --seed 44",
    "cat --xi2 200 --beta 0.05 --pr-over-beta 100",
    "cat --xi2 1.5 --beta 1 --pr-over-beta 3",
    "squeeze --xi2 20 --grid-half-width 14 --grid-count 2049",
    "squeeze --xi2 150",
    "feasibility --kappa0 1e4 --gamma 1 --delta 100 --n-atoms 400000 --n-photons 1e308",
    "feasibility --kappa0 1e300 --gamma 1 --delta 10 --n-atoms 1 --n-photons 1e10",
    "feasibility --kappa0 10 --gamma 1e200 --delta 1e201 --n-atoms 1000 --n-photons 1e6",
    "feasibility --kappa0 1e4 --gamma 1 --delta -100 --n-atoms 400000 --n-photons 32000",
    "feasibility --kappa0 10 --gamma 1 --delta 100 --n-atoms 1000 --n-photons 1e8 --transmission 0.05",
    "feasibility --kappa0 1e-300 --gamma 1 --delta 10 --n-atoms 10000000000 --n-photons 1e-20",
    "feasibility --kappa0 1 --gamma 1e-170 --delta 1e-165 --n-atoms 10 --n-photons 10",
    "cat --xi2 20 --beta 0.3333 --sample --seed 18446744073709551615",
    "cat --xi2 20 --beta 0.3333 --sample --seed 0",
    "trajectories --xi2 20 --beta 0.3333 --count 8193 --seed 18446744073709551615",
    "trajectories --xi2 1.5 --beta 2 --count 3 --seed 0",
    "cat --xi2 20 --beta 0.3333333333333333 --pr 0.1502",
    "squeeze --xi2 200",
    "squeeze --xi2 5000",
    "squeeze --xi2 1e16",
    "cat --xi2 20 --beta 1e-300 --pr 0",
    "squeeze --xi2 2 --out-dir /dev/null/spincat",
    "trajectories --xi2 20 --beta 18446744073709551616 --count 1",
]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def readme_commands() -> list[list[str]]:
    """The README examples that `tests/test_readme.py` runs, without their
    `--out-dir`."""
    commands = _load("readme_examples", ROOT / "tests" / "test_readme.py").readme_commands()
    for argv in commands:
        if "--out-dir" in argv:
            at = argv.index("--out-dir")
            del argv[at:at + 2]
    return commands


def commands() -> dict[str, list[str]]:
    """Entry name -> argv, in manifest order.  Only an entry whose subject
    is the output directory itself gives --out-dir."""
    batches = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py").BATCHES
    named = {}
    for workload, batch in batches.items():
        for seed in BENCH_SEEDS:
            for i, cmd in enumerate(batch(seed)):
                named[f"bench/{workload}/seed{seed}/{i:02d}"] = list(cmd.argv)
    for i, argv in enumerate(readme_commands()):
        named[f"readme/{i}"] = argv
    for i, line in enumerate(EDGE_COMMANDS):
        named[f"edge/{i:02d}"] = line.split()
    return named


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], out_dir: str) -> dict:
    """Exit code and hashes of one in-process command writing into out_dir,
    or into the --out-dir that argv gives."""
    from spincat.cli import main

    command = argv + ["--out-dir", out_dir]
    if "--out-dir" in argv:
        out_dir, command = argv[argv.index("--out-dir") + 1], argv
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(command)
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            files[name] = _sha(Path(out_dir, name).read_bytes())
    return {"argv": argv, "exit": code,
            "stdout": _sha(stdout.getvalue().replace(out_dir, "<out>").encode()),
            "stderr": _sha(stderr.getvalue().replace(out_dir, "<out>").encode()),
            "files": files}


def environment() -> dict:
    """What the bytes may depend on besides the code."""
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": f"{platform.system()}-{platform.machine()}"}


def compute() -> dict:
    entries = {}
    with tempfile.TemporaryDirectory() as scratch:
        for k, (name, argv) in enumerate(commands().items()):
            entries[name] = run(argv, os.path.join(scratch, f"c{k}"))
    return {"environment": environment(), "entries": entries}


def differences(committed: dict, fresh: dict) -> list[str]:
    """One line per entry or field of `fresh` that differs from `committed`."""
    lines = []
    for name in sorted(set(committed["entries"]) | set(fresh["entries"])):
        old, new = committed["entries"].get(name), fresh["entries"].get(name)
        if old is None or new is None:
            lines.append(f"{name}: {'added' if old is None else 'missing'}")
            continue
        for key in ("argv", "exit", "stdout", "stderr"):
            if old[key] != new[key]:
                lines.append(f"{name}: {key} differs")
        for file in sorted(set(old["files"]) | set(new["files"])):
            if old["files"].get(file) != new["files"].get(file):
                lines.append(f"{name}: {file} differs")
    return lines


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))  # the package of this checkout
    fresh = compute()
    if MANIFEST.exists():
        for line in differences(json.loads(MANIFEST.read_text()), fresh):
            print(line)
    MANIFEST.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fresh['entries'])} entries to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
