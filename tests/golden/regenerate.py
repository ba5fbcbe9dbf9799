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
    python tests/golden/regenerate.py --keep DIR [--src PATH]
    python tests/golden/regenerate.py --compare A B

`tests/test_manifest.py` recomputes the manifest and compares it with the
committed one.  A change that moves output bytes on purpose reruns this
script and names the entries that changed.

`--keep DIR` runs the manifest's commands with the package under PATH
(default: this checkout's `src/`) and keeps each entry's outputs under
`DIR/<entry>/`: `exit`, `stdout` and `stderr` (the output directory
written as "<out>") and the files in `files/`; it leaves the manifest
as it is.  `--compare A B` prints one line per difference between two
such directories, say of the parent commit's package and of a change,
and exits 1 if there is any:

* a changed exit code, with both codes;
* for a CSV on the same grid, the largest |delta| of its values relative
  to the file's peak, the coordinate range of the rows that differ and
  the smallest |coord| among them;
* for a CSV whose grid changed, both point counts;
* for JSON (stdout, stderr, `*.json`), the keys whose values differ;
* for other text, how many lines differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
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
# x wavefunction underflows to no norm and is not written; a squeeze at
# xi2 = 200; the refusals flags reach: a truncation past its cap, a tail
# ratio that rounds to 1, a beta whose square underflows, an out_dir under
# a device file, and outcomes too narrow in doubles for the histogram's
# bins; and grids far past |u| = 37.64, where exp(-u**2/2) is not a normal
# double: a squeeze at xi2 = 215, a mu = 199 cat on a grid to +-62, a cat
# whose p peaks lie at +-41 and one whose grid of 65,536 points reaches
# +-97.4, near the truncation cap's reach.
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
    "squeeze --xi2 215",
    "cat --xi2 204.28617172296612 --beta 0.005706051814641667 --pr 1.9929594320419217",
    "cat --xi2 2 --beta 0.1 --pr 90",
    "cat --xi2 150 --beta 3 --pr 12000",
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


def execute(argv: list[str], out_dir: str) -> tuple[int, str, str, str]:
    """(exit code, stdout, stderr, output directory) of one in-process
    command writing into out_dir, or into the --out-dir that argv gives;
    stdout and stderr write the output directory as "<out>"."""
    from spincat.cli import main

    command = argv + ["--out-dir", out_dir]
    if "--out-dir" in argv:
        out_dir, command = argv[argv.index("--out-dir") + 1], argv
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(command)
    return (code, stdout.getvalue().replace(out_dir, "<out>"),
            stderr.getvalue().replace(out_dir, "<out>"), out_dir)


def run(argv: list[str], out_dir: str) -> dict:
    """Exit code and hashes of one in-process command (see `execute`)."""
    code, stdout, stderr, out_dir = execute(argv, out_dir)
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            files[name] = _sha(Path(out_dir, name).read_bytes())
    return {"argv": argv, "exit": code, "stdout": _sha(stdout.encode()),
            "stderr": _sha(stderr.encode()), "files": files}


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


def keep(entries: dict[str, list[str]], directory: str) -> None:
    """Run each entry's argv and keep what it gives under
    directory/<entry>/ (see the module docstring).  The directory must not
    exist yet, so no earlier run's file is left in it."""
    Path(directory).mkdir(parents=True)
    for name, argv in entries.items():
        entry = Path(directory, name)
        code, stdout, stderr, _ = execute(argv, str(entry / "files"))
        entry.mkdir(parents=True, exist_ok=True)
        (entry / "exit").write_text(f"{code}\n")
        (entry / "stdout").write_text(stdout)
        (entry / "stderr").write_text(stderr)


def _flat(obj, prefix: str = "") -> dict:
    """The leaves of nested JSON objects, by dotted key path."""
    if not isinstance(obj, dict):
        return {prefix: obj}
    leaves = {}
    for key, value in obj.items():
        leaves.update(_flat(value, f"{prefix}.{key}" if prefix else key))
    return leaves


def _json_keys(text: str):
    """The leaves of `text` when it is a JSON object, else None."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return _flat(doc) if isinstance(doc, dict) else None


def _csv_difference(old: str, new: str) -> str:
    """How far the rows of two CSV texts (header, then one row a point,
    its coordinate first) lie apart."""
    rows_old = [line.split(",") for line in old.splitlines()[1:]]
    rows_new = [line.split(",") for line in new.splitlines()[1:]]
    if [row[0] for row in rows_old] != [row[0] for row in rows_new]:
        return f"grid changed: {len(rows_old)} -> {len(rows_new)} points"
    peak = max((abs(float(x)) for row in rows_old for x in row[1:]), default=0.0)
    changed = [i for i, (a, b) in enumerate(zip(rows_old, rows_new)) if a != b]
    if not changed:
        return "header differs"
    largest = 0.0
    for i in changed:
        for x, y in zip(rows_old[i][1:], rows_new[i][1:]):
            delta = abs(float(x) - float(y)) if x != y else 0.0
            largest = max(largest, delta if delta == delta else math.inf)
    relative = largest / peak if peak else math.inf
    nearest = min(abs(float(rows_old[i][0])) for i in changed)
    return (f"max |delta| {relative:.3g} of the peak {peak:.3g}, in {len(changed)} of "
            f"{len(rows_old)} rows, coord {rows_old[changed[0]][0]} to "
            f"{rows_old[changed[-1]][0]}, |coord| >= {nearest:.4g}")


def _file_difference(old: Path, new: Path) -> str | None:
    """How two kept outputs differ, or None where they are the same."""
    if not old.exists() or not new.exists():
        return "added" if new.exists() else "missing"
    old_text, new_text = old.read_text(), new.read_text()
    if old_text == new_text:
        return None
    if old.suffix == ".csv":
        return _csv_difference(old_text, new_text)
    keys_old, keys_new = _json_keys(old_text), _json_keys(new_text)
    if keys_old is not None and keys_new is not None:
        differ = [key for key in sorted(set(keys_old) | set(keys_new))
                  if key not in keys_old or key not in keys_new
                  or repr(keys_old[key]) != repr(keys_new[key])]
        return f"keys differ: {', '.join(differ)}" if differ else "same values, text differs"
    lines_old, lines_new = old_text.splitlines(), new_text.splitlines()
    differ = sum(a != b for a, b in zip(lines_old, lines_new))
    return (f"{differ + abs(len(lines_old) - len(lines_new))} of "
            f"{max(len(lines_old), len(lines_new))} lines differ")


def compare(a: str, b: str) -> list[str]:
    """One line per difference between the directories `keep` wrote for
    the same entries, A the old and B the new."""
    names = sorted({str(path.parent.relative_to(root)) for root in (Path(a), Path(b))
                    for path in root.glob("**/exit")})
    lines = []
    for name in names:
        old, new = Path(a, name), Path(b, name)
        if not (old / "exit").exists() or not (new / "exit").exists():
            lines.append(f"{name}: {'added' if (new / 'exit').exists() else 'missing'}")
            continue
        codes = [int((entry / "exit").read_text()) for entry in (old, new)]
        if codes[0] != codes[1]:
            lines.append(f"{name}: exit {codes[0]} -> {codes[1]}")
        files = sorted({path.name for entry in (old, new) for path in entry.glob("files/*")})
        for file in ["stdout", "stderr", *(f"files/{file}" for file in files)]:
            difference = _file_difference(old / file, new / file)
            if difference is not None:
                lines.append(f"{name}: {file}: {difference}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--keep", metavar="DIR",
                      help="keep every entry's outputs under DIR; the manifest stays")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="print how the outputs kept in B differ from those in A")
    parser.add_argument("--src", metavar="PATH",
                        help="with --keep, the directory holding the package to run "
                             "(default: src/ of this checkout)")
    args = parser.parse_args(argv)
    if args.src and not args.keep:
        parser.error("--src goes with --keep")
    if args.compare:
        lines = compare(*args.compare)
        print("\n".join(lines) or "no entry differs")
        return 1 if lines else 0
    sys.path.insert(0, args.src or str(ROOT / "src"))  # the package to run
    if args.keep:
        entries = commands()
        keep(entries, args.keep)
        print(f"kept {len(entries)} entries in {args.keep}")
        return 0
    fresh = compute()
    if MANIFEST.exists():
        for line in differences(json.loads(MANIFEST.read_text()), fresh):
            print(line)
    MANIFEST.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fresh['entries'])} entries to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
