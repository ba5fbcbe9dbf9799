#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spincat command line.

    python3 perfbench/run.py --workload {squeeze,cat,trajectories} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One process runs one workload: it pins the
BLAS/OpenMP thread pools, times fresh interpreters importing ``spincat.cli``
(``setup_s``), then calls ``spincat.cli.main`` in-process as a closed loop
with one client: a warm-up batch, then the workload's fixed batch again and
again for ``--seconds``.  Every command's outputs are checked.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced batches and reports per-layer metrics from
spans recorded around the package's public functions.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record (environment, sample counts, failures) is written to
``.bench_out/<workload>/result-trace<0|1>.json`` and the spans of the first
traced batch to ``.bench_out/<workload>/spans.jsonl``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One thread for every BLAS/OpenMP pool: the workloads are a single
# closed-loop client, and the machine may be shared.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Timed fresh-interpreter imports per run; the median discards a launch
# slowed by a cold page cache.
SETUP_LAUNCHES = 3

# Measure at least this many commands, so that cmd_tail_s has a percentile
# with ten samples beyond it at or above the median.
MIN_COMMANDS = 21

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_tail_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# Exit codes the command line documents for refused input or outcomes.
REFUSAL_CODES = (2, 3, 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("squeeze", "cat", "trajectories"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spincat" / "cli.py").is_file():
        print(f"perfbench: no spincat sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = OUT / args.workload
    with open(out_dir / f"result-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    _print_report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    batch = workloads.BATCHES[workload](seed)
    out_dir = OUT / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setup = [] if trace else setup_times(SETUP_LAUNCHES)
    import spincat.cli as cli

    tally = {"attempted": 0, "failed": 0, "correct": True, "failures": []}
    tracer = spans.Tracer() if trace else None

    def run_checked(traced: bool) -> list:
        if traced:
            tracer.install()
        try:
            outcomes = run_batch(cli, batch, out_dir, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        for cmd, outcome in zip(batch, outcomes):
            problems = verify(workloads, cmd, outcome)
            tally["attempted"] += 1
            if problems:
                tally["failed"] += 1
                # A documented refusal (exit 2/3/4 with a JSON error) is a
                # failed command, not a wrong output.
                if not _is_refusal(outcome):
                    tally["correct"] = False
                if cmd.label not in {f["command"] for f in tally["failures"]}:
                    tally["failures"].append({"command": cmd.label, "argv": cmd.argv,
                                              "problems": problems})
        return [o["latency"] for o in outcomes]

    run_checked(False)  # warm-up batch
    untraced, traced, layers, kept_spans = [], [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(run_checked(False))
        if trace:
            traced.append(run_checked(True))
            batch_spans = tracer.take()
            layers.append(spans.layer_metrics(spans.aggregate(batch_spans)))
            if kept_spans is None:
                kept_spans = batch_spans
        if time.perf_counter() >= deadline and (
                trace or len(untraced) * len(batch) >= MIN_COMMANDS):
            break

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "batch": [cmd.argv for cmd in batch],
        "batch_walls": [sum(b) for b in untraced],
        "closed_loop_clients": 1,
        **tally,
        "failed_frac": tally["failed"] / tally["attempted"],
    }
    if trace:
        record["metrics"], record["work_counts_repeat"] = _layer_report(
            spans, layers, untraced, traced)
        record["spans_file"] = str(_write_spans(out_dir, kept_spans))
    else:
        record["metrics"] = _end_to_end(batch, setup, untraced)
    return record


def setup_times(launches: int) -> list:
    """Seconds from starting a fresh interpreter until ``import spincat.cli``
    has returned and the interpreter has exited."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    command = [sys.executable, "-c", "import spincat.cli"]
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_batch(cli, batch, out_dir: Path, tracer=None) -> list:
    """Run each command to completion before the next starts.  Each command
    writes into its own emptied directory, so no stale file can pass a
    check."""
    outcomes = []
    for i, cmd in enumerate(batch):
        cmd_dir = out_dir / f"cmd{i:02d}"
        shutil.rmtree(cmd_dir, ignore_errors=True)
        argv = cmd.argv + ["--out-dir", str(cmd_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.command = i
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                code = None
                stderr.write(traceback.format_exc())
            latency = time.perf_counter() - start
        outcomes.append({"code": code, "stdout": stdout.getvalue(),
                         "stderr": stderr.getvalue(), "latency": latency})
    return outcomes


def verify(workloads, cmd, outcome) -> list:
    if outcome["code"] != 0:
        return [f"exit {outcome['code']}: {outcome['stderr'].strip()[-400:]}"]
    lines = outcome["stdout"].splitlines()
    if len(lines) != 1:
        return [f"expected one JSON line on stdout, got {len(lines)}"]
    try:
        return workloads.check(cmd, json.loads(lines[0]))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"output check could not read the outputs: {exc!r}"]


def _is_refusal(outcome) -> bool:
    if outcome["code"] not in REFUSAL_CODES or outcome["stdout"]:
        return False
    if outcome["code"] == 2:
        return outcome["stderr"].startswith("config error:")
    try:
        return "error" in json.loads(outcome["stderr"])
    except ValueError:
        return False


def tail(samples: list) -> tuple:
    """(value, label): the sample at the highest percentile that has at
    least ten samples beyond it; the maximum when there are too few
    samples for that percentile to lie at or above the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], "max"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}"


def _end_to_end(batch, setup, batches) -> dict:
    latencies = [x for b in batches for x in b]
    # Mean batch wall: the machine's throughput swings in phases of a few
    # seconds, and a mean over the run follows the share of slow phases
    # smoothly where a median jumps between the fast and the slow mode.
    wall = sum(latencies) / len(batches)
    tail_value, tail_label = tail(latencies)
    items = sum(cmd.items for cmd in batch)
    values = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} launches"),
        "wall_s": (wall, f"mean of {len(batches)} batches of {len(batch)} commands"),
        "cmd_p50_s": (statistics.median(latencies), f"n={len(latencies)}"),
        "cmd_tail_s": (tail_value, f"{tail_label}, n={len(latencies)}"),
        "items_per_s": (items / wall, f"{items} items per batch"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "ru_maxrss of this process"),
    }
    return {name: {"value": values[name][0], "unit": unit, "note": values[name][1]}
            for name, unit in END_TO_END}


def _layer_report(spans, layers, untraced, traced) -> tuple:
    metrics = {}
    for name, unit, _, stat in spans.LAYER_METRICS:
        per_batch = [layer[name] for layer in layers]
        if stat in spans.WORK_COUNTS:
            value, note = per_batch[0], "per batch"
        else:
            value, note = statistics.median(per_batch), f"median of {len(layers)} batches"
        metrics[name] = {"value": value, "unit": unit, "note": note}
    traced_walls = [sum(b) for b in traced]
    quadrature = [(layer["state.to_quadrature.x.self_s"]
                   + layer["state.to_quadrature.p.self_s"]) / wall
                  for layer, wall in zip(layers, traced_walls)]
    metrics["state.to_quadrature.wall_pct"] = {
        "value": 100.0 * statistics.median(quadrature), "unit": "%",
        "note": "to_quadrature self time over traced batch wall"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - statistics.median(
            [sum(b) for b in untraced]),
        "unit": "s", "note": "traced minus untraced batch wall, medians"}
    counts = [{k: layer[k] for k, _, _, stat in spans.LAYER_METRICS
               if stat in spans.WORK_COUNTS} for layer in layers]
    return metrics, all(c == counts[0] for c in counts)


def _write_spans(out_dir: Path, batch_spans) -> Path:
    path = out_dir / "spans.jsonl"
    keys = ("id", "name", "start", "end", "parent", "command", "counts")
    with open(path, "w") as handle:
        for span in batch_spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")
    return path


def environment() -> dict:
    import numpy
    import scipy
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  threads {env['threads']} of nproc {env['nproc']}  "
          f"revision {env['git_revision'][:12]}")
    for name, metric in record["metrics"].items():
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']:6s} {metric['note']}")
    print(f"  {'failed_frac':44s} {record['failed_frac']:>14.6g} {'':6s} "
          f"{record['failed']} of {record['attempted']} commands")
    for failure in record["failures"]:
        print(f"  FAILED {failure['command']}: {'; '.join(failure['problems'])}")
    if record["trace"] and not record["work_counts_repeat"]:
        print("  WARNING work counts differ between traced batches")


if __name__ == "__main__":
    sys.exit(main())
