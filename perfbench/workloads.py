"""Seeded command batches for the benchmark workloads, and the checks that
decide whether each command's outputs are correct.

Every value a batch varies (squeezing degrees, sweep points, sampled-outcome
seeds, feasibility parameters, the trajectories seed) is drawn from
``random.Random(seed)``, so one benchmark seed always gives the same flags.
Work sizes (command counts, the trajectory count, the grid buckets the drawn
values fall into) stay fixed, so runs with different seeds measure the same
amount of work.

The checks use closed forms and independent recomputation, not the
package's own analysis functions.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

BETA_REF = 1.0 / 3.0
XI2_REF = 20.0

# squeeze: one xi2 from each range.  Each range stays inside one grid-size
# bucket (2048 and 4096 output points), so the drawn value moves the work by
# a few percent at most.  Two of the three commands share the larger bucket,
# so the median and tail latencies fall inside one population instead of on
# the step between two.  xi2 = 40 (8192 points, 5-7 s a command) stays out:
# a run would hold too few batches for a steady figure.
SQUEEZE_XI2_RANGES = ((9.0, 11.0), (19.0, 21.0), (19.0, 21.0))

# cat: p_R/beta sweep at the reference point, stratified over this range so
# that every seed puts the same number of points into each grid bucket.
# Six of the 23 commands are feasibility reports (about 3 ms); sampled cats
# with a small outcome are cheap too.  The sweep is large enough that the
# median command stays a cat of about 30 ms unless all six sampled cats are
# cheap.  The large point runs at two outcomes with the same 2048-point grid,
# so a run holds well over ten samples of its cost and cmd_tail_s (ten
# samples beyond it) does not fall off it onto the small commands.
CAT_SWEEP_RANGE = (5.0, 12.0)
CAT_SWEEP_POINTS = 8
CAT_SAMPLED = 6
CAT_LARGE = {"xi2": 200.0, "beta": 0.05, "pr_over_beta": (100.0, 130.0)}
FEASIBILITY_PRESETS = ("bec-free-space", "bec-cavity")
FEASIBILITY_EXPLICIT = 4

TRAJECTORY_COUNT = 10_000

# Output-check tolerances.
TOL_SQUEEZE_MOMENT = 1e-6     # |2 xi2 dx2 - 1| and |2 dp2 / xi2 - 1|
TOL_RIEMANN_NORM = 1e-6       # |sum |psi|^2 dx - 1| of every emitted CSV
TOL_STATE_NORM = 1e-12        # |sum |c_n|^2 - 1| of every number-state CSV
TOL_CLOSED_FORM = 1e-12       # relative, for exact algebra (mu, feasibility)
TOL_PEAK = 0.05               # relative, peaks at +-sqrt(2 mu)
TOL_FRINGE = 0.10             # relative, fringe period 2 pi / sqrt(2 mu)
MIN_OVERLAP_REFERENCE = 0.99  # reference and large point
MIN_OVERLAP_SWEEP = 0.98
TRAJECTORY_SIGMAS = 5.0       # standard errors allowed for p_R mean and std


@dataclass
class Command:
    """One CLI invocation: its argv (without --out-dir), the generated
    parameters the check needs, and which check applies."""

    argv: list
    params: dict = field(default_factory=dict)
    check: str = ""
    label: str = ""
    items: int = 1


def _flag(value) -> str:
    return repr(float(value))


def squeeze_batch(seed: int) -> list:
    rng = random.Random(seed)
    batch = []
    for lo, hi in SQUEEZE_XI2_RANGES:
        xi2 = rng.uniform(lo, hi)
        batch.append(Command(["squeeze", "--xi2", _flag(xi2)], {"xi2": xi2},
                             "squeeze", f"squeeze xi2={xi2:.3f}"))
    return batch


def cat_batch(seed: int) -> list:
    rng = random.Random(seed)
    batch = [_cat_explicit(XI2_REF, BETA_REF, 7.0, "reference")]
    for pr_over_beta in CAT_LARGE["pr_over_beta"]:
        batch.append(_cat_explicit(CAT_LARGE["xi2"], CAT_LARGE["beta"],
                                   pr_over_beta, "large"))
    lo, hi = CAT_SWEEP_RANGE
    step = (hi - lo) / CAT_SWEEP_POINTS
    for i in range(CAT_SWEEP_POINTS):
        batch.append(_cat_explicit(XI2_REF, BETA_REF,
                                   lo + (i + rng.random()) * step, "sweep"))
    for _ in range(CAT_SAMPLED):
        cat_seed = rng.randrange(2 ** 32)
        batch.append(Command(
            ["cat", "--xi2", _flag(XI2_REF), "--beta", _flag(BETA_REF),
             "--sample", "--seed", str(cat_seed)],
            {"xi2": XI2_REF, "beta": BETA_REF, "seed": cat_seed, "role": "sampled"},
            "cat", f"cat sampled seed={cat_seed}"))
    for preset in FEASIBILITY_PRESETS:
        batch.append(Command(["feasibility", "--preset", preset],
                             {"preset": preset}, "feasibility",
                             f"feasibility {preset}"))
    for i in range(FEASIBILITY_EXPLICIT):
        params = _feasibility_params(rng, cavity=bool(i % 2))
        argv = ["feasibility"]
        for key, value in params.items():
            argv += ["--" + key.replace("_", "-"),
                     str(value) if key == "n_atoms" else _flag(value)]
        batch.append(Command(argv, {"inputs": params}, "feasibility",
                             f"feasibility explicit {i}"))
    return batch


def trajectories_batch(seed: int) -> list:
    traj_seed = random.Random(seed).randrange(2 ** 32)
    return [Command(
        ["trajectories", "--xi2", _flag(XI2_REF), "--beta", _flag(BETA_REF),
         "--count", str(TRAJECTORY_COUNT), "--seed", str(traj_seed)],
        {"xi2": XI2_REF, "beta": BETA_REF, "count": TRAJECTORY_COUNT,
         "seed": traj_seed},
        "trajectories", f"trajectories seed={traj_seed}", TRAJECTORY_COUNT)]


BATCHES = {
    "squeeze": squeeze_batch,
    "cat": cat_batch,
    "trajectories": trajectories_batch,
}


def _cat_explicit(xi2, beta, pr_over_beta, role) -> Command:
    return Command(
        ["cat", "--xi2", _flag(xi2), "--beta", _flag(beta),
         "--pr-over-beta", _flag(pr_over_beta)],
        {"xi2": xi2, "beta": beta, "pr_over_beta": pr_over_beta, "role": role},
        "cat", f"cat {role} pr/beta={pr_over_beta:.3f}")


def _log_uniform(rng, lo, hi) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _feasibility_params(rng, cavity: bool) -> dict:
    """Valid inputs: far detuned (|delta| >= 10 gamma) and, in a cavity,
    single-pass rotation and depth below T/10."""
    params = {"gamma": 1.0,
              "n_atoms": int(_log_uniform(rng, 1e3, 1e6)),
              "n_photons": _log_uniform(rng, 1e3, 1e8),
              "polarization": rng.uniform(0.9, 0.999),
              "tau_c": _log_uniform(rng, 0.01, 1.0)}
    if cavity:
        transmission = rng.uniform(0.02, 0.2)
        kappa0 = _log_uniform(rng, 1.0, 1e3)
        delta = max(10.0, 5.0 * kappa0 / transmission * rng.uniform(1.5, 10.0))
        params.update(kappa0=kappa0, delta=delta, transmission=transmission)
    else:
        params.update(kappa0=_log_uniform(rng, 1e2, 1e5),
                      delta=_log_uniform(rng, 10.0, 1e4), transmission=1.0)
    return params


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when correct


def check(cmd: Command, doc: dict) -> list:
    return _CHECKS[cmd.check](cmd, doc)


def _close(actual, expected, rel) -> bool:
    return abs(actual - expected) <= rel * max(1.0, abs(expected))


def _riemann_norm(path: str) -> float:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    spacing = (data[-1, 0] - data[0, 0]) / (data.shape[0] - 1)
    return float(np.sum(data[:, 1] ** 2 + data[:, 2] ** 2) * spacing)


def _state_problems(path: str) -> list:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = []
    norm = float(np.sum(data[:, 1] ** 2 + data[:, 2] ** 2))
    if abs(norm - 1.0) > TOL_STATE_NORM:
        problems.append(f"{os.path.basename(path)}: norm {norm!r}")
    if np.any(data[1::2, 1:] != 0.0):
        problems.append(f"{os.path.basename(path)}: odd-n amplitudes not zero")
    return problems


def _wavefunction_problems(path: str) -> list:
    norm = _riemann_norm(path)
    if abs(norm - 1.0) > TOL_RIEMANN_NORM:
        return [f"{os.path.basename(path)}: Riemann norm {norm!r}"]
    return []


def _read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def _check_squeeze(cmd: Command, doc: dict) -> list:
    xi2 = cmd.params["xi2"]
    summary, files = doc["summary"], doc["files"]
    problems = []
    if summary["xi2"] != xi2:
        problems.append(f"summary xi2 {summary['xi2']!r} != {xi2!r}")
    for name, value in (("2 xi2 dx2", 2.0 * xi2 * summary["dx2"]),
                        ("2 dp2 / xi2", 2.0 * summary["dp2"] / xi2)):
        if abs(value - 1.0) > TOL_SQUEEZE_MOMENT:
            problems.append(f"{name} = {value!r}")
    for family in ("squeeze_exact", "squeeze_stirling"):
        problems += _state_problems(files[f"{family}_state"])
        for tag in ("p", "x"):
            problems += _wavefunction_problems(files[f"{family}_{tag}"])
    if not 0.0 < summary["stirling_overlap"] <= 1.0 + 1e-12:
        problems.append(f"stirling overlap {summary['stirling_overlap']!r}")
    if _read_json(files["summary"]) != summary:
        problems.append("summary file differs from stdout summary")
    return problems


def _check_cat(cmd: Command, doc: dict) -> list:
    params, metrics, files = cmd.params, doc["metrics"], doc["files"]
    xi2, beta = params["xi2"], params["beta"]
    problems = []
    p_r = metrics["p_R"]
    if "pr_over_beta" in params and not _close(p_r, beta * params["pr_over_beta"],
                                               TOL_CLOSED_FORM):
        problems.append(f"p_R {p_r!r} != beta * p_R/beta")
    if params["role"] == "sampled" and metrics["p_P"] is None:
        problems.append("sampled cat reports no p_P")
    mu = p_r / beta + math.log((xi2 - 1.0) / (xi2 + 1.0)) / (2.0 * beta * beta)
    if not _close(metrics["mu_exact"], mu, TOL_CLOSED_FORM):
        problems.append(f"mu_exact {metrics['mu_exact']!r}, closed form {mu!r}")
    if not _close(metrics["mu_approx"], p_r / beta, TOL_CLOSED_FORM):
        problems.append(f"mu_approx {metrics['mu_approx']!r} != p_R/beta")
    problems += _state_problems(files["cat_state"])
    for name in ("cat_p", "cat_x", "cat_approx_p", "cat_approx_x"):
        if name in files:
            problems += _wavefunction_problems(files[name])
    if _read_json(files["metrics"]) != metrics:
        problems.append("metrics file differs from stdout metrics")
    trace = _read_json(files["trace"])
    if trace["p_R"] != p_r or trace["mu_exact"] != metrics["mu_exact"]:
        problems.append("trace file disagrees with metrics")
    if params["role"] != "sampled":
        problems += _cat_geometry(metrics, mu, params["role"])
    return problems


def _cat_geometry(metrics: dict, mu: float, role: str) -> list:
    """Two peaks near +-sqrt(2 mu), fringe period near 2 pi / sqrt(2 mu),
    and overlap with the two-Gaussian form."""
    problems = []
    s = math.sqrt(2.0 * mu)
    peaks = metrics["peak_positions"]
    if peaks is None or len(peaks) != 2:
        problems.append(f"expected two p peaks, got {peaks!r}")
    elif not (abs(peaks[0] + s) <= TOL_PEAK * s and abs(peaks[1] - s) <= TOL_PEAK * s):
        problems.append(f"peaks {peaks!r} not near +-{s!r}")
    period = metrics["fringe_period"]
    expected = 2.0 * math.pi / s
    if period is None or abs(period - expected) > TOL_FRINGE * expected:
        problems.append(f"fringe period {period!r}, expected {expected!r}")
    floor = MIN_OVERLAP_SWEEP if role == "sweep" else MIN_OVERLAP_REFERENCE
    if metrics["overlap_p_approx"] is None or metrics["overlap_p_approx"] < floor:
        problems.append(f"overlap_p_approx {metrics['overlap_p_approx']!r} < {floor}")
    return problems


def _check_feasibility(cmd: Command, doc: dict) -> list:
    report = doc["report"]
    inputs = report["inputs"]
    problems = []
    expected_inputs = cmd.params.get("inputs")
    if expected_inputs is not None:
        for key, value in expected_inputs.items():
            if inputs[key] != value:
                problems.append(f"input {key} {inputs[key]!r} != flag {value!r}")
    elif report.get("preset") != cmd.params["preset"]:
        problems.append(f"preset {report.get('preset')!r} != {cmd.params['preset']!r}")
    n_atoms, transmission = inputs["n_atoms"], inputs["transmission"]
    kappa0_eff = (2.0 * inputs["kappa0"] / transmission if transmission < 1.0
                  else inputs["kappa0"])
    xi2 = report["xi2_achieved"]
    closed_forms = {
        "xi2_required_cat": n_atoms ** (1.0 / 3.0),
        "depth_threshold": 4.0 * n_atoms ** (2.0 / 3.0),
        "xi2_max_depth": math.sqrt(kappa0_eff) / 2.0,
        "cat_lifetime": inputs["tau_c"] / xi2,
        "xi2_achieved": min(report["xi2_raw"], report["xi2_max_depth"],
                            report["xi2_max_polarization"]),
    }
    for key, value in closed_forms.items():
        if not _close(report[key], value, TOL_CLOSED_FORM):
            problems.append(f"{key} {report[key]!r}, closed form {value!r}")
    if report["coherence_ok"] != (report["eta"] <= 1.0 / xi2):
        problems.append("coherence_ok disagrees with eta <= 1/xi2")
    if _read_json(doc["files"]["report"]) != report:
        problems.append("report file differs from stdout report")
    return problems


def _mixture_moments(xi2: float, beta: float) -> tuple:
    """(mean, variance, fourth central moment) of the second outcome p_R:
    n even with weight c(n)**2 from the closed-form squeezed state, then
    p_R ~ N(beta n, 1/2).  The series runs far past any truncation."""
    ratio = (xi2 - 1.0) / (2.0 * (xi2 + 1.0))
    m = np.arange(0, 20_000)
    log_w = (2.0 * m * math.log(ratio) + np.array([math.lgamma(2 * k + 1) for k in m])
             - 2.0 * np.array([math.lgamma(k + 1) for k in m]))
    weights = np.exp(log_w - log_w.max())
    weights /= weights.sum()
    centers = beta * 2.0 * m
    mean = float(weights @ centers)
    dev = centers - mean
    var = float(weights @ dev ** 2) + 0.5
    m4 = float(weights @ (dev ** 4 + 6.0 * 0.5 * dev ** 2)) + 3.0 * 0.25
    return mean, var, m4


def _check_trajectories(cmd: Command, doc: dict) -> list:
    params, summary, files = cmd.params, doc["summary"], doc["files"]
    xi2, beta, count = params["xi2"], params["beta"], params["count"]
    problems = []
    if summary["count"] != count or summary["seed"] != params["seed"]:
        problems.append("summary count or seed differs from the flags")
    with open(files["trajectories"]) as handle:
        records = [json.loads(line) for line in handle]
    if [rec["index"] for rec in records] != list(range(count)):
        return problems + [f"expected indices 0..{count - 1} in the JSON lines"]
    p_r = np.array([rec["p_R"] for rec in records])
    mu_exact = np.array([rec["mu_exact"] for rec in records])
    offset = math.log((xi2 - 1.0) / (xi2 + 1.0)) / (2.0 * beta * beta)
    if not np.allclose(mu_exact, p_r / beta + offset, rtol=TOL_CLOSED_FORM, atol=1e-12):
        problems.append("mu_exact disagrees with the closed form")
    resolvable = np.array([rec["flags"]["resolvable"] for rec in records])
    reachable = np.array([rec["flags"]["reachable"] for rec in records])
    if (np.any(resolvable != (mu_exact >= 1.0 / beta))
            or np.any(reachable != (mu_exact <= xi2))
            or any(rec["flags"]["combined"] != (beta * xi2 > 1.0) for rec in records)):
        problems.append("condition flags disagree with mu_exact")
    if (not _close(summary["p_R_mean"], float(p_r.mean()), 1e-9)
            or not _close(summary["p_R_std"], float(p_r.std()), 1e-9)):
        problems.append("summary mean/std differ from the JSON lines")
    mean, var, m4 = _mixture_moments(xi2, beta)
    se_mean = math.sqrt(var / count)
    se_std = math.sqrt((m4 - var * var) / count) / (2.0 * math.sqrt(var))
    if abs(p_r.mean() - mean) > TRAJECTORY_SIGMAS * se_mean:
        problems.append(f"p_R mean {p_r.mean()!r}, mixture {mean!r} +- {se_mean!r}")
    if abs(p_r.std() - math.sqrt(var)) > TRAJECTORY_SIGMAS * se_std:
        problems.append(f"p_R std {p_r.std()!r}, mixture {math.sqrt(var)!r} +- {se_std!r}")
    hist = np.loadtxt(files["histogram"], delimiter=",", skiprows=1, ndmin=2)
    if int(hist[:, 2].sum()) != count:
        problems.append("histogram counts do not sum to the trajectory count")
    return problems


_CHECKS = {
    "squeeze": _check_squeeze,
    "cat": _check_cat,
    "feasibility": _check_feasibility,
    "trajectories": _check_trajectories,
}
