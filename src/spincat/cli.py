"""Command-line front end.

Subcommands: squeeze, cat, trajectories, feasibility.  Every command is
deterministic given its full flag set (including --seed), writes files
atomically, and prints a single JSON result object on stdout.  Exit
codes: 0 success, 2 configuration error, 3 numeric/domain error,
4 improbable measurement outcome.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import io
from .cat import (
    CatApproxParams,
    approx_p_wavefunction,
    approx_x_wavefunction,
    check_cat_conditions,
    compute_cat_metrics,
    overlap,
)
from .errors import ImprobableOutcomeError, SpinCatError
from .feasibility import PRESETS, ExperimentalParams, evaluate_scenario
from .protocol import (
    ProtocolTrace,
    alpha_from_xi2,
    apply_number_qnd,
    mu_of_outcome,
    outcome_density_second,
    outcome_sampler,
    quadrature_variances,
    sample_first_outcome,
    sample_second_outcome,
    squeezed_state_exact,
    squeezed_state_stirling,
)
from .state import (
    Basis,
    NumberState,
    QuadratureGrid,
    RandomSource,
    _expand,
    choose_truncation,
    default_cat_grid,
    effective_max_index,
    grid_for_state,
    mean_occupation,
    riemann_normalize,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IMPROBABLE = 4

# Trajectories drawn per generator in `trajectories`.  Changing it changes
# the records a seed gives.
TRAJECTORY_BLOCK = 8192


class ConfigError(Exception):
    pass


@dataclass
class SqueezeConfig:
    xi2: float
    n_max: int | None
    tail_tol: float
    out_dir: str
    grid_half_width: float | None
    grid_count: int | None


@dataclass
class CatConfig:
    xi2: float
    beta: float
    pr: float | None
    pr_over_beta: float | None
    sample: bool
    seed: int
    tail_tol: float
    out_dir: str
    grid_half_width: float | None
    grid_count: int | None


@dataclass
class TrajectoriesConfig:
    xi2: float
    beta: float
    count: int
    seed: int
    bins: int
    tail_tol: float
    out_dir: str


@dataclass
class FeasibilityConfig:
    params: ExperimentalParams
    preset: str | None
    out_dir: str


# ---------------------------------------------------------------------------
# argument parsing and config resolution


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincat",
        description="Two-step QND protocol simulator for collective-spin "
                    "squeezed and cat states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sq = sub.add_parser("squeeze", help="prepare and analyze a squeezed state")
    sq.add_argument("--xi2", type=float)
    sq.add_argument("--n-max", dest="n_max", type=int)
    sq.add_argument("--tail-tol", dest="tail_tol", type=float)
    _add_grid(sq)
    _add_common(sq)

    cat = sub.add_parser("cat", help="run both QND steps and analyze the cat state")
    cat.add_argument("--xi2", type=float)
    cat.add_argument("--beta", type=float)
    cat.add_argument("--pr", type=float, help="explicit second-step outcome p_R")
    cat.add_argument("--pr-over-beta", dest="pr_over_beta", type=float,
                     help="second-step outcome given as p_R/beta")
    cat.add_argument("--sample", action="store_const", const=True, default=None,
                     help="draw both outcomes from the seeded stream")
    cat.add_argument("--tail-tol", dest="tail_tol", type=float)
    cat.add_argument("--seed", type=int)
    _add_grid(cat)
    _add_common(cat)

    tr = sub.add_parser("trajectories", help="Monte Carlo over full protocol runs")
    tr.add_argument("--xi2", type=float)
    tr.add_argument("--beta", type=float)
    tr.add_argument("--count", type=int)
    tr.add_argument("--bins", type=int)
    tr.add_argument("--tail-tol", dest="tail_tol", type=float)
    tr.add_argument("--seed", type=int)
    _add_common(tr)

    fe = sub.add_parser("feasibility", help="experimental feasibility report")
    fe.add_argument("--preset", choices=sorted(PRESETS))
    fe.add_argument("--kappa0", type=float)
    fe.add_argument("--gamma", type=float)
    fe.add_argument("--delta", type=float)
    fe.add_argument("--n-atoms", dest="n_atoms", type=float)
    fe.add_argument("--n-photons", dest="n_photons", type=float)
    fe.add_argument("--transmission", type=float)
    fe.add_argument("--polarization", type=float)
    fe.add_argument("--tau-c", dest="tau_c", type=float)
    _add_common(fe)

    return parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out-dir", dest="out_dir")
    sub.add_argument("--config", help="JSON file with the same field names")


def _add_grid(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid-half-width", dest="grid_half_width", type=float)
    sub.add_argument("--grid-count", dest="grid_count", type=int)


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Layer CLI flags over a JSON config file over hard defaults."""
    base = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                base = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(base, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(base) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    merged = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in base:
            merged[key] = base[key]
        else:
            merged[key] = default
    return merged


def _require_seed(problems, merged):
    value = _require_number(problems, merged, "seed", kind=int)
    if value is not None and not 0 <= value < 2 ** 64:
        problems.append(f"seed must be a 64-bit unsigned integer, got {value}")


def _require_number(problems, merged, key, kind=float, minimum=None,
                    strict=False, required=True):
    value = merged.get(key)
    if value is None:
        if required:
            problems.append(f"{key} is required")
        return None
    try:
        value = kind(value)
    except (TypeError, ValueError, OverflowError):
        problems.append(f"{key} must be a number, got {value!r}")
        return None
    if not math.isfinite(value):
        problems.append(f"{key} must be finite, got {value}")
        return None
    if minimum is not None and (value <= minimum if strict else value < minimum):
        op = ">" if strict else ">="
        problems.append(f"{key} must be {op} {minimum}, got {value}")
        return None
    merged[key] = value
    return value


def _grid_override(problems, merged):
    half = merged.get("grid_half_width")
    count = merged.get("grid_count")
    if (half is None) != (count is None):
        problems.append("grid overrides require both grid_half_width and grid_count")
    if half is not None:
        _require_number(problems, merged, "grid_half_width", strict=True, minimum=0.0)
    if count is not None:
        _require_number(problems, merged, "grid_count", kind=int, minimum=2)


def _config_squeeze(args) -> SqueezeConfig:
    merged = _resolve(args, {
        "xi2": None, "n_max": None, "tail_tol": 1e-10, "out_dir": ".",
        "grid_half_width": None, "grid_count": None, "config": None,
    })
    problems = []
    _require_number(problems, merged, "xi2", minimum=1.0)
    _require_number(problems, merged, "tail_tol", strict=True, minimum=0.0)
    if merged["n_max"] is not None:
        n_max = _require_number(problems, merged, "n_max", kind=int, minimum=0)
        if n_max is not None and n_max % 2:
            problems.append(f"n_max must be even, got {n_max}")
    _grid_override(problems, merged)
    if problems:
        raise ConfigError("; ".join(problems))
    return SqueezeConfig(
        xi2=merged["xi2"], n_max=merged["n_max"], tail_tol=merged["tail_tol"],
        out_dir=merged["out_dir"], grid_half_width=merged["grid_half_width"],
        grid_count=merged["grid_count"],
    )


def _config_cat(args) -> CatConfig:
    merged = _resolve(args, {
        "xi2": None, "beta": None, "pr": None, "pr_over_beta": None,
        "sample": False, "seed": 0, "tail_tol": 1e-10, "out_dir": ".",
        "grid_half_width": None, "grid_count": None, "config": None,
    })
    problems = []
    _require_number(problems, merged, "xi2", strict=True, minimum=1.0)
    _require_number(problems, merged, "beta", strict=True, minimum=0.0)
    _require_seed(problems, merged)
    _require_number(problems, merged, "tail_tol", strict=True, minimum=0.0)
    _require_number(problems, merged, "pr", required=False)
    _require_number(problems, merged, "pr_over_beta", required=False)
    sources = sum([merged["pr"] is not None, merged["pr_over_beta"] is not None,
                   bool(merged["sample"])])
    if sources != 1:
        problems.append("exactly one of pr, pr_over_beta or sample must be given")
    _grid_override(problems, merged)
    if problems:
        raise ConfigError("; ".join(problems))
    return CatConfig(
        xi2=merged["xi2"], beta=merged["beta"], pr=merged["pr"],
        pr_over_beta=merged["pr_over_beta"], sample=bool(merged["sample"]),
        seed=merged["seed"], tail_tol=merged["tail_tol"], out_dir=merged["out_dir"],
        grid_half_width=merged["grid_half_width"], grid_count=merged["grid_count"],
    )


def _config_trajectories(args) -> TrajectoriesConfig:
    merged = _resolve(args, {
        "xi2": None, "beta": None, "count": None, "seed": 0, "bins": 100,
        "tail_tol": 1e-10, "out_dir": ".", "config": None,
    })
    problems = []
    _require_number(problems, merged, "xi2", strict=True, minimum=1.0)
    _require_number(problems, merged, "beta", strict=True, minimum=0.0)
    _require_number(problems, merged, "count", kind=int, minimum=1)
    _require_number(problems, merged, "bins", kind=int, minimum=1)
    _require_seed(problems, merged)
    _require_number(problems, merged, "tail_tol", strict=True, minimum=0.0)
    if problems:
        raise ConfigError("; ".join(problems))
    return TrajectoriesConfig(
        xi2=merged["xi2"], beta=merged["beta"], count=merged["count"],
        seed=merged["seed"], bins=merged["bins"], tail_tol=merged["tail_tol"],
        out_dir=merged["out_dir"],
    )


def _config_feasibility(args) -> FeasibilityConfig:
    merged = _resolve(args, {
        "preset": None, "kappa0": None, "gamma": None, "delta": None,
        "n_atoms": None, "n_photons": None, "transmission": 1.0,
        "polarization": 0.99, "tau_c": 0.1, "out_dir": ".", "config": None,
    })
    if merged["preset"] is not None:
        if merged["preset"] not in PRESETS:
            raise ConfigError(
                f"unknown preset {merged['preset']!r}; available: {sorted(PRESETS)}"
            )
        return FeasibilityConfig(params=PRESETS[merged["preset"]],
                                 preset=merged["preset"], out_dir=merged["out_dir"])
    problems = []
    kappa0 = _require_number(problems, merged, "kappa0", strict=True, minimum=0.0)
    gamma = _require_number(problems, merged, "gamma", strict=True, minimum=0.0)
    delta = _require_number(problems, merged, "delta")
    n_atoms = _require_number(problems, merged, "n_atoms", kind=int, minimum=1)
    n_photons = _require_number(problems, merged, "n_photons", strict=True, minimum=0.0)
    transmission = _require_number(problems, merged, "transmission",
                                   strict=True, minimum=0.0)
    polarization = _require_number(problems, merged, "polarization",
                                   strict=True, minimum=0.0)
    tau_c = _require_number(problems, merged, "tau_c", strict=True, minimum=0.0)
    if problems:
        raise ConfigError("; ".join(problems))
    try:
        params = ExperimentalParams(
            kappa0=kappa0, gamma=gamma, delta=delta, n_atoms=n_atoms,
            n_photons=n_photons, transmission=transmission,
            polarization=polarization, tau_c=tau_c,
        )
    except SpinCatError as exc:
        raise ConfigError(str(exc))
    return FeasibilityConfig(params=params, preset=None, out_dir=merged["out_dir"])


# ---------------------------------------------------------------------------
# commands


def _output_grid(cfg, fallback: QuadratureGrid) -> QuadratureGrid:
    if cfg.grid_half_width is not None:
        return QuadratureGrid(-cfg.grid_half_width, cfg.grid_half_width,
                              cfg.grid_count)
    return fallback


def run_squeeze(cfg: SqueezeConfig) -> dict:
    n_max = cfg.n_max
    if n_max is None:
        n_max = choose_truncation(cfg.xi2, 1.0, 0.0, cfg.tail_tol)
    exact = squeezed_state_exact(cfg.xi2, n_max)
    grid = _output_grid(cfg, grid_for_state(exact))
    dx2, dp2 = quadrature_variances(exact)

    families = [("squeeze_exact", exact)]
    stirling_overlap = None
    if cfg.xi2 > 1.0:
        stirling = squeezed_state_stirling(cfg.xi2, n_max)
        families.append(("squeeze_stirling", stirling))
        stirling_overlap = float(abs(np.vdot(exact.amplitudes, stirling.amplitudes)))
    wavefunctions = _expand(
        [(state, basis) for _, state in families for basis in (Basis.P, Basis.X)], grid)

    os.makedirs(cfg.out_dir, exist_ok=True)
    files = {}
    coords = io.format_coords(grid)
    for i, (prefix, state) in enumerate(families):
        _emit_state_family(state, wavefunctions[2 * i:2 * i + 2], coords,
                           cfg.out_dir, prefix, files)

    summary = {
        "xi2": cfg.xi2,
        "alpha": alpha_from_xi2(cfg.xi2),
        "n_max": n_max,
        "mean_occupation": mean_occupation(exact),
        "dx2": dx2,
        "dp2": dp2,
        "stirling_overlap": stirling_overlap,
    }
    path = os.path.join(cfg.out_dir, "squeeze_summary.json")
    io.write_json(summary, path)
    files["summary"] = path
    return {"command": "squeeze", "files": files, "summary": summary}


def _emit_state_family(state: NumberState, wavefunctions, coords: list[str],
                       out_dir: str, prefix: str, files: dict) -> None:
    path = os.path.join(out_dir, f"{prefix}_state.csv")
    io.write_number_state_csv(state, path)
    files[f"{prefix}_state"] = path
    for wf in wavefunctions:
        key = f"{prefix}_{wf.basis.value}"
        path = os.path.join(out_dir, f"{key}.csv")
        io.write_wavefunction_csv(wf, path, coords=coords)
        files[key] = path


def run_cat(cfg: CatConfig) -> dict:
    alpha = alpha_from_xi2(cfg.xi2)
    base_n_max = choose_truncation(cfg.xi2, cfg.beta, 0.0, cfg.tail_tol)
    base_state = squeezed_state_exact(cfg.xi2, base_n_max)

    rng = RandomSource(cfg.seed)
    p_P = None
    if cfg.sample:
        p_P = sample_first_outcome(alpha, rng)
        p_R = sample_second_outcome(base_state, cfg.beta, rng)
    elif cfg.pr is not None:
        p_R = cfg.pr
    else:
        p_R = cfg.beta * cfg.pr_over_beta

    mu_exact, mu_approx = mu_of_outcome(p_R, cfg.beta, cfg.xi2)
    n_max = choose_truncation(cfg.xi2, cfg.beta, max(mu_exact, mu_approx, 0.0),
                              cfg.tail_tol)
    squeezed = squeezed_state_exact(cfg.xi2, n_max)
    try:
        cat_state = apply_number_qnd(squeezed, cfg.beta, p_R)
    except ImprobableOutcomeError as exc:
        density = outcome_density_second(squeezed, cfg.beta)(p_R)
        exc.density = float(density)
        raise

    if mu_exact > 0.0:
        fallback = default_cat_grid(mu_exact, effective_max_index(cat_state))
    else:
        fallback = grid_for_state(cat_state)
    grid = _output_grid(cfg, fallback)

    exact_p, exact_x = (riemann_normalize(wf) for wf in _expand(
        [(cat_state, Basis.P), (cat_state, Basis.X)], grid))

    os.makedirs(cfg.out_dir, exist_ok=True)
    files = {}
    coords = io.format_coords(grid)
    path = os.path.join(cfg.out_dir, "cat_state.csv")
    io.write_number_state_csv(cat_state, path)
    files["cat_state"] = path
    for wf, name in ((exact_p, "cat_p"), (exact_x, "cat_x")):
        path = os.path.join(cfg.out_dir, f"{name}.csv")
        io.write_wavefunction_csv(wf, path, coords=coords)
        files[name] = path

    overlap_p = None
    if mu_exact > 0.0:
        params = CatApproxParams(mu=mu_exact, beta=cfg.beta)
        approx_p = approx_p_wavefunction(params, grid)
        approx_x = approx_x_wavefunction(params, grid)
        overlap_p = overlap(exact_p, approx_p)
        for wf, name in ((approx_p, "cat_approx_p"), (approx_x, "cat_approx_x")):
            path = os.path.join(cfg.out_dir, f"{name}.csv")
            io.write_wavefunction_csv(wf, path, coords=coords)
            files[name] = path

    metrics = compute_cat_metrics(exact_p, exact_x, mu_exact, cfg.beta, cfg.xi2)
    _, _, combined = check_cat_conditions(mu_exact, cfg.beta, cfg.xi2)
    metrics_doc = asdict(metrics)
    metrics_doc.update({
        "combined": combined,
        "mu_exact": mu_exact,
        "mu_approx": mu_approx,
        "overlap_p_approx": overlap_p,
        "p_P": p_P,
        "p_R": p_R,
        "xi2": cfg.xi2,
        "beta": cfg.beta,
    })
    path = os.path.join(cfg.out_dir, "cat_metrics.json")
    io.write_json(metrics_doc, path)
    files["metrics"] = path

    trace = ProtocolTrace(
        seed=cfg.seed, xi2=cfg.xi2, alpha=alpha, beta=cfg.beta, p_P=p_P,
        p_R=p_R, mu_exact=mu_exact, mu_approx=mu_approx, n_max=n_max,
        state_file=os.path.basename(files["cat_state"]),
    )
    path = os.path.join(cfg.out_dir, "cat_trace.json")
    io.write_json(asdict(trace), path)
    files["trace"] = path

    return {"command": "cat", "files": files, "metrics": metrics_doc}


def run_trajectories(cfg: TrajectoriesConfig) -> dict:
    """Trajectory i takes position i % TRAJECTORY_BLOCK of the block drawn
    from default_rng([seed, i // TRAJECTORY_BLOCK]); every block is drawn
    whole, so record i depends on the seed and i only."""
    alpha = alpha_from_xi2(cfg.xi2)
    n_max = choose_truncation(cfg.xi2, cfg.beta, 0.0, cfg.tail_tol)
    draw = outcome_sampler(alpha, squeezed_state_exact(cfg.xi2, n_max), cfg.beta)

    p_r_values = np.empty(cfg.count)
    resolvable_counts = []

    def blocks():
        for start in range(0, cfg.count, TRAJECTORY_BLOCK):
            size = min(TRAJECTORY_BLOCK, cfg.count - start)
            generator = np.random.default_rng([cfg.seed, start // TRAJECTORY_BLOCK])
            p_p, p_r = (a[:size] for a in draw(generator, TRAJECTORY_BLOCK))
            mu_exact, mu_approx = mu_of_outcome(p_r, cfg.beta, cfg.xi2)
            resolvable, reachable, combined = check_cat_conditions(
                mu_exact, cfg.beta, cfg.xi2)
            p_r_values[start:start + size] = p_r
            resolvable_counts.append(int(np.count_nonzero(resolvable)))
            yield io.format_trajectory_lines(start, p_p, p_r, mu_exact, mu_approx,
                                             resolvable, reachable, combined)

    os.makedirs(cfg.out_dir, exist_ok=True)
    files = {}
    path = os.path.join(cfg.out_dir, "trajectories.jsonl")
    io.write_json_lines(blocks(), path)
    files["trajectories"] = path

    counts, edges = np.histogram(p_r_values, bins=cfg.bins)
    path = os.path.join(cfg.out_dir, "pr_histogram.csv")
    io.write_histogram_csv(edges, counts, path)
    files["histogram"] = path

    p_r_mean = float(p_r_values.mean())
    # The steps of p_r_values.std(), in place: no second count-long array.
    p_r_values -= p_r_mean
    p_r_values *= p_r_values
    summary = {
        "count": cfg.count,
        "seed": cfg.seed,
        "xi2": cfg.xi2,
        "beta": cfg.beta,
        "n_max": n_max,
        "p_R_mean": p_r_mean,
        "p_R_std": math.sqrt(p_r_values.sum() / cfg.count),
        "fraction_resolvable": sum(resolvable_counts) / cfg.count,
    }
    return {"command": "trajectories", "files": files, "summary": summary}


def run_feasibility(cfg: FeasibilityConfig) -> dict:
    report = evaluate_scenario(cfg.params)
    os.makedirs(cfg.out_dir, exist_ok=True)
    doc = report.to_dict()
    if cfg.preset is not None:
        doc["preset"] = cfg.preset
    path = os.path.join(cfg.out_dir, "feasibility_report.json")
    io.write_json(doc, path)
    return {"command": "feasibility", "files": {"report": path}, "report": doc}


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "squeeze": (_config_squeeze, run_squeeze),
    "cat": (_config_cat, run_cat),
    "trajectories": (_config_trajectories, run_trajectories),
    "feasibility": (_config_feasibility, run_feasibility),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG

    build_config, run = _COMMANDS[args.command]
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = run(cfg)
    except ImprobableOutcomeError as exc:
        doc = {"error": str(exc), "kind": "improbable-outcome"}
        if getattr(exc, "density", None) is not None:
            doc["density"] = exc.density
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        return EXIT_IMPROBABLE
    except SpinCatError as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__},
                         sort_keys=True), file=sys.stderr)
        return EXIT_NUMERIC

    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
