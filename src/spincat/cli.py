"""Command-line front end.

Subcommands: squeeze, cat, trajectories, feasibility.  Every command is
deterministic given its full flag set (including --seed), writes files
atomically, and prints a single JSON result object on stdout.  Exit
codes: 0 success, 2 configuration error, 3 numeric/domain error,
4 improbable measurement outcome.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace

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
from .errors import DomainError, ImprobableOutcomeError, ResolutionError, SpinCatError
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
    QuadratureGrid,
    RandomSource,
    _TRUNCATION_CAP,
    _expand,
    choose_truncation,
    default_cat_grid,
    effective_max_index,
    grid_for_state,
    mean_occupation,
    quadrature_moment,
    riemann_norm,
    riemann_normalize,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IMPROBABLE = 4

# Trajectories drawn per generator in `trajectories`.  Changing it changes
# the records a seed gives.
TRAJECTORY_BLOCK = 8192


@dataclass(frozen=True)
class Field:
    """A flag and config field.  The flag is `--` and the name with `-` for
    `_`; a config file gives the value in the JSON type of the flag."""

    kind: type = float          # float, int, bool or str
    default: object = None
    required: bool = False
    minimum: float | None = None
    strict: bool = False        # the minimum itself is out of bounds
    maximum: int | None = None
    choices: tuple = ()
    help: str | None = None


_XI2 = Field(required=True, minimum=1.0, strict=True)
_BETA = Field(required=True, minimum=0.0, strict=True)
_TAIL_TOL = Field(default=1e-10, minimum=0.0, strict=True)
_SEED = Field(int, default=0, minimum=0, maximum=2 ** 64 - 1)
# Upper bounds on sizes keep a mistyped size from ending in a numpy error
# or a multi-gigabyte allocation.
_MAX_POINTS = 2 ** 20
_GRID = {"grid_half_width": Field(minimum=0.0, strict=True),
         "grid_count": Field(int, minimum=2, maximum=_MAX_POINTS)}
_OUT_DIR = Field(str, default=".")
# ExperimentalParams checks their bounds and gives the defaults.
_PARAMS = fields(ExperimentalParams)

FIELDS = {
    "squeeze": {
        "xi2": replace(_XI2, strict=False),
        "n_max": Field(int, minimum=0, maximum=_TRUNCATION_CAP),
        "tail_tol": _TAIL_TOL, **_GRID, "out_dir": _OUT_DIR,
    },
    "cat": {
        "xi2": _XI2, "beta": _BETA,
        "pr": Field(help="explicit second-step outcome p_R"),
        "pr_over_beta": Field(help="second-step outcome given as p_R/beta"),
        "sample": Field(bool, default=False, help="draw both outcomes from the seeded stream"),
        "tail_tol": _TAIL_TOL, "seed": _SEED, **_GRID, "out_dir": _OUT_DIR,
    },
    "trajectories": {
        "xi2": _XI2, "beta": _BETA,
        "count": Field(int, required=True, minimum=1, maximum=10 ** 7),
        "bins": Field(int, default=100, minimum=1, maximum=_MAX_POINTS),
        "tail_tol": _TAIL_TOL, "seed": _SEED, "out_dir": _OUT_DIR,
    },
    "feasibility": {
        "preset": Field(str, choices=tuple(sorted(PRESETS))),
        **{p.name: Field(int if p.name == "n_atoms" else float) for p in _PARAMS},
        "out_dir": _OUT_DIR,
    },
}


# ---------------------------------------------------------------------------
# argument parsing and config resolution


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincat",
        description="Two-step QND protocol simulator for collective-spin "
                    "squeezed and cat states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in FIELDS.items():
        cmd = sub.add_parser(command, help=_COMMANDS[command][0])
        for name, field in table.items():
            flag = "--" + name.replace("_", "-")
            if field.kind is bool:
                cmd.add_argument(flag, dest=name, action="store_const", const=True,
                                 help=field.help)
            else:
                cmd.add_argument(flag, dest=name, choices=field.choices or None,
                                 type=None if field.kind is str else number,
                                 help=field.help)
        cmd.add_argument("--config", help="JSON file with the same field names")
    return parser


def number(text: str) -> int | float:
    """Number flag text as an int where it is one, so that no digit of a
    large integer is lost, else as a float; _check takes it from there."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _configure(args: argparse.Namespace) -> list:
    """Layer CLI flags over a JSON config file over the table's defaults and
    check every value against its field.  Once all pass, check the rules of
    the command that tie several fields together.  Returns the problems."""
    table = FIELDS[args.command]
    base = {}
    if args.config:
        try:
            with open(args.config) as handle:
                base = json.load(handle)
        except (OSError, ValueError) as exc:
            return [f"cannot read config file: {exc}"]
        if not isinstance(base, dict):
            return ["config file must hold a JSON object"]
        unknown = set(base) - set(table)
        if unknown:
            return [f"unknown config fields: {sorted(unknown)}"]
    problems = []
    for name, field in table.items():
        value = getattr(args, name)
        if value is None:
            value = base.get(name)
        setattr(args, name, _check(name, field, value, problems))
    return problems or list(_COMMANDS[args.command][1](args))


# The JSON types a field of each kind takes, and their name in messages.
_JSON_TYPES = {float: ((int, float), "a number"), int: ((int, float), "a number"),
               bool: ((bool,), "true or false"), str: ((str,), "a string")}


def _check(name: str, field: Field, value, problems: list):
    """value as the field's kind, or its default when None; why a value is
    missing, mistyped or out of bounds goes into problems.  A number field
    takes an int or a float inside the double range, an int field only an
    integral one."""
    if value is None:
        if field.required:
            problems.append(f"{name} is required")
        return field.default
    types, kind_name = _JSON_TYPES[field.kind]
    if type(value) not in types:
        problems.append(f"{name} must be {kind_name}, got {value!r}")
        return None
    if field.kind in (int, float):
        try:
            as_float = float(value)
        except OverflowError:
            as_float = math.inf
        if not math.isfinite(as_float) or not as_float.is_integer() and field.kind is int:
            problem = "an integer" if math.isfinite(as_float) else "finite"
            problems.append(f"{name} must be {problem}, got {value!r}")
            return None
        value = as_float if field.kind is float else int(value)
    low = field.minimum
    if low is not None and (value <= low if field.strict else value < low):
        problems.append(f"{name} must be {'>' if field.strict else '>='} {low}, "
                        f"got {value!r}")
    elif field.maximum is not None and value > field.maximum:
        problems.append(f"{name} must be <= {field.maximum}, got {value!r}")
    elif field.choices and value not in field.choices:
        problems.append(f"{name} must be one of {list(field.choices)}, got {value!r}")
    return value


def _grid_pair(cfg):
    if (cfg.grid_half_width is None) != (cfg.grid_count is None):
        yield "grid overrides require both grid_half_width and grid_count"


def _squeeze_rules(cfg):
    yield from _grid_pair(cfg)
    if cfg.n_max is not None and cfg.n_max % 2:
        yield f"n_max must be even, got {cfg.n_max}"


def _cat_rules(cfg):
    yield from _grid_pair(cfg)
    if (cfg.pr is not None) + (cfg.pr_over_beta is not None) + cfg.sample != 1:
        yield "exactly one of pr, pr_over_beta or sample must be given"


def _feasibility_rules(cfg):
    """Also sets cfg.params: the preset's, or built from the fields given."""
    given = {p.name: getattr(cfg, p.name) for p in _PARAMS
             if getattr(cfg, p.name) is not None}
    if cfg.preset is not None:
        cfg.params = PRESETS[cfg.preset]
        yield from (f"preset excludes {name}" for name in given)
    elif missing := [p.name for p in _PARAMS
                     if p.default is MISSING and p.name not in given]:
        yield from (f"{name} is required" for name in missing)
    else:
        try:
            cfg.params = ExperimentalParams(**given)
        except SpinCatError as exc:
            yield str(exc)


# ---------------------------------------------------------------------------
# commands


class _OutDirError(Exception):
    """The output directory cannot be created: a configuration error."""


def _outputs(out_dir: str):
    """(files, write), where write(key, name, writer, *args, **kwargs)
    creates out_dir on its first call, records path = out_dir/name in
    files[key] and calls the io writer(*args, path, **kwargs).  When that
    first writer fails, the levels of out_dir the call created are removed
    again."""
    files = {}

    def write(key: str, name: str, writer, *args, **kwargs) -> None:
        created = []
        if not files:
            level = out_dir
            while level and not os.path.exists(level):
                created.append(level)
                level = os.path.dirname(level)
            try:
                os.makedirs(out_dir, exist_ok=True)
            except OSError as exc:
                raise _OutDirError(f"cannot create out_dir {out_dir!r}: {exc}") from exc
        files[key] = os.path.join(out_dir, name)
        try:
            writer(*args, files[key], **kwargs)
        except BaseException:
            for level in created:  # deepest first; rmdir keeps what is not empty
                with contextlib.suppress(OSError):
                    os.rmdir(level)
            raise

    return files, write


def _output_grid(cfg, fallback: QuadratureGrid) -> QuadratureGrid:
    if cfg.grid_half_width is not None:
        return QuadratureGrid(-cfg.grid_half_width, cfg.grid_half_width,
                              cfg.grid_count)
    return fallback


# Relative tolerance of squeeze's coverage check.  On default grids the
# worst residual, 6.3e-4, is at xi2 = 173.5, the last xi2 within
# HERMITE_N_BUDGET, where the eigenfunction rows lose mass past n = 700;
# for xi2 <= 60 it is below 5e-13.  A grid that cuts off the state misses
# by far more: on +-3 at xi2 = 20, 34 % of the p norm.
COVERAGE_TOL = 1e-3


def _check_coverage(wavefunctions, dx2: float, dp2: float) -> None:
    """Raise ResolutionError unless each wavefunction of a normalized state
    has a Riemann norm**2 within COVERAGE_TOL of 1 and a Riemann second
    moment within COVERAGE_TOL, relative, of dx2 (x) or dp2 (p)."""
    for wf in wavefunctions:
        moment = dx2 if wf.basis is Basis.X else dp2
        miss = max(abs(riemann_norm(wf) ** 2 - 1.0), abs(quadrature_moment(wf) / moment - 1.0))
        if not miss <= COVERAGE_TOL:
            raise ResolutionError(f"the {wf.basis.value} grid misses the state: norm or second "
                                  f"moment off by {miss:.3g} (tolerance {COVERAGE_TOL:g})")


def run_squeeze(cfg: argparse.Namespace) -> dict:
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
    _check_coverage(wavefunctions[:2], dx2, dp2)

    files, write = _outputs(cfg.out_dir)
    coords = io.format_coords(grid)
    for i, (prefix, state) in enumerate(families):
        write(f"{prefix}_state", f"{prefix}_state.csv", io.write_number_state_csv, state)
        for wf in wavefunctions[2 * i:2 * i + 2]:
            key = f"{prefix}_{wf.basis.value}"
            write(key, f"{key}.csv", io.write_wavefunction_csv, wf, coords=coords)

    summary = {
        "xi2": cfg.xi2,
        "alpha": alpha_from_xi2(cfg.xi2),
        "n_max": n_max,
        "mean_occupation": mean_occupation(exact),
        "dx2": dx2,
        "dp2": dp2,
        "stirling_overlap": stirling_overlap,
    }
    write("summary", "squeeze_summary.json", io.write_json, summary)
    return {"command": "squeeze", "files": files, "summary": summary}


def run_cat(cfg: argparse.Namespace) -> dict:
    """Computes everything before the first write, so a failing run leaves
    no file."""
    alpha = alpha_from_xi2(cfg.xi2)
    p_P = None
    if cfg.sample:
        base_n_max = choose_truncation(cfg.xi2, cfg.beta, 0.0, cfg.tail_tol)
        rng = RandomSource(cfg.seed)
        p_P = sample_first_outcome(alpha, rng)
        p_R = sample_second_outcome(squeezed_state_exact(cfg.xi2, base_n_max),
                                    cfg.beta, rng)
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
    wavefunctions = [("cat_p", exact_p), ("cat_x", exact_x)]
    overlap_p = None
    if mu_exact > 0.0:
        params = CatApproxParams(mu=mu_exact, beta=cfg.beta)
        approx_p = approx_p_wavefunction(params, grid)
        wavefunctions += [("cat_approx_p", approx_p),
                          ("cat_approx_x", approx_x_wavefunction(params, grid))]
        overlap_p = overlap(exact_p, approx_p)

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

    files, write = _outputs(cfg.out_dir)
    write("cat_state", "cat_state.csv", io.write_number_state_csv, cat_state)
    coords = io.format_coords(grid)
    for key, wf in wavefunctions:
        write(key, f"{key}.csv", io.write_wavefunction_csv, wf, coords=coords)
    write("metrics", "cat_metrics.json", io.write_json, metrics_doc)
    trace = ProtocolTrace(
        seed=cfg.seed, xi2=cfg.xi2, alpha=alpha, beta=cfg.beta, p_P=p_P,
        p_R=p_R, mu_exact=mu_exact, mu_approx=mu_approx, n_max=n_max,
        state_file=os.path.basename(files["cat_state"]),
    )
    write("trace", "cat_trace.json", io.write_json, asdict(trace))
    return {"command": "cat", "files": files, "metrics": metrics_doc}


def run_trajectories(cfg: argparse.Namespace) -> dict:
    """Trajectory i takes position i % TRAJECTORY_BLOCK of the block drawn
    from default_rng([seed, i // TRAJECTORY_BLOCK]); every block is drawn
    whole, so record i depends on the seed and i only."""
    alpha = alpha_from_xi2(cfg.xi2)
    n_max = choose_truncation(cfg.xi2, cfg.beta, 0.0, cfg.tail_tol)
    draw = outcome_sampler(alpha, squeezed_state_exact(cfg.xi2, n_max), cfg.beta)

    p_r_values = np.empty(cfg.count)
    resolvable_counts = []
    histogram = []

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
        # Binned before the stream ends, so a failure here leaves no file.
        try:
            histogram.extend(np.histogram(p_r_values, bins=cfg.bins))
        except ValueError as exc:  # finite outcomes: the edges cannot be split
            raise DomainError(
                f"p_R outcomes span [{p_r_values.min():.17g}, {p_r_values.max():.17g}], "
                f"too narrow in doubles for {cfg.bins} bins") from exc

    files, write = _outputs(cfg.out_dir)
    write("trajectories", "trajectories.jsonl", io.write_json_lines, blocks())
    counts, edges = histogram
    write("histogram", "pr_histogram.csv", io.write_histogram_csv, edges, counts)

    # The steps of p_r_values.mean() and .std(), in place: no second
    # count-long array.  Deviations are at most twice the peak; where their
    # squares could overflow, the values are first scaled by a power of two.
    peak, scale = max(p_r_values.max(), -p_r_values.min()), 1.0
    if peak > math.sqrt(sys.float_info.max / (4.0 * cfg.count)):
        scale = math.ldexp(1.0, math.frexp(peak)[1])
        p_r_values /= scale
    p_r_mean = float(p_r_values.mean())
    p_r_values -= p_r_mean
    p_r_values *= p_r_values
    summary = {
        "count": cfg.count,
        "seed": cfg.seed,
        "xi2": cfg.xi2,
        "beta": cfg.beta,
        "n_max": n_max,
        "p_R_mean": p_r_mean * scale,
        "p_R_std": math.sqrt(p_r_values.sum() / cfg.count) * scale,
        "fraction_resolvable": sum(resolvable_counts) / cfg.count,
    }
    return {"command": "trajectories", "files": files, "summary": summary}


def run_feasibility(cfg: argparse.Namespace) -> dict:
    report = evaluate_scenario(cfg.params)
    doc = report.to_dict()
    if cfg.preset is not None:
        doc["preset"] = cfg.preset
    files, write = _outputs(cfg.out_dir)
    write("report", "feasibility_report.json", io.write_json, doc)
    return {"command": "feasibility", "files": files, "report": doc}


# ---------------------------------------------------------------------------
# entry point

# command: (help, rules checked after the fields, run function)
_COMMANDS = {
    "squeeze": ("prepare and analyze a squeezed state", _squeeze_rules, run_squeeze),
    "cat": ("run both QND steps and analyze the cat state", _cat_rules, run_cat),
    "trajectories": ("Monte Carlo over full protocol runs", lambda cfg: (), run_trajectories),
    "feasibility": ("experimental feasibility report", _feasibility_rules, run_feasibility),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG

    problems = _configure(args)
    if problems:
        print(f"config error: {'; '.join(problems)}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = _COMMANDS[args.command][2](args)
    except _OutDirError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
