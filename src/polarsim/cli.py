"""Command line front end: run experiment cells and write their artifacts.

An experiment is a grid of cells (environment x observation count). Each
cell can be sampled by MCMC, evaluated by quadrature, or both; `validate`
additionally compares the two routes by total-variation distance against
per-count tolerances.

Config precedence is flags over config file over built-in defaults. Flags
that pin an explicit budget (--chains, --iters, --burn-in) discard the
per-count budget schedule, so the requested numbers apply to every cell.

Cells run in order: quadrature, then the cell's chains, then its artifacts.
With more than one worker, one process pool serves the whole experiment and
every cell's chains are queued on it before the first cell starts, so the
parent's quadrature and writing overlap the sampling of later cells.

The manifest echoes the experiment configuration but not execution details
(worker count, output directory), and all wall-clock numbers live under the
single `timing_seconds` key, so two runs with the same seed produce
byte-identical artifacts once that key is ignored. Per cell it holds the
total seconds (`cells`) and their split (`phases`): `oracle` (quadrature),
`sampling_wait` (time the parent blocked on the cell's chains) and
`artifacts` (summaries and files).

The metrics JSON for a cell summarizes the quadrature density when the mode
computes one, otherwise the sampled histogram.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from polarsim.inference import (
    InferenceConfig,
    queue_chains,
    sample_posterior,
    write_samples_csv,
)
from polarsim.model import (
    BUILTIN_ENVIRONMENTS,
    FAKE_NEWS_PARTISAN,
    MediaEnvironment,
    ModelParams,
    PREMIUM_CENTRIST,
    PREMIUM_PARTISAN,
)
from polarsim.oracle import posterior, write_grid_csv
from polarsim.report import (
    bin_samples,
    emit_figure,
    metrics_from_grid,
    metrics_from_histogram,
    tv_distance,
    write_histogram_csv,
    write_metrics_json,
)

__all__ = [
    "ExperimentConfig",
    "UsageError",
    "TV_TOLERANCES",
    "DEFAULT_SCHEDULE",
    "load_config",
    "config_to_json",
    "run_experiment",
    "main",
]

MODES = ("mcmc", "oracle", "both", "validate")

TV_TOLERANCES = {1: 0.03, 10: 0.05, 100: 0.10}

DEFAULT_OBSERVATION_COUNTS = (1, 10, 100)

# Sampling budgets sized so each cell clears its TV tolerance with margin.
# Longer observation sequences mix slower (more sites per politics update
# and a metastable wide-politics basin at 100 observations), so the budget
# shifts from many short chains to few long ones.
DEFAULT_SCHEDULE: dict[int, dict[str, int]] = {
    1: {"n_chains": 256, "iterations": 3_100, "burn_in": 100, "thin": 3},
    10: {"n_chains": 128, "iterations": 40_000, "burn_in": 8_000, "thin": 16},
    100: {"n_chains": 16, "iterations": 3_000_000, "burn_in": 1_000_000, "thin": 150},
}

_OUTLET_SLOTS = ("premium_centrist", "premium_partisan", "fake_news_partisan")
_DEFAULT_OUTLETS = (PREMIUM_CENTRIST, PREMIUM_PARTISAN, FAKE_NEWS_PARTISAN)
_OUTLET_NUMERIC_FIELDS = (
    "politics_mean_magnitude",
    "politics_sd",
    "truth_mean",
    "truth_sd",
)

_MODEL_FIELDS = (
    "discount_scale",
    "discount_base",
    "likelihood_sd",
    "prior_politics_sd",
    "analytic_low",
    "analytic_high",
)

_INFERENCE_FIELDS = (
    "n_chains",
    "iterations",
    "burn_in",
    "thin",
    "prior_prob",
    "walk_scale",
    "flip_prob",
    "disable_likelihood",
)

_SCHEDULE_FIELDS = ("n_chains", "iterations", "burn_in", "thin")

_CONFIG_KEYS = {
    "mode",
    "environments",
    "observation_counts",
    "seed",
    "workers",
    "out_dir",
    "grid_points",
    "model",
    "inference",
    "inference_by_n",
}


class UsageError(Exception):
    """Bad flags or config values; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    environments: tuple[MediaEnvironment, ...]
    observation_counts: tuple[int, ...]
    params: ModelParams
    inference: InferenceConfig
    inference_by_n: dict[int, dict[str, int]] = field(default_factory=dict)
    grid_points: int = 801
    out_dir: Path = Path("out")
    mode: str = "both"

    def cell_inference(self, n_obs: int) -> InferenceConfig:
        """The base settings with any per-count budget override applied."""
        return replace(self.inference, **self.inference_by_n.get(n_obs, {}))


# What a JSON value must be for a dataclass field of each annotated type.
_FIELD_KINDS = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
}


def _require(value, kind: "type | tuple[type, ...]", key: str, what: str):
    """``value`` if it is a ``kind`` (a bool passes only as a bool), else a
    usage error naming ``key``."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise UsageError(f"{key}: need {what}")
    return value


def _parse_environment(entry: "str | dict") -> MediaEnvironment:
    if isinstance(entry, str):
        if entry not in BUILTIN_ENVIRONMENTS:
            known = ", ".join(sorted(BUILTIN_ENVIRONMENTS))
            raise UsageError(
                f"environments: unknown environment {entry!r} (known: {known})"
            )
        return BUILTIN_ENVIRONMENTS[entry]
    if not isinstance(entry, dict):
        raise UsageError("environments: entries must be names or objects")
    unknown = set(entry) - {"name", "weights", "outlets"}
    if unknown:
        raise UsageError(f"environments: unknown keys {sorted(unknown)}")
    if "name" not in entry or "weights" not in entry:
        raise UsageError("environments: custom entries need 'name' and 'weights'")
    outlets = list(_DEFAULT_OUTLETS)
    slots = _require(entry.get("outlets") or {}, dict, "environments.outlets", "an object")
    for slot, overrides in slots.items():
        if slot not in _OUTLET_SLOTS:
            raise UsageError(f"environments.outlets: unknown outlet {slot!r}")
        _require(overrides, dict, f"environments.outlets.{slot}", "an object")
        bad = set(overrides) - set(_OUTLET_NUMERIC_FIELDS)
        if bad:
            raise UsageError(f"environments.outlets.{slot}: unknown keys {sorted(bad)}")
        index = _OUTLET_SLOTS.index(slot)
        try:
            outlets[index] = replace(
                outlets[index], **{k: float(v) for k, v in overrides.items()}
            )
        except (TypeError, ValueError) as exc:
            raise UsageError(f"environments.outlets.{slot}: {exc}") from exc
    try:
        return MediaEnvironment(
            str(entry["name"]),
            tuple(float(w) for w in entry["weights"]),
            tuple(outlets),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"environments[{entry.get('name')}]: {exc}") from exc


def _build_section(name: str, cls, defaults, raw: dict, allowed: tuple):
    _require(raw, dict, name, "an object")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise UsageError(f"{name}: unknown keys {sorted(unknown)}")
    types = typing.get_type_hints(cls)
    for key, value in raw.items():
        kind, what = _FIELD_KINDS[types[key]]
        _require(value, kind, f"{name}.{key}", what)
    try:
        return replace(defaults, **raw) if defaults is not None else cls(**raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{name}: {exc}") from exc


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Resolve defaults, then the config file, then flags, and validate."""
    data: dict = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise UsageError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("config: top level must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"config: unknown keys {sorted(unknown)}")

    environments = tuple(
        _parse_environment(e)
        for e in _require(
            data.get("environments", sorted(BUILTIN_ENVIRONMENTS)),
            list,
            "environments",
            "a list of names or objects",
        )
    )
    params = _build_section(
        "model", ModelParams, ModelParams(), data.get("model", {}), _MODEL_FIELDS
    )
    inference = _build_section(
        "inference",
        InferenceConfig,
        InferenceConfig(),
        data.get("inference", {}),
        _INFERENCE_FIELDS,
    )

    inference_by_n: dict[int, dict[str, int]] = {
        n: dict(overrides) for n, overrides in DEFAULT_SCHEDULE.items()
    }
    if "inference_by_n" in data:
        inference_by_n = {}
        by_n = _require(data["inference_by_n"], dict, "inference_by_n", "an object")
        for key, overrides in by_n.items():
            try:
                count = int(key)
            except ValueError as exc:
                raise UsageError(f"inference_by_n: bad count {key!r}") from exc
            _require(overrides, dict, f"inference_by_n.{key}", "an object")
            unknown = set(overrides) - set(_SCHEDULE_FIELDS)
            if unknown:
                raise UsageError(f"inference_by_n.{key}: unknown keys {sorted(unknown)}")
            inference_by_n[count] = {
                k: _require(v, int, f"inference_by_n.{key}.{k}", "an integer")
                for k, v in overrides.items()
            }

    observation_counts = data.get("observation_counts", list(DEFAULT_OBSERVATION_COUNTS))
    mode = data.get("mode", "both")
    grid_points = data.get("grid_points", 801)
    out_dir = Path(_require(data.get("out_dir", "out"), str, "out_dir", "a path string"))
    seed = data.get("seed")
    workers = data.get("workers")

    if args.envs:
        by_name = {env.name: env for env in environments}
        selected = []
        for name in args.envs:
            if name not in by_name:
                env = _parse_environment(name)
                by_name[env.name] = env
            selected.append(by_name[name])
        environments = tuple(selected)
    if args.observations is not None:
        observation_counts = args.observations
    if args.seed is not None:
        seed = args.seed
    if args.workers is not None:
        workers = args.workers
    if args.grid_points is not None:
        grid_points = args.grid_points
    if args.out is not None:
        out_dir = Path(args.out)

    budget_flags = {}
    if args.chains is not None:
        budget_flags["n_chains"] = args.chains
    if args.iters is not None:
        budget_flags["iterations"] = args.iters
    if args.burn_in is not None:
        budget_flags["burn_in"] = args.burn_in
    if budget_flags:
        inference_by_n = {}

    overrides = dict(budget_flags)
    if seed is not None:
        overrides["seed"] = _require(seed, int, "seed", "an integer")
    if workers is not None:
        overrides["workers"] = _require(workers, int, "workers", "an integer")
    if overrides:
        try:
            inference = replace(inference, **overrides)
        except ValueError as exc:
            raise UsageError(f"inference: {exc}") from exc

    if args.command in ("mcmc", "oracle", "validate"):
        mode = args.command
    if mode not in MODES:
        raise UsageError(f"mode: must be one of {', '.join(MODES)}")

    what = "a list of non-negative integers"
    observation_counts = tuple(
        _require(n, int, "observation_counts", what)
        for n in _require(observation_counts, list, "observation_counts", what)
    )
    if not observation_counts or any(n < 0 for n in observation_counts):
        raise UsageError(f"observation_counts: need {what}")
    if len(set(observation_counts)) != len(observation_counts):
        raise UsageError("observation_counts: duplicate counts")
    if not environments:
        raise UsageError("environments: need at least one environment")
    names = [env.name for env in environments]
    if len(set(names)) != len(names):
        raise UsageError("environments: duplicate names")
    if mode == "validate":
        missing = [n for n in observation_counts if n not in TV_TOLERANCES]
        if missing:
            raise UsageError(
                f"observation_counts: no validation tolerance for {missing}"
            )
    if not isinstance(grid_points, int) or grid_points < 3:
        raise UsageError("grid_points: need an integer >= 3")

    # Per-count overrides must themselves form valid budgets.
    config = ExperimentConfig(
        environments=environments,
        observation_counts=observation_counts,
        params=params,
        inference=inference,
        inference_by_n=inference_by_n,
        grid_points=grid_points,
        out_dir=out_dir,
        mode=mode,
    )
    for n in observation_counts:
        try:
            config.cell_inference(n)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"inference_by_n.{n}: {exc}") from exc
    return config


def config_to_json(config: ExperimentConfig, include_execution: bool = True) -> dict:
    """The resolved config as JSON data; execution keys are optional so the
    manifest stays byte-identical across worker counts and output dirs."""
    environments: list = []
    for env in config.environments:
        builtin = BUILTIN_ENVIRONMENTS.get(env.name)
        if builtin == env:
            environments.append(env.name)
        else:
            environments.append(
                {
                    "name": env.name,
                    "weights": list(env.weights),
                    "outlets": {
                        slot: {f: getattr(spec, f) for f in _OUTLET_NUMERIC_FIELDS}
                        for slot, spec in zip(_OUTLET_SLOTS, env.outlets)
                    },
                }
            )
    data = {
        "mode": config.mode,
        "environments": environments,
        "observation_counts": list(config.observation_counts),
        "seed": config.inference.seed,
        "model": {f: getattr(config.params, f) for f in _MODEL_FIELDS},
        "inference": {f: getattr(config.inference, f) for f in _INFERENCE_FIELDS},
        "inference_by_n": {
            str(n): dict(overrides)
            for n, overrides in sorted(config.inference_by_n.items())
        },
        "grid_points": config.grid_points,
    }
    if include_execution:
        data["workers"] = config.inference.workers
        data["out_dir"] = str(config.out_dir)
    return data


def run_experiment(config: ExperimentConfig) -> int:
    """Run every cell, write artifacts and the manifest, return exit code."""
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    want_mcmc = config.mode in ("mcmc", "both", "validate")
    want_oracle = config.mode in ("oracle", "both", "validate")

    n_rows = len(config.observation_counts)
    n_cols = len(config.environments)
    hist_grid = [[None] * n_cols for _ in range(n_rows)]
    overlay_grid = [[None] * n_cols for _ in range(n_rows)]
    titles = [
        [f"{env.name} N={n}" for env in config.environments]
        for n in config.observation_counts
    ]

    started = time.perf_counter()
    cells: dict[str, dict] = {}
    cell_seconds: dict[str, float] = {}
    phases: dict[str, dict[str, float]] = {}
    # Only validate mode has a tolerance for every count (load_config checks).
    validation = {
        "tolerances": (
            {str(n): TV_TOLERANCES[n] for n in config.observation_counts}
            if config.mode == "validate"
            else {}
        ),
        "cells": {},
        "passed": True,
    }
    failure = None

    # With a pool, every cell's chains are queued before the first cell's
    # quadrature, so the parent's quadrature and writing overlap sampling.
    pool = None
    queued: dict[str, typing.Iterator] = {}
    try:
        if want_mcmc and config.inference.workers > 1:
            pool = ProcessPoolExecutor(max_workers=config.inference.workers)
            for n_obs in config.observation_counts:
                for env in config.environments:
                    queued[f"{env.name}_{n_obs}"] = queue_chains(
                        pool, env, config.params, n_obs, config.cell_inference(n_obs)
                    )
        for row, n_obs in enumerate(config.observation_counts):
            for col, env in enumerate(config.environments):
                cell_key = f"{env.name}_{n_obs}"
                marks = [time.perf_counter()]
                try:
                    entry: dict = {}
                    grid = None
                    hist = None
                    if want_oracle:
                        grid = posterior(
                            env, config.params, n_obs, grid_points=config.grid_points
                        )
                    marks.append(time.perf_counter())
                    if want_mcmc:
                        run = sample_posterior(
                            env,
                            config.params,
                            n_obs,
                            config.cell_inference(n_obs),
                            chains=queued.get(cell_key),
                        )
                    marks.append(time.perf_counter())
                    if grid is not None:
                        write_grid_csv(grid, out / f"{cell_key}_oracle.csv")
                        entry["oracle_csv"] = f"{cell_key}_oracle.csv"
                    if want_mcmc:
                        write_samples_csv(run, out / f"{cell_key}_samples.csv")
                        hist = bin_samples(run.politics)
                        write_histogram_csv(hist, out / f"{cell_key}_hist.csv")
                        entry["samples_csv"] = f"{cell_key}_samples.csv"
                        entry["hist_csv"] = f"{cell_key}_hist.csv"
                        entry["kept_samples"] = int(run.politics.size)
                        entry["acceptance_rate"] = run.acceptance_rate
                        entry["proposals"] = run.n_proposals
                        entry["accepted"] = run.n_accepted
                        entry["flips"] = run.n_flips
                    metrics = (
                        metrics_from_grid(grid)
                        if grid is not None
                        else metrics_from_histogram(hist)
                    )
                    write_metrics_json(metrics, out / f"{cell_key}_metrics.json")
                    entry["metrics_json"] = f"{cell_key}_metrics.json"
                    if grid is not None and hist is not None:
                        entry["tv"] = tv_distance(hist, grid)
                    if config.mode == "validate":
                        tolerance = TV_TOLERANCES[n_obs]
                        passed = entry["tv"] <= tolerance
                        validation["cells"][cell_key] = {
                            "tv": entry["tv"],
                            "tolerance": tolerance,
                            "passed": passed,
                        }
                        if not passed:
                            validation["passed"] = False
                    cells[cell_key] = entry
                    hist_grid[row][col] = hist
                    overlay_grid[row][col] = grid
                except Exception as exc:
                    failure = f"{cell_key}: {exc}"
                finally:
                    marks.append(time.perf_counter())
                    cell_seconds[cell_key] = round(marks[-1] - marks[0], 3)
                    phases[cell_key] = {
                        name: round(end - begin, 3)
                        for name, begin, end in zip(
                            ("oracle", "sampling_wait", "artifacts"), marks, marks[1:]
                        )
                    }
                if failure:
                    break
            if failure:
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    figure = None
    if failure is None and n_rows == 3 and n_cols == 3:
        emit_figure(hist_grid, overlay_grid, out / "figure2.svg", titles)
        figure = "figure2.svg"

    manifest = {
        "mode": config.mode,
        "seed": config.inference.seed,
        "config": config_to_json(config, include_execution=False),
        "cells": cells,
        "figure": figure,
        "complete": failure is None,
        "timing_seconds": {
            "total": round(time.perf_counter() - started, 3),
            "cells": cell_seconds,
            "phases": phases,
        },
    }
    if failure is not None:
        manifest["error"] = failure
    if config.mode == "validate":
        manifest["validation"] = validation
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )

    if failure is not None:
        print(f"runtime failure: {failure}", file=sys.stderr)
        return 3
    if config.mode == "validate" and not validation["passed"]:
        failed = [k for k, v in validation["cells"].items() if not v["passed"]]
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the resolved configuration and exit",
    )
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument(
        "--env",
        action="append",
        dest="envs",
        metavar="NAME",
        help="restrict to this environment (repeatable)",
    )
    parser.add_argument(
        "--observations", type=int, nargs="+", metavar="N", help="observation counts"
    )
    parser.add_argument("--chains", type=int, help="chains per cell")
    parser.add_argument("--iters", type=int, help="iterations per chain")
    parser.add_argument("--burn-in", type=int, help="discarded warmup iterations")
    parser.add_argument("--seed", type=int, help="experiment seed")
    parser.add_argument("--workers", type=int, help="sampler process count")
    parser.add_argument("--grid-points", type=int, help="quadrature grid points")
    parser.add_argument("--out", type=Path, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarsim",
        description="Posterior politics distributions under mixed media diets.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("run", "sample and evaluate every cell (mode from config, default both)"),
        ("mcmc", "sample only"),
        ("oracle", "quadrature densities only"),
        ("validate", "compare sampler to quadrature against TV tolerances"),
        ("print-config", "print the resolved configuration and exit"),
    )
    for name, help_text in commands:
        _add_common_flags(subparsers.add_parser(name, help=help_text))
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "print-config" or args.print_config:
        print(json.dumps(config_to_json(config), indent=2, sort_keys=True))
        return 0
    try:
        return run_experiment(config)
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
