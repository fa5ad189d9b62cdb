"""Command line front end: run experiment cells and write their artifacts.

An experiment is a grid of cells (environment x observation count). Each
cell can be sampled by MCMC, evaluated by quadrature, or both; `validate`
additionally compares the two routes by total-variation distance against
per-count tolerances.

Config precedence is flags over config file over built-in defaults. The
three are layered as raw JSON (each flag sets its config key) and then
checked in one pass against one schema, which is read from the fields of
`ModelParams`, `InferenceConfig`, `OutletSpec` and `ExperimentConfig`: a
key no field names is rejected, a bool field takes only true or false, an
int field only an integer, and a float field an integer or a number. Every
error names its key path and exits 2. Flags that pin an explicit budget
(--chains, --iters, --burn-in) also clear the per-count budget schedule, so
the requested numbers apply to every cell. A custom environment's name is
the stem of its cells' file names, so it must be ASCII letters, digits,
`_`, `-` and `.`, not starting with `.`.

Cells run one after another, counts outer and environments inner (the
figure's rows and columns); each runs its quadrature, then its chains, then
its artifacts. A complete run of three counts by three environments then
draws `figure2.svg`. The chains run on min(workers, usable cores, chains)
processes. With more than one, one process pool serves the whole experiment
and every cell's chains are queued on it before the first cell starts, so
the parent's quadrature and writing overlap later cells' sampling. A cell
is cut into batches by its share of the run's scans (`cell_batches`).
Before the first cell, the run removes the regular files it owns from an
earlier run in the same directory (the manifest, the figure and every
cell's four artifact files), so what is left there is what the manifest
lists.

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
failure. A runtime failure is a cell or the figure that raised; the run
stops there and still writes the manifest, with `"complete": false`, the
error naming the cell key or `figure2.svg`, and the cells finished before it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from polarsim.inference import (
    InferenceConfig,
    queue_chains,
    sample_posterior,
    write_samples_csv,
)
from polarsim.model import (
    BUILTIN_ENVIRONMENTS,
    DEFAULT_OUTLETS,
    MediaEnvironment,
    ModelParams,
    OutletSpec,
    builtin_environment,
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
from polarsim.trace import address_count

__all__ = [
    "ExperimentConfig",
    "UsageError",
    "TV_TOLERANCES",
    "DEFAULT_SCHEDULE",
    "load_config",
    "config_to_json",
    "run_experiment",
    "cell_batches",
    "usable_cores",
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
    100: {"n_chains": 16, "iterations": 750_000, "burn_in": 150_000, "thin": 48},
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
    workers: int = 1
    out_dir: Path = Path("out")
    mode: str = "both"

    def cell_inference(self, n_obs: int) -> InferenceConfig:
        """The base settings with any per-count budget override applied."""
        return replace(self.inference, **self.inference_by_n.get(n_obs, {}))


# The JSON a value of each annotated type must be, and what to call it in an
# error. Calling the type builds the value from the JSON. A bool passes only
# as a bool, so an int field takes no bool and a float field no bool.
_KINDS = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    Path: (str, "a path string"),
    list: (list, "a list"),
    dict: (dict, "an object"),
}


def _fields(cls, *kinds: type) -> dict[str, type]:
    """Name -> annotated type of each field of ``cls`` whose type is one of
    ``kinds`` (default: any type the schema knows)."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if hints[f.name] in (kinds or _KINDS)}


# The config schema. The top level takes ExperimentConfig's scalar fields
# and one inference field, the seed; the per-count schedule takes the
# integer budget fields, and an outlet override the emission numbers.
_LIFTED = {"seed": _fields(InferenceConfig)["seed"]}
_MODEL = _fields(ModelParams)
_INFERENCE = {k: t for k, t in _fields(InferenceConfig).items() if k not in _LIFTED}
_SCHEDULE = {k: t for k, t in _INFERENCE.items() if t is int}
_OUTLET = _fields(OutletSpec, float)
_SCALARS = _fields(ExperimentConfig)
_CONFIG = {
    **_LIFTED,
    **_SCALARS,
    "environments": list,
    "observation_counts": list,
    "model": dict,
    "inference": dict,
    "inference_by_n": dict,
}
_ENVIRONMENT = {"name": str, "weights": list, "outlets": dict}

_ENVIRONMENT_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")
_COUNT = re.compile(r"0|[1-9][0-9]*")


def _value(value, kind: type, section: str, name: str):
    """``value`` checked and built as a ``kind``; errors name ``section.name``
    (just ``name`` at the top level, where ``section`` is empty)."""
    json_type, what = _KINDS[kind]
    if not isinstance(value, json_type) or (isinstance(value, bool) and kind is not bool):
        raise UsageError(f"{section}.{name}: need {what}" if section else f"{name}: need {what}")
    try:
        return kind(value)
    except OverflowError:  # an integer too large for a float
        raise UsageError(f"{section}: {name} must be a finite number") from None


def _check(raw, schema: dict[str, type], section: str = "") -> dict:
    """``raw`` as an object whose keys ``schema`` names, each value checked
    and built as the key's type."""
    if not isinstance(raw, dict):
        raise UsageError(f"{section}: need an object")
    unknown = set(raw) - set(schema)
    if unknown:
        raise UsageError(f"{section or 'config'}: unknown keys {sorted(unknown)}")
    return {name: _value(value, schema[name], section, name) for name, value in raw.items()}


def _build(section: str, make, values: dict):
    """``make(**values)``, with its ValueError a usage error naming ``section``."""
    try:
        return make(**values)
    except ValueError as exc:
        raise UsageError(f"{section}: {exc}") from exc


def _parse_environment(entry: "str | dict") -> MediaEnvironment:
    """A built-in environment by name, or a custom one from its object."""
    if isinstance(entry, str):
        try:
            return builtin_environment(entry)
        except KeyError as exc:
            raise UsageError(f"environments: {exc.args[0]}") from None
    raw = _check(entry, _ENVIRONMENT, "environments")
    if "name" not in raw or "weights" not in raw:
        raise UsageError("environments: custom entries need 'name' and 'weights'")
    name = raw["name"]
    if not _ENVIRONMENT_NAME.fullmatch(name):
        raise UsageError(
            f"environments: bad name {name!r} (use letters, digits, '_', '-' "
            "and '.', not starting with '.')"
        )
    outlets = {spec.kind.value: spec for spec in DEFAULT_OUTLETS}
    for slot, overrides in raw.get("outlets", {}).items():
        if slot not in outlets:
            raise UsageError(f"environments.outlets: unknown outlet {slot!r}")
        section = f"environments.outlets.{slot}"
        outlets[slot] = _build(
            section, partial(replace, outlets[slot]), _check(overrides, _OUTLET, section)
        )
    section = f"environments[{name}]"
    weights = tuple(_value(w, float, section, "weights") for w in raw["weights"])
    return _build(
        section,
        MediaEnvironment,
        {"name": name, "weights": weights, "outlets": tuple(outlets.values())},
    )


def _read_config(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise UsageError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config: top level must be a JSON object")
    return data


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Layer defaults, the config file and flags as raw config, then check
    and build it in one pass."""
    data: dict = {
        "environments": sorted(BUILTIN_ENVIRONMENTS),
        "observation_counts": list(DEFAULT_OBSERVATION_COUNTS),
        "inference_by_n": {str(n): budget for n, budget in DEFAULT_SCHEDULE.items()},
    }
    if args.config is not None:
        data.update(_read_config(args.config))
    flags = {
        "seed": args.seed,
        "workers": args.workers,
        "grid_points": args.grid_points,
        "observation_counts": args.observations,
        "out_dir": None if args.out is None else str(args.out),
        "mode": args.command if args.command in MODES else None,
    }
    data.update({key: value for key, value in flags.items() if value is not None})
    budget = {"n_chains": args.chains, "iterations": args.iters, "burn_in": args.burn_in}
    budget = {key: value for key, value in budget.items() if value is not None}
    if budget:
        data["inference"] = {**_value(data.get("inference", {}), dict, "", "inference"), **budget}
        data["inference_by_n"] = {}

    raw = _check(data, _CONFIG)
    params = _build("model", ModelParams, _check(raw.get("model", {}), _MODEL, "model"))
    inference = _build(
        "inference",
        InferenceConfig,
        {
            **_check(raw.get("inference", {}), _INFERENCE, "inference"),
            **{key: raw[key] for key in _LIFTED if key in raw},
        },
    )
    inference_by_n = {}
    for key, overrides in raw["inference_by_n"].items():
        if not _COUNT.fullmatch(key):
            raise UsageError(f"inference_by_n: bad count {key!r}")
        inference_by_n[int(key)] = _check(overrides, _SCHEDULE, f"inference_by_n.{key}")
    environments = tuple(_parse_environment(e) for e in raw["environments"])
    if args.envs:
        by_name = {env.name: env for env in environments}
        environments = tuple(
            by_name[name] if name in by_name else _parse_environment(name)
            for name in args.envs
        )
    counts = tuple(_value(n, int, "", "observation_counts") for n in raw["observation_counts"])
    config = ExperimentConfig(
        environments=environments,
        observation_counts=counts,
        params=params,
        inference=inference,
        inference_by_n=inference_by_n,
        **{key: raw[key] for key in _SCALARS if key in raw},
    )

    if config.mode not in MODES:
        raise UsageError(f"mode: must be one of {', '.join(MODES)}")
    if not counts or min(counts) < 0:
        raise UsageError("observation_counts: need a list of non-negative integers")
    if len(set(counts)) != len(counts):
        raise UsageError("observation_counts: duplicate counts")
    if not environments:
        raise UsageError("environments: need at least one environment")
    names = [env.name for env in environments]
    if len(set(names)) != len(names):
        raise UsageError("environments: duplicate names")
    if config.mode == "validate":
        missing = [n for n in counts if n not in TV_TOLERANCES]
        if missing:
            raise UsageError(f"observation_counts: no validation tolerance for {missing}")
    if config.grid_points < 3:
        raise UsageError("grid_points: need an integer >= 3")
    if config.workers < 1:
        raise UsageError("workers: need an integer >= 1")
    # Per-count overrides must themselves form valid budgets.
    for n in counts:
        _build(f"inference_by_n.{n}", config.cell_inference, {"n_obs": n})
    return config


def config_to_json(config: ExperimentConfig, include_execution: bool = True) -> dict:
    """The resolved config as JSON data; execution keys are optional so the
    manifest stays byte-identical across worker counts and output dirs."""
    environments: list = []
    for env in config.environments:
        if BUILTIN_ENVIRONMENTS.get(env.name) == env:
            environments.append(env.name)
        else:
            outlets = {
                spec.kind.value: {f: getattr(spec, f) for f in _OUTLET}
                for spec in env.outlets
            }
            environments.append(
                {"name": env.name, "weights": list(env.weights), "outlets": outlets}
            )
    data = {
        "mode": config.mode,
        "environments": environments,
        "observation_counts": list(config.observation_counts),
        "seed": config.inference.seed,
        "model": {f: getattr(config.params, f) for f in _MODEL},
        "inference": {f: getattr(config.inference, f) for f in _INFERENCE},
        "inference_by_n": {
            str(n): dict(overrides)
            for n, overrides in sorted(config.inference_by_n.items())
        },
        "grid_points": config.grid_points,
    }
    if include_execution:
        data["workers"] = config.workers
        data["out_dir"] = str(config.out_dir)
    return data


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cell_batches(procs: int, cells: "list[tuple[int, InferenceConfig]]") -> list[int]:
    """How many batches to cut each cell's chains into, for ``cells`` given
    as (observation count, budget) and queued on ``procs`` processes.

    A lock-step scan costs about the same whatever the batch width, so a
    cell's cost is its scan count, iterations / (6N + 2), and a cell cut k
    ways costs about k times as much. Each cell gets its share of the
    processes by scan count, rounded, and at least one batch; the pool then
    runs the queued batches as processes free up.
    """
    scans = [budget.iterations / address_count(n_obs) for n_obs, budget in cells]
    total = sum(scans)
    return [max(1, round(procs * share / total)) for share in scans]


def run_experiment(config: ExperimentConfig) -> int:
    """Run every cell, write artifacts and the manifest, return exit code."""
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    want_mcmc = config.mode in ("mcmc", "both", "validate")
    want_oracle = config.mode in ("oracle", "both", "validate")
    # Counts outer, environments inner: the figure's rows and columns.
    order = [(n, env) for n in config.observation_counts for env in config.environments]
    # An earlier run's files would sit here unlisted by this run's manifest.
    owned = ["manifest.json", "figure2.svg"] + [
        f"{env.name}_{n}_{suffix}"
        for n, env in order
        for suffix in ("oracle.csv", "samples.csv", "hist.csv", "metrics.json")
    ]
    for name in owned:
        if (out / name).is_file():
            (out / name).unlink()

    started = time.perf_counter()
    cells: dict[str, dict] = {}
    finished: dict[str, tuple] = {}  # cell key -> (n_obs, env, hist, grid)
    cell_seconds: dict[str, float] = {}
    phases: dict[str, dict[str, float]] = {}
    failure = None

    # With a pool, every cell's chains are queued before the first cell's
    # quadrature, so the parent's quadrature and writing overlap sampling.
    # A fork-started pool starts every process at the first submit.
    pool = None
    queued: dict[str, typing.Iterator] = {}
    try:
        budgets = {n: config.cell_inference(n) for n in config.observation_counts}
        procs = min(config.workers, usable_cores(), sum(budgets[n].n_chains for n, _ in order))
        if want_mcmc and procs > 1:
            pool = ProcessPoolExecutor(max_workers=procs)
            counts = cell_batches(procs, [(n_obs, budgets[n_obs]) for n_obs, _ in order])
            for (n_obs, env), batches in zip(order, counts):
                queued[f"{env.name}_{n_obs}"] = queue_chains(
                    pool, batches, env, config.params, n_obs, budgets[n_obs]
                )
        for n_obs, env in order:
            cell_key = f"{env.name}_{n_obs}"
            marks = [time.perf_counter()]
            try:
                entry: dict = {}
                grid = hist = None
                if want_oracle:
                    grid = posterior(env, config.params, n_obs, grid_points=config.grid_points)
                marks.append(time.perf_counter())
                if want_mcmc:
                    run = sample_posterior(
                        env, config.params, n_obs, budgets[n_obs], chains=queued.get(cell_key)
                    )
                marks.append(time.perf_counter())
                if want_oracle:
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
                    entry["acceptance_by_branch"] = run.acceptance_by_branch
                metrics = metrics_from_grid(grid) if want_oracle else metrics_from_histogram(hist)
                write_metrics_json(metrics, out / f"{cell_key}_metrics.json")
                entry["metrics_json"] = f"{cell_key}_metrics.json"
                if want_oracle and want_mcmc:
                    entry["tv"] = tv_distance(hist, grid)
                cells[cell_key] = entry
                finished[cell_key] = (n_obs, env, hist, grid)
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
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    # A complete 3x3 run draws the figure, one row per observation count.
    figure = None
    if failure is None and len(config.observation_counts) == len(config.environments) == 3:
        panels = list(finished.values())
        rows = [panels[i : i + 3] for i in (0, 3, 6)]
        try:
            emit_figure(
                [[hist for _, _, hist, _ in row] for row in rows],
                [[grid for _, _, _, grid in row] for row in rows],
                out / "figure2.svg",
                [[f"{env.name} N={n}" for n, env, _, _ in row] for row in rows],
            )
            figure = "figure2.svg"
        except Exception as exc:
            failure = f"figure2.svg: {exc}"

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
    # Only validate mode has a tolerance for every count (load_config checks).
    checks = {}
    if config.mode == "validate":
        for cell_key, (n_obs, *_) in finished.items():
            tv, tolerance = cells[cell_key]["tv"], TV_TOLERANCES[n_obs]
            checks[cell_key] = {"tv": tv, "tolerance": tolerance, "passed": tv <= tolerance}
        manifest["validation"] = {
            "tolerances": {str(n): TV_TOLERANCES[n] for n in config.observation_counts},
            "cells": checks,
            "passed": all(check["passed"] for check in checks.values()),
        }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    if failure is not None:
        print(f"runtime failure: {failure}", file=sys.stderr)
        return 3
    failed = [cell_key for cell_key, check in checks.items() if not check["passed"]]
    if failed:
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
