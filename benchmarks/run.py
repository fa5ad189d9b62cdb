"""Benchmark of the `polarsim` command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is taken from `src/`.
Every `polarsim` invocation runs in a fresh interpreter, with BLAS threads
pinned to 1. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; progress and reference
figures go to standard error.

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh interpreters that import `polarsim` and resolve the workload's
config), then repeated invocations for about S seconds (median wall time,
peak resident set and CPU time). --trace 1 runs the workload once untraced
and once under `traced.py`, both with `--workers 1`, and reports per-layer
metrics from the spans, which it writes to `benchmarks/out/spans/`.
Both modes check every artifact; see README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import essdiag
import refmodel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CONFIGS = BENCH / "configs"
SETUP_REPEATS = 7

SETUP_CODE = (
    "import sys\n"
    "from polarsim import cli\n"
    "cli.load_config(cli.build_parser().parse_args(sys.argv[1:]))\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB", "cpu_s": "s"}


@dataclass(frozen=True)
class Workload:
    """One `polarsim` command line plus the checks its artifacts must pass."""

    command: str
    flags: tuple[str, ...]
    workers: int
    check: Callable[[Path, dict, int], list[str]]

    def argv(self, seed: int, workers: int, out: Path, command: "str | None" = None) -> list[str]:
        return [
            command or self.command, *self.flags,
            "--seed", str(seed), "--workers", str(workers), "--out", str(out),
        ]


def _check_quadrature(out: Path, manifest: dict, seed: int) -> list[str]:
    rng = np.random.default_rng([seed, 1])
    return checks.check_grids(out) + checks.check_n1_against_simulation(
        out / "ME2_1_oracle.csv", refmodel.ENVIRONMENTS["ME2"], checks.model_params(manifest), rng
    )


def _check_mcmc(out: Path, manifest: dict, seed: int) -> list[str]:
    from polarsim.model import BUILTIN_ENVIRONMENTS, ModelParams

    failures = checks.check_kept(out, manifest)
    params = ModelParams(**manifest["config"]["model"])
    for key, (n_obs, draws) in checks.cell_draws(out, manifest).items():
        env = BUILTIN_ENVIRONMENTS[key.rsplit("_", 1)[0]]
        reference = checks.quadrature_moments(env, params, n_obs)
        failures += checks.check_moments(draws, reference, key)
    return failures


def _check_run(out: Path, manifest: dict, seed: int) -> list[str]:
    from polarsim.cli import TV_TOLERANCES

    failures = checks.check_grids(out) + checks.check_kept(out, manifest)
    config = manifest["config"]
    cells = len(config["environments"]) * len(config["observation_counts"])
    if not manifest["complete"] or len(manifest["cells"]) != cells:
        failures.append(f"manifest incomplete: {sorted(manifest['cells'])}")
    return failures + checks.check_tv(out, manifest, TV_TOLERANCES)


WORKLOADS = {
    "quadrature-builtin": Workload(
        "oracle",
        ("--env", "ME2", "--observations", "1", "10", "100", "--grid-points", "81"),
        workers=1,
        check=_check_quadrature,
    ),
    "mcmc-long-n100": Workload(
        "mcmc",
        ("--config", str(CONFIGS / "mcmc-long-n100.json")),
        workers=1,
        check=_check_mcmc,
    ),
    "run-custom-short": Workload(
        "run",
        ("--config", str(CONFIGS / "run-custom-short.json")),
        workers=2,
        check=_check_run,
    ),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass(frozen=True)
class Invocation:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float


def invoke(argv: list[str], log_path: Path) -> Invocation:
    """Run one process to its end; resource use covers it and every child it reaped."""
    start = time.perf_counter()
    with open(log_path, "wb") as sink:
        proc = subprocess.Popen(
            argv, env=child_environment(), stdout=sink, stderr=subprocess.STDOUT
        )
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
    )


def polarsim(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "polarsim.cli", *args]


def digest(out: Path, names: "set[str] | None" = None) -> str:
    """SHA-256 over every artifact (or the named ones), without `timing_seconds`."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if names is not None and path.name not in names:
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("timing_seconds")
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


class Run:
    """Invocations of one workload under one seed, in their own directory."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.dir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
        self.count = 0
        self.failed = 0
        self.failures: list[str] = []

    def invoke(self, argv_for: Callable[[Path], list[str]]) -> tuple[Invocation, Path]:
        self.count += 1
        out = self.dir / f"inv{self.count}"
        out.mkdir(parents=True)
        result = invoke(argv_for(out), self.dir / f"inv{self.count}.log")
        if result.returncode != 0:
            self.failed += 1
            tail = (self.dir / f"inv{self.count}.log").read_text()[-500:]
            log(f"invocation {self.count} exited {result.returncode}: {tail}")
        return result, out

    def run_workload(self, workers: int) -> tuple[Invocation, Path]:
        return self.invoke(lambda out: polarsim(self.workload.argv(self.seed, workers, out)))

    def check(self, out: Path) -> dict:
        manifest = checks.load_manifest(out)
        self.failures += self.workload.check(out, manifest, self.seed)
        return manifest

    def measure(self, seconds: float) -> dict[str, float]:
        """Set-up time, then invocations for about ``seconds``; end-to-end metrics."""
        setup_args = self.workload.argv(self.seed, self.workload.workers, self.dir / "setup")
        setup = []
        for _ in range(SETUP_REPEATS):
            result, _ = self.invoke(lambda out: [sys.executable, "-c", SETUP_CODE, *setup_args])
            setup.append(result.wall_s)

        timed, digests, first = [], set(), None
        start = time.perf_counter()
        while True:
            result, out = self.run_workload(self.workload.workers)
            if result.returncode == 0:
                log(f"invocation {self.count}: wall {result.wall_s:.3f} s, cpu {result.cpu_s:.3f} s, "
                    f"peak {result.peak_rss_mib:.1f} MiB")
                timed.append(result)
                digests.add(digest(out))
                if first is None:
                    first = out
                else:
                    shutil.rmtree(out)
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.wall_s for r in timed) if timed else elapsed
            if elapsed + typical > seconds:
                break
        if len(digests) > 1:
            self.failures.append(f"{len(digests)} different artifact digests under one seed")
        if first is None:
            return {}

        manifest = self.check(first)
        if self.workload.workers > 1:
            self.compare_worker_counts(first, manifest)
        report_cells(first, manifest, statistics.median(r.wall_s for r in timed))
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall_s for r in timed),
            "peak_rss_mib": statistics.median(r.peak_rss_mib for r in timed),
            "cpu_s": statistics.median(r.cpu_s for r in timed),
        }

    def compare_worker_counts(self, out: Path, manifest: dict) -> None:
        """Sampled artifacts of `mcmc --workers 1` must equal those of the timed run.

        The worker count only schedules chains, so it can touch only the
        sampled files; the rest is computed in the parent process.
        """
        result, single = self.invoke(
            lambda o: polarsim(self.workload.argv(self.seed, 1, o, command="mcmc"))
        )
        if result.returncode != 0:
            return
        sampled = {
            entry[kind]
            for entry in manifest["cells"].values()
            for kind in ("samples_csv", "hist_csv")
        }
        if digest(single, sampled) != digest(out, sampled):
            self.failures.append("sampled artifacts differ between --workers 1 and 2")
        serial = checks.load_manifest(single)["timing_seconds"]["cells"]
        pooled = manifest["timing_seconds"]["cells"]
        for key in sorted(serial):
            if key.endswith("_10"):
                log(f"reference: {key} cell seconds, 1 worker {serial[key]} / 2 workers "
                    f"{pooled[key]} = speed-up {serial[key] / pooled[key]:.2f}")

    def trace(self) -> dict[str, float]:
        """One untraced and one traced invocation with --workers 1; per-layer metrics."""
        plain, plain_out = self.run_workload(1)
        spans_path = self.dir / "spans.json"
        traced, traced_out = self.invoke(
            lambda out: [
                sys.executable, str(BENCH / "traced.py"), str(spans_path),
                *self.workload.argv(self.seed, 1, out),
            ]
        )
        if plain.returncode or traced.returncode:
            return {}
        if digest(plain_out) != digest(traced_out):
            self.failures.append("tracing changed the artifacts")
        manifest = self.check(plain_out)
        spans = json.loads(spans_path.read_text())["spans"]
        self.failures += checks.check_chains(spans, checks.model_params(manifest))
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        shutil.copy(spans_path, OUT / "spans" / f"{self.name}-seed{self.seed}.json")
        ess = {key: essdiag.bulk_ess(d) for key, (_, d) in checks.cell_draws(plain_out, manifest).items()}
        metrics = layer_metrics(spans, ess)
        metrics["bench.trace_overhead_s"] = traced.wall_s - plain.wall_s
        log(f"reference: untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s")
        return metrics


def report_cells(out: Path, manifest: dict, wall_s: float) -> None:
    """Bulk ESS of |p_a|, ESS per wall second and TV of each sampled cell, to stderr."""
    for key, (_, draws) in checks.cell_draws(out, manifest).items():
        ess = essdiag.bulk_ess(draws)
        tv = manifest["cells"][key].get("tv")
        log(f"reference: {key} bulk ESS of |p_a| {ess:.1f}, per wall second {ess / wall_s:.2f}"
            + (f", TV {tv:.4f}" if tv is not None else ""))


PER_LAYER_UNITS = {
    "cli.load_config_s": "s",
    "cli.self_s": "s",
    "oracle.table_s": "s",
    "oracle.table_points_per_s": "1/s",
    "oracle.posterior_s": "s",
    "oracle.grid_csv_s": "s",
    **{f"inference.iters_per_s.n{n}": "1/s" for n in (1, 10, 100)},
    **{f"inference.ess_per_s.n{n}": "1/s" for n in (1, 10, 100)},
    **{f"inference.accept_rate.n{n}": "ratio" for n in (1, 10, 100)},
    "inference.samples_csv_s": "s",
    "trace.init_trace_s": "s",
    "trace.init_calls": "count",
    "trace.pipeline_calls": "count",
    "trace.pipeline_s": "s",
    "report.bin_s": "s",
    "report.tv_s": "s",
    "report.metrics_s": "s",
    "report.csv_s": "s",
    "bench.trace_overhead_s": "s",
}


def layer_metrics(spans: list[dict], ess: dict[str, float]) -> dict[str, float]:
    """Per-layer totals, self times and ratios from the spans of one invocation.

    A span's self time is its duration less the durations of its direct
    children. Layers the workload does not reach read 0.
    """
    for span in spans:
        span["seconds"] = span["end"] - span["start"]
        span["self"] = span["seconds"]
    for span in spans:
        if span["parent"] is not None:
            spans[span["parent"]]["self"] -= span["seconds"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def seconds(*names):
        return float(sum(s["seconds"] for s in named(*names)))

    def rate(amount, time_s):
        return amount / time_s if time_s > 0 else 0.0

    metrics = {
        "cli.load_config_s": seconds("cli.load_config"),
        "cli.self_s": sum(s["self"] for s in named("cli.run_experiment")),
        "oracle.table_s": seconds("oracle.expected_weight_matrix"),
        "oracle.table_points_per_s": rate(
            sum(s["points"] for s in named("oracle.expected_weight_matrix")),
            seconds("oracle.expected_weight_matrix"),
        ),
        "oracle.posterior_s": sum(s["self"] for s in named("oracle.posterior")),
        "oracle.grid_csv_s": seconds("oracle.write_grid_csv"),
        "inference.samples_csv_s": seconds("inference.write_samples_csv"),
        "trace.init_trace_s": seconds("trace.init_trace"),
        "trace.init_calls": len(named("trace.init_trace")),
        "trace.pipeline_calls": len(named("trace.pipeline_from_values")),
        "trace.pipeline_s": seconds("trace.pipeline_from_values"),
        "report.bin_s": seconds("report.bin_samples"),
        "report.tv_s": seconds("report.tv_distance"),
        "report.metrics_s": seconds("report.metrics_from_grid", "report.metrics_from_histogram"),
        "report.csv_s": seconds("report.write_histogram_csv", "report.write_metrics_json"),
    }
    for n in (1, 10, 100):
        chains = [s for s in named("inference.run_chain") if s["n_obs"] == n]
        cells = [s for s in named("inference.sample_posterior") if s["n_obs"] == n]
        proposals = sum(s["proposals"] for s in chains)
        metrics[f"inference.iters_per_s.n{n}"] = rate(
            sum(s["iterations"] for s in chains), sum(s["seconds"] for s in chains)
        )
        metrics[f"inference.ess_per_s.n{n}"] = min(
            (rate(ess[f"{s['env']}_{n}"], s["seconds"]) for s in cells), default=0.0
        )
        metrics[f"inference.accept_rate.n{n}"] = rate(
            sum(s["accepted"] for s in chains), proposals
        )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "polarsim" / "cli.py").is_file():
        log(f"error: no polarsim source under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed)
    try:
        metrics = run.trace() if args.trace else run.measure(args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing:
        log(f"error: no measurement for {missing}")
        return 1
    for failure in run.failures:
        log(f"check failed: {failure}")
    result = {
        "correct": not run.failures,
        "attempted": run.count,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
