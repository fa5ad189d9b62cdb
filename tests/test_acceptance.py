"""Desk-scale acceptance suite: one pass/fail line per criterion check.

Criteria, in test order:
  1. Sampler vs quadrature TV per cell (0.03 / 0.05 / 0.10 for 1/10/100
     observations) with at least 2e5 kept samples.
  2. Prior recovery with likelihood factors disabled (KS < 0.01 at 1e5).
  3. Closed-form win probability vs Monte Carlo on a 10x10 bounds grid.
  4. Quadrature expected weight vs forward simulation at spot points.
  5. Qualitative shape of the nine-cell figure, computed on the quadrature
     densities.
  6. Mirror symmetry: exact for quadrature, TV-bounded for the sampler.
  7. Byte-identical artifacts for repeated seeded runs across worker counts.
  8. The sampler's incremental log weight equals a from-scratch replay after
     1e4 iterations.

Two criterion-5 checks fail by design: `me2_n1_bimodal` and
`me2_n100_moderate_majority` state targets the exact quadrature density
contradicts (at one observation the two-mode dip is 6.9% of the peak,
under the 10% bimodality rule, and at a hundred observations the moderate
band holds 0.027 of the mass). They are kept failing rather than loosened;
every other check passes.
"""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats

from polarsim import cli, inference, oracle, report, trace
from polarsim.model import ME1, ME2, ME3, ModelParams, truth_probability
from simulated_weight import simulated_weight_mean

PARAMS = ModelParams()

ENVIRONMENTS = {"ME1": ME1, "ME2": ME2, "ME3": ME3}

CELLS = [(name, n) for name in ("ME1", "ME2", "ME3") for n in (1, 10, 100)]

CELL_IDS = [f"{name}_N{n}" for name, n in CELLS]

TV_TOLERANCES = {1: 0.03, 10: 0.05, 100: 0.10}

MIN_KEPT = 200_000


def announce(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def grids():
    return {
        (name, n): oracle.posterior(ENVIRONMENTS[name], PARAMS, n)
        for name, n in CELLS
    }


@pytest.fixture(scope="module")
def cell_metrics(grids):
    return {cell: report.metrics_from_grid(grid) for cell, grid in grids.items()}


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def runs():
    # All nine cells share one pool. Samples are byte-identical for every
    # worker count (criterion 7), so the checks see the same numbers
    # whatever the number of cores.
    workers = str(min(2, usable_cores()))
    config = cli.load_config(cli.build_parser().parse_args(["run", "--workers", workers]))
    cells = {
        (name, n): (ENVIRONMENTS[name], PARAMS, n, config.cell_inference(n))
        for name, n in CELLS
    }
    with ProcessPoolExecutor(max_workers=config.inference.workers) as pool:
        queued = {cell: inference.queue_chains(pool, *args) for cell, args in cells.items()}
        return {
            cell: inference.sample_posterior(*args, chains=queued[cell])
            for cell, args in cells.items()
        }


@pytest.mark.parametrize(("env_name", "n_obs"), CELLS, ids=CELL_IDS)
def test_criterion_1_oracle_mcmc_agreement(env_name, n_obs, grids, runs):
    run = runs[(env_name, n_obs)]
    hist = report.bin_samples(run.politics)
    tv = report.tv_distance(hist, grids[(env_name, n_obs)])
    tolerance = TV_TOLERANCES[n_obs]
    ok = run.politics.size >= MIN_KEPT and tv < tolerance
    announce(
        f"1 oracle-mcmc {env_name} N={n_obs}",
        ok,
        f"kept={run.politics.size} tv={tv:.4f} tolerance={tolerance}",
    )
    assert run.politics.size >= MIN_KEPT
    assert tv < tolerance


def test_criterion_2_prior_recovery():
    config = inference.InferenceConfig(
        n_chains=128,
        iterations=12_900,
        burn_in=100,
        thin=16,
        seed=20,
        disable_likelihood=True,
    )
    run = inference.sample_posterior(ME2, PARAMS, 1, config)
    ks = stats.kstest(run.politics, "norm").statistic
    ok = run.politics.size >= 100_000 and ks < 0.01
    announce(
        "2 prior recovery", ok, f"samples={run.politics.size} ks={ks:.5f} bound=0.01"
    )
    assert run.politics.size >= 100_000
    assert ks < 0.01


def test_criterion_3_truth_probability_monte_carlo():
    rng = np.random.default_rng(3)
    levels = [i / 10 for i in range(10)]
    draws = 10**6
    worst = 0.0
    for b_news in levels:
        for b_agent in levels:
            expected = truth_probability(b_news, b_agent)
            x_news = rng.random(draws) * b_news
            x_agent = rng.random(draws) * b_agent
            estimate = float(np.mean(x_news > x_agent))
            se = math.sqrt(estimate * (1.0 - estimate) / draws)
            diff = abs(estimate - expected)
            if se == 0.0:
                assert estimate == expected
            else:
                worst = max(worst, diff / se)
                assert diff <= 3.0 * se
    announce("3 truth probability", True, f"grid=10x10 worst_z={worst:.2f} bound=3")


SPOT_POINTS = (
    (0.0, 0.75),
    (0.3, 0.6),
    (0.7, 0.95),
    (-1.2, 0.55),
    (2.0, 0.85),
)


@pytest.mark.parametrize("env_name", ["ME1", "ME2", "ME3"])
def test_criterion_4_expected_weight_cross_validation(env_name):
    env = ENVIRONMENTS[env_name]
    worst = 0.0
    for index, (politics, analytic) in enumerate(SPOT_POINTS):
        weight = oracle.expected_weight(politics, analytic, env, PARAMS)
        mean, se = simulated_weight_mean(
            politics, analytic, env, PARAMS, 10**7, seed=40 + index
        )
        z = abs(mean - weight) / se
        worst = max(worst, z)
        assert abs(mean - weight) <= 3.0 * se
    announce(
        f"4 expected weight {env_name}",
        True,
        f"points={len(SPOT_POINTS)} rollouts=1e7 worst_z={worst:.2f} bound=3",
    )


def _check_me1_n100_moderate(metrics):
    value = metrics[("ME1", 100)].moderate_band_mass
    return value > 0.5, f"moderate={value:.4f} target>0.5"


def _check_me2_n1_bimodal(metrics):
    return metrics[("ME2", 1)].bimodal, "bimodal target=true"


def _check_me2_n10_bimodal(metrics):
    return metrics[("ME2", 10)].bimodal, "bimodal target=true"


def _check_me2_n100_moderate(metrics):
    value = metrics[("ME2", 100)].moderate_band_mass
    return value > 0.5, f"moderate={value:.4f} target>0.5"


def _check_me3_n10_polarized(metrics):
    cell = metrics[("ME3", 10)]
    outside = any(abs(loc) > 0.5 for loc in cell.mode_locations)
    ok = cell.moderate_band_mass < 0.5 and outside
    return ok, (
        f"moderate={cell.moderate_band_mass:.4f} target<0.5 "
        f"modes={[round(m, 2) for m in cell.mode_locations]}"
    )


def _check_me3_n100_moderate(metrics):
    value = metrics[("ME3", 100)].moderate_band_mass
    return value < 0.5, f"moderate={value:.4f} target<0.5"


def _check_moderate_ordering(metrics):
    me1 = metrics[("ME1", 100)].moderate_band_mass
    me3 = metrics[("ME3", 100)].moderate_band_mass
    return me1 > me3, f"ME1={me1:.4f} ME3={me3:.4f} target ME1>ME3"


FIGURE_CHECKS = (
    ("me1_n100_moderate_majority", _check_me1_n100_moderate),
    ("me2_n1_bimodal", _check_me2_n1_bimodal),
    ("me2_n10_bimodal", _check_me2_n10_bimodal),
    ("me2_n100_moderate_majority", _check_me2_n100_moderate),
    ("me3_n10_polarized", _check_me3_n10_polarized),
    ("me3_n100_moderate_minority", _check_me3_n100_moderate),
    ("moderate_ordering_me1_over_me3", _check_moderate_ordering),
)


@pytest.mark.parametrize(
    ("name", "check"), FIGURE_CHECKS, ids=[name for name, _ in FIGURE_CHECKS]
)
def test_criterion_5_figure_quality(name, check, cell_metrics):
    ok, detail = check(cell_metrics)
    announce(f"5 figure {name}", ok, detail)
    assert ok, detail


@pytest.mark.parametrize(("env_name", "n_obs"), CELLS, ids=CELL_IDS)
def test_criterion_6_mirror_symmetry(env_name, n_obs, grids, runs):
    density = grids[(env_name, n_obs)].density
    relative = float(np.max(np.abs(density - density[::-1])) / density.max())
    hist = report.bin_samples(runs[(env_name, n_obs)].politics)
    tv = report.mirror_tv(hist)
    ok = relative < 1e-9 and tv < 0.05
    announce(
        f"6 mirror {env_name} N={n_obs}",
        ok,
        f"grid_rel={relative:.2e} bound=1e-9 hist_tv={tv:.4f} bound=0.05",
    )
    assert relative < 1e-9
    assert tv < 0.05


def test_criterion_7_determinism_across_workers(tmp_path):
    def invoke(out_dir, workers):
        return cli.main(
            [
                "run",
                "--seed", "42",
                "--chains", "4",
                "--iters", "150",
                "--burn-in", "50",
                "--workers", str(workers),
                "--out", str(out_dir),
            ]
        )

    first = tmp_path / "a"
    second = tmp_path / "b"
    assert invoke(first, 1) == 0
    assert invoke(second, 2) == 0

    names_first = sorted(p.name for p in first.iterdir())
    names_second = sorted(p.name for p in second.iterdir())
    assert names_first == names_second
    assert "figure2.svg" in names_first
    identical = True
    for name in names_first:
        if name == "manifest.json":
            a = json.loads((first / name).read_text())
            b = json.loads((second / name).read_text())
            del a["timing_seconds"], b["timing_seconds"]
            identical &= a == b
        else:
            identical &= (first / name).read_bytes() == (second / name).read_bytes()
    announce(
        "7 determinism",
        identical,
        f"artifacts={len(names_first)} workers=1,2 seed=42",
    )
    assert identical


def test_criterion_8_incremental_weight_consistency():
    n_obs = 5
    config = inference.InferenceConfig(n_chains=1, iterations=10_000, burn_in=100, seed=8)
    chain = inference.run_chain(ME2, PARAMS, n_obs, config, 0)
    _, _, factors, _, _ = trace.replay_values(chain.final_values, n_obs, ME2, PARAMS)
    drift = abs(chain.final_log_weight - float(factors.sum()))
    ok = drift < 1e-9
    announce("8 trace weight", ok, f"iterations=1e4 drift={drift:.2e} bound=1e-9")
    assert drift < 1e-9
