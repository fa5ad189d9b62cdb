"""Correctness checks on the artifacts of one `polarsim` invocation.

Each check returns a list of failure messages; an empty list means the
artifacts are correct. The expected values come from the benchmark's own
code (`refmodel`, `essdiag`, the TV and quadrature arithmetic below), not
from the program's report layer.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import logsumexp

import essdiag
import refmodel

BIN_EDGES = np.linspace(-3.0, 3.0, 61)
MODERATE_BAND = 0.5
MC_POINTS = (-1.5, -0.7, 0.0, 0.4, 1.2)
MC_DRAWS = 200_000


def read_grid(path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Header fields, grid and density of an `_oracle.csv` file."""
    header, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            header[key] = value
        elif line != "p_a,density":
            rows.append(line.split(","))
    data = np.array(rows, dtype=float)
    return header, data[:, 0], data[:, 1]


def read_histogram(path: Path) -> tuple[np.ndarray, int, int]:
    """Bin counts, dropped count and total of a `_hist.csv` file."""
    lines = path.read_text().splitlines()
    total = int(lines[0].split("=")[1])
    dropped = int(lines[1].split("=")[1])
    counts = np.array([int(line.split(",")[2]) for line in lines[3:]])
    return counts, dropped, total


def read_samples(path: Path, chains: int) -> np.ndarray:
    """The samples CSV as (chains, kept per chain); chains are stored in order."""
    return np.array(path.read_text().split()[1:], dtype=float).reshape(chains, -1)


def cell_chains(manifest: dict, n_obs: int) -> int:
    config = manifest["config"]
    by_n = config["inference_by_n"].get(str(n_obs), {})
    return by_n.get("n_chains", config["inference"]["n_chains"])


def model_params(manifest: dict) -> refmodel.Params:
    model = manifest["config"]["model"]
    return refmodel.Params(
        discount_scale=model["discount_scale"],
        discount_base=model["discount_base"],
        likelihood_sd=model["likelihood_sd"],
        prior_sd=model["prior_politics_sd"],
        analytic_low=model["analytic_low"],
        analytic_high=model["analytic_high"],
    )


def check_density(name: str, grid: np.ndarray, density: np.ndarray, header: dict) -> list[str]:
    """Normalised to 1e-9, mirror-symmetric to 1e-12 of the peak, tail mass below 1e-6."""
    failures = []
    mass = float(np.trapezoid(density, grid))
    if abs(mass - 1.0) > 1e-9:
        failures.append(f"{name}: density integrates to {mass!r}")
    if np.max(np.abs(grid + grid[::-1])) > 1e-12:
        failures.append(f"{name}: grid is not symmetric about 0")
    asymmetry = float(np.max(np.abs(density - density[::-1])) / density.max())
    if asymmetry > 1e-12:
        failures.append(f"{name}: density mirror asymmetry {asymmetry:.3g} of the peak")
    tail = float(header["tail_mass_bound"])
    if not tail < 1e-6:
        failures.append(f"{name}: tail_mass_bound {tail!r}")
    return failures


def check_grids(out: Path) -> list[str]:
    failures = []
    for path in sorted(out.glob("*_oracle.csv")):
        header, grid, density = read_grid(path)
        failures += check_density(path.name, grid, density, header)
    return failures


def check_n1_against_simulation(
    path: Path, env: refmodel.Environment, params: refmodel.Params, rng: np.random.Generator
) -> list[str]:
    """The N=1 density over the prior is proportional to the expected item weight.

    At a few grid points the weight is estimated by forward simulation over
    agents with a uniform analytic trait. One constant is fitted by weighted
    least squares; each point must then agree within 4 standard errors.
    """
    _, grid, density = read_grid(path)
    index = [int(np.argmin(np.abs(grid - p))) for p in MC_POINTS]
    points = grid[index]
    ratio = density[index] / np.exp(-0.5 * (points / params.prior_sd) ** 2)
    means, errors = [], []
    for p in points:
        analytic = rng.uniform(params.analytic_low, params.analytic_high, MC_DRAWS)
        weights = refmodel.simulate_weights(np.full(MC_DRAWS, p), analytic, env, params, rng)
        means.append(weights.mean())
        errors.append(weights.std() / math.sqrt(MC_DRAWS))
    means, errors = np.array(means), np.array(errors)
    scale = np.sum(ratio * means / errors**2) / np.sum(ratio**2 / errors**2)
    z = (scale * ratio - means) / errors
    worst = float(np.max(np.abs(z)))
    if worst > 4.0:
        return [f"{path.name}: density/prior vs simulated weight off by {worst:.2f} standard errors"]
    return []


def tv_to_grid(counts: np.ndarray, dropped: int, total: int, grid, density) -> float:
    """TV over the 60 bins plus one out-of-range cell, the density's CDF by trapezoid."""
    sampled = np.append(counts, dropped) / total
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    cells = np.diff(np.interp(BIN_EDGES, grid, cdf / cdf[-1]))
    exact = np.append(cells, 1.0 - cells.sum())
    return 0.5 * float(np.abs(sampled - exact).sum())


def check_tv(out: Path, manifest: dict, tolerances: dict[int, float]) -> list[str]:
    """Every cell's TV, recomputed here, equals the manifest's and is within tolerance."""
    failures = []
    for key, entry in sorted(manifest["cells"].items()):
        n_obs = int(key.rsplit("_", 1)[1])
        _, grid, density = read_grid(out / entry["oracle_csv"])
        tv = tv_to_grid(*read_histogram(out / entry["hist_csv"]), grid, density)
        if abs(tv - entry["tv"]) > 1e-12:
            failures.append(f"{key}: manifest TV {entry['tv']!r}, recomputed {tv!r}")
        if not tv <= tolerances[n_obs]:
            failures.append(f"{key}: TV {tv:.4f} above tolerance {tolerances[n_obs]}")
    return failures


def cell_draws(out: Path, manifest: dict) -> dict[str, tuple[int, np.ndarray]]:
    """Per sampled cell: observation count and |p_a| draws as (chains, kept)."""
    draws = {}
    for key, entry in sorted(manifest["cells"].items()):
        if "samples_csv" in entry:
            n_obs = int(key.rsplit("_", 1)[1])
            samples = read_samples(out / entry["samples_csv"], cell_chains(manifest, n_obs))
            draws[key] = (n_obs, np.abs(samples))
    return draws


def check_kept(out: Path, manifest: dict) -> list[str]:
    """Kept samples equal chains x kept per chain, in the CSV and the manifest."""
    failures = []
    config = manifest["config"]
    for key, (n_obs, draws) in cell_draws(out, manifest).items():
        budget = {**config["inference"], **config["inference_by_n"].get(str(n_obs), {})}
        kept = (budget["iterations"] - budget["burn_in"]) // budget["thin"]
        expected = budget["n_chains"] * kept
        if draws.size != expected or manifest["cells"][key]["kept_samples"] != expected:
            failures.append(f"{key}: {draws.size} samples kept, expected {expected}")
    return failures


def quadrature_moments(env, params, n_obs: int, halfwidth: float = 2.0) -> tuple[float, float]:
    """E|p_a| and the moderate-band mass of the quadrature posterior.

    Uses the program's expected-weight integral (`oracle.expected_weight_matrix`)
    on 41 points of [0, halfwidth] with 32 Gauss-Legendre analytic nodes,
    then a cubic spline of the log weight on a 0.0005 grid. The weight is
    even in p_a, so the half line carries the law of |p_a|.
    """
    from polarsim.oracle import expected_weight_matrix

    coarse = np.linspace(0.0, halfwidth, 41)
    x, w = np.polynomial.legendre.leggauss(32)
    span = params.analytic_high - params.analytic_low
    analytic = params.analytic_low + 0.5 * span * (x + 1.0)
    log_weight = np.log(expected_weight_matrix(coarse, analytic, env, params))
    fine = np.linspace(0.0, halfwidth, 4001)
    log_fine = CubicSpline(coarse, log_weight, axis=0)(fine)
    log_marginal = logsumexp(np.log(0.5 * span * w) + n_obs * log_fine, axis=1)
    log_post = log_marginal - 0.5 * (fine / params.prior_politics_sd) ** 2
    density = np.exp(log_post - log_post.max())
    density /= np.trapezoid(density, fine)
    moderate = fine <= MODERATE_BAND
    return (
        float(np.trapezoid(fine * density, fine)),
        float(np.trapezoid(density[moderate], fine[moderate])),
    )


def check_moments(draws: np.ndarray, reference: tuple[float, float], name: str) -> list[str]:
    """E|p_a| and the moderate-band mass within 4 MCSE of the quadrature values.

    The band can hold a few percent of the mass, which a short chain may
    never enter; its standard error is taken at the quadrature probability,
    with the bulk ESS of |p_a| as the number of independent draws.
    """
    mean_abs, moderate = reference
    failures = []
    estimate, mcse = float(draws.mean()), essdiag.mcse_mean(draws)
    if abs(estimate - mean_abs) > 4.0 * mcse:
        failures.append(f"{name}: E|p_a| {estimate:.4f} vs quadrature {mean_abs:.4f}, MCSE {mcse:.4f}")
    inside = float((draws <= MODERATE_BAND).mean())
    error = math.sqrt(moderate * (1.0 - moderate) / essdiag.bulk_ess(draws))
    if abs(inside - moderate) > 4.0 * error:
        failures.append(
            f"{name}: moderate mass {inside:.4f} vs quadrature {moderate:.4f}, MCSE {error:.4f}"
        )
    return failures


def check_chains(spans: list[dict], params: refmodel.Params) -> list[str]:
    """Every chain's final log weight equals the reference model's replay to 1e-9."""
    failures = []
    for span in spans:
        if span["name"] != "inference.run_chain":
            continue
        env = refmodel.ENVIRONMENTS[span["env"]]
        replayed = refmodel.trace_log_weight(np.array(span["final_values"]), env, params)
        if abs(replayed - span["final_log_weight"]) > 1e-9:
            failures.append(
                f"chain of {span['env']} N={span['n_obs']}: log weight "
                f"{span['final_log_weight']!r}, replay {replayed!r}"
            )
    return failures


def load_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())
