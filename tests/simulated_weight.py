"""Forward Monte Carlo estimate of the per-item weight, the cross-check for
the quadrature's `oracle.expected_weight`.

Each rollout draws one step's six unit values and scores them through the
sampler's vectorized pipeline (`polarsim.trace.pipeline_from_values`), so the
comparison ties the two posterior routes together.
"""

from __future__ import annotations

import math

import numpy as np

from polarsim.model import MediaEnvironment, ModelParams
from polarsim.trace import pipeline_from_values


def simulated_weight_mean(
    agent_politics: float,
    agent_analytic: float,
    env: MediaEnvironment,
    params: ModelParams,
    n_draws: int,
    seed: int = 0,
    chunk: int = 1_000_000,
) -> tuple[float, float]:
    """Mean of the per-item weight over ``n_draws`` rollouts, and its standard error."""
    rng = np.random.default_rng(seed)
    agent_units = (
        agent_politics / params.prior_politics_sd,
        (agent_analytic - params.analytic_low) / (params.analytic_high - params.analytic_low),
    )
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        values = np.empty(2 + 6 * m)
        values[:2] = agent_units
        cols = values[2:].reshape(m, 6)
        cols[:, 0] = rng.random(m)
        cols[:, 1] = rng.random(m)
        cols[:, 2] = rng.standard_normal(m)
        cols[:, 3] = rng.standard_normal(m)
        cols[:, 4] = rng.random(m)
        cols[:, 5] = rng.random(m)
        _, _, pipe = pipeline_from_values(values, m, env, params)
        weights = np.exp(pipe.log_factors)
        total += float(weights.sum())
        total_sq += float((weights * weights).sum())
        done += m
    mean = total / n_draws
    var = max(total_sq / n_draws - mean * mean, 0.0)
    return mean, math.sqrt(var / n_draws)
