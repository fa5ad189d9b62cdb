"""Flat value layout of one agent's history, and its vectorized judgment pipeline.

A trace stores, for an agent plus N consumed news items, one unit-scale
value per random site: standard-normal innovations for Gaussian draws and
uniform [0,1] coordinates for everything else. Storing innovations rather
than realized quantities keeps every site's support fixed, so single-site
proposals never have to rescale stale values.

The layout is fixed given N: index 0 is the agent politics innovation,
index 1 the agent analytic coordinate, then six sites per observation step
in the order (outlet choice, side coin, politics innovation, truth
innovation, news contest draw, agent contest draw).

``judge_steps`` states the judgment math once, vectorized: it scores value
columns for a given agent, and ``pipeline_from_values`` and the sampler's
systematic scan both call it; the scan passes (C, N) columns and (C, 1)
agents to score C chains at once, or (K, C, N) block candidates with the
same agents. The independent statement the tests
hold it to is ``benchmarks/refmodel.py``, which imports nothing from this
package.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from polarsim.model import MediaEnvironment, ModelParams

__all__ = [
    "StepPipeline",
    "address_count",
    "normal_site_mask",
    "init_trace",
    "judge_steps",
    "pipeline_from_values",
    "replay_values",
    "reflect_units",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Column indices within one step's six slots.
_COL_OUTLET = 0
_COL_SIDE = 1
_COL_ZPOL = 2
_COL_ZTRUTH = 3
_COL_XN = 4
_COL_XA = 5


def address_count(n_observations: int) -> int:
    return 6 * n_observations + 2


def normal_site_mask(n_observations: int) -> np.ndarray:
    """Boolean mask over the flat layout: True where the site is a normal innovation."""
    mask = np.zeros(address_count(n_observations), dtype=bool)
    mask[0] = True
    cols = mask[2:].reshape(n_observations, 6)
    cols[:, _COL_ZPOL] = True
    cols[:, _COL_ZTRUTH] = True
    return mask


def _env_arrays(env: MediaEnvironment) -> tuple[np.ndarray, ...]:
    cums = np.array(env.cumulative_weights())
    mag = np.array([o.politics_mean_magnitude for o in env.outlets])
    # Unimodal outlets emit around 0 regardless of the side coin.
    mag = np.where([o.bimodal for o in env.outlets], mag, 0.0)
    p_sd = np.array([o.politics_sd for o in env.outlets])
    t_mean = np.array([o.truth_mean for o in env.outlets])
    t_sd = np.array([o.truth_sd for o in env.outlets])
    return cums, mag, p_sd, t_mean, t_sd


class StepPipeline(NamedTuple):
    """Per-step outputs of the judgment pipeline, one entry per step: the
    truth judgments, the judged politics and the log factors."""

    accepted: np.ndarray
    p_judged: np.ndarray
    log_factors: np.ndarray


def judge_steps(
    cols, agent_politics: float, agent_analytic: float, env_arrays: tuple, params: ModelParams
) -> StepPipeline:
    """The judgment pipeline of every step at once.

    ``cols`` holds the six value columns in layout order, one entry per step
    in each (a (6, N) array or a sequence of six arrays); ``env_arrays`` is
    ``_env_arrays(env)``. Every output is computed elementwise, so a step's
    entries depend only on its own column entries and the agent. The agent
    values may be arrays that broadcast against a column: (C, N) columns
    with (C, 1) agents score C chains at once.
    """
    cums, mag, p_sd, t_mean, t_sd = env_arrays
    outlet = np.minimum(cums.searchsorted(cols[_COL_OUTLET], side="right"), len(cums) - 1)
    side_sign = np.where(cols[_COL_SIDE] < 0.5, 1.0, -1.0)
    p_news = side_sign * mag[outlet] + p_sd[outlet] * cols[_COL_ZPOL]
    t_news = t_mean[outlet] + t_sd[outlet] * cols[_COL_ZTRUTH]

    b_news = np.maximum(0.0, t_news)
    discount = params.discount_scale * params.discount_base ** np.abs(p_news - agent_politics)
    b_agent = np.maximum(0.0, agent_analytic - discount)
    x_news = cols[_COL_XN] * b_news
    x_agent = cols[_COL_XA] * b_agent

    accepted = x_news > x_agent
    p_judged = np.where(accepted, p_news, -p_news)

    z = (p_judged - agent_politics) / params.likelihood_sd
    factors = -0.5 * z * z - math.log(params.likelihood_sd) - _HALF_LOG_2PI
    return StepPipeline(accepted, p_judged, factors)


def pipeline_from_values(
    values: np.ndarray, n_observations: int, env: MediaEnvironment, params: ModelParams
) -> tuple[float, float, StepPipeline]:
    """Agent parameters plus the judgment pipeline of every step of a flat
    value array."""
    agent_politics = params.prior_politics_sd * float(values[0])
    agent_analytic = (
        params.analytic_low + (params.analytic_high - params.analytic_low) * float(values[1])
    )
    cols = values[2:].reshape(n_observations, 6).T
    pipe = judge_steps(cols, agent_politics, agent_analytic, _env_arrays(env), params)
    return agent_politics, agent_analytic, pipe


def replay_values(
    values: np.ndarray, n_observations: int, env: MediaEnvironment, params: ModelParams
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """From-scratch pass over a flat value array.

    Returns (agent politics, agent analytic, log factors, truth judgments,
    judged politics).
    """
    agent_politics, agent_analytic, pipe = pipeline_from_values(
        values, n_observations, env, params
    )
    return agent_politics, agent_analytic, pipe.log_factors, pipe.accepted, pipe.p_judged


def init_trace(n_observations: int, rng: np.random.Generator) -> np.ndarray:
    """Fresh flat value array with every site drawn from its unit prior:
    the normal sites first, in layout order, then the uniform ones."""
    if n_observations < 0:
        raise ValueError("n_observations must be >= 0")
    count = address_count(n_observations)
    values = np.empty(count)
    mask = normal_site_mask(n_observations)
    values[mask] = rng.standard_normal(int(mask.sum()))
    values[~mask] = rng.random(count - int(mask.sum()))
    return values


def reflect_units(u: np.ndarray) -> np.ndarray:
    """Fold every entry of a walk proposal back into [0, 1], with period 2 and
    mirrors at 0 and 1: u becomes r = fmod(u, 2), plus 2 if negative, then
    2 - r if r > 1."""
    u = np.fmod(u, 2.0)
    u = np.where(u < 0.0, u + 2.0, u)
    return np.where(u > 1.0, 2.0 - u, u)
