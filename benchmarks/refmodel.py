"""A NumPy statement of the judgment model, written apart from the program.

It takes the model from its description (README, "Built-in environments"),
not from `polarsim.model` or `polarsim.trace`, so that the benchmark can
check the program's numbers against a second derivation:

- `step_log_factors` maps one step's six unit values (outlet choice, side
  coin, politics innovation, truth innovation, news contest draw, agent
  contest draw) to the Gaussian log score of the judged politics;
- `trace_log_weight` sums them over the flat trace layout
  ``[z_politics, u_analytic, step 1 (6 values), step 2, ...]``;
- `simulate_weights` runs the model forward: it draws judged items for given
  agents and returns each item's likelihood weight, whose mean is the
  expected per-item weight the quadrature integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Outlet",
    "Environment",
    "Params",
    "ENVIRONMENTS",
    "agent_from_units",
    "step_log_factors",
    "trace_log_weight",
    "simulate_weights",
]


@dataclass(frozen=True)
class Outlet:
    """Politics ~ N(+-magnitude or 0, politics_sd); truth ~ N(truth_mean, truth_sd)."""

    magnitude: float
    politics_sd: float
    truth_mean: float
    truth_sd: float
    bimodal: bool


CENTRIST = Outlet(0.0, 0.5, 0.8, 0.2, bimodal=False)
PARTISAN = Outlet(0.7, 0.3, 0.8, 0.2, bimodal=True)
FAKE_NEWS = Outlet(0.9, 0.1, 0.4, 0.5, bimodal=True)


@dataclass(frozen=True)
class Environment:
    """Outlet shares in the order (centrist, partisan, fake news)."""

    weights: tuple[float, float, float]
    outlets: tuple[Outlet, Outlet, Outlet] = (CENTRIST, PARTISAN, FAKE_NEWS)


ENVIRONMENTS = {
    "ME1": Environment((0.70, 0.20, 0.10)),
    "ME2": Environment((0.40, 0.50, 0.10)),
    "ME3": Environment((0.30, 0.10, 0.60)),
    # The README's custom example: fake-news-heavy, with less spread in truth.
    "harsh": Environment(
        (0.2, 0.2, 0.6), (CENTRIST, PARTISAN, replace(FAKE_NEWS, truth_sd=0.3))
    ),
}


@dataclass(frozen=True)
class Params:
    """Discount ``scale * base ** |distance|``, likelihood sd, agent priors."""

    discount_scale: float = 0.2
    discount_base: float = 0.2
    likelihood_sd: float = 0.25
    prior_sd: float = 1.0
    analytic_low: float = 0.5
    analytic_high: float = 1.0


def agent_from_units(z_politics, u_analytic, params: Params):
    """Agent politics ~ N(0, prior_sd) and analytic trait ~ U(low, high)."""
    politics = params.prior_sd * np.asarray(z_politics, dtype=float)
    analytic = params.analytic_low + (params.analytic_high - params.analytic_low) * np.asarray(
        u_analytic, dtype=float
    )
    return politics, analytic


def _outlet_table(env: Environment) -> np.ndarray:
    """Rows (politics mean magnitude, politics sd, truth mean, truth sd) per outlet."""
    return np.array(
        [
            [o.magnitude if o.bimodal else 0.0, o.politics_sd, o.truth_mean, o.truth_sd]
            for o in env.outlets
        ]
    )


def _news_from_units(units: np.ndarray, env: Environment):
    """Politics and truth of each step's item; ``units`` has shape (..., 6)."""
    u_outlet, u_side, z_pol, z_truth, _, _ = np.moveaxis(units, -1, 0)
    # The first outlet whose cumulative share exceeds the draw; a draw at or
    # above the last cumulative share falls to the last outlet.
    outlet = np.minimum((u_outlet[..., None] >= np.cumsum(env.weights)).sum(axis=-1), 2)
    magnitude, politics_sd, truth_mean, truth_sd = np.moveaxis(_outlet_table(env)[outlet], -1, 0)
    mean = np.where(u_side < 0.5, magnitude, -magnitude)
    return mean + politics_sd * z_pol, truth_mean + truth_sd * z_truth


def _contest(news_politics, news_truth, u_xn, u_xa, agent_politics, agent_analytic, params):
    """News draw U(0, max(truth, 0)) against agent draw U(0, max(scrutiny, 0)).

    Scrutiny is the analytic trait less the motivated-reasoning discount.
    The item's politics is kept when the news draw is strictly larger, else
    its sign is flipped.
    """
    b_news = np.maximum(news_truth, 0.0)
    distance = np.abs(news_politics - agent_politics)
    b_agent = np.maximum(
        agent_analytic - params.discount_scale * params.discount_base**distance, 0.0
    )
    return np.where(u_xn * b_news > u_xa * b_agent, news_politics, -news_politics)


def _log_score(judged, agent_politics, params: Params):
    sd = params.likelihood_sd
    return -0.5 * ((judged - agent_politics) / sd) ** 2 - math.log(sd * math.sqrt(2.0 * math.pi))


def step_log_factors(
    units: np.ndarray, agent_politics, agent_analytic, env: Environment, params: Params
) -> np.ndarray:
    """Log N(judged politics; agent politics, likelihood_sd) of every step."""
    units = np.asarray(units, dtype=float)
    news_politics, news_truth = _news_from_units(units, env)
    judged = _contest(
        news_politics, news_truth, units[..., 4], units[..., 5], agent_politics, agent_analytic, params
    )
    return _log_score(judged, agent_politics, params)


def trace_log_weight(values: np.ndarray, env: Environment, params: Params) -> float:
    """Sum of the step log factors of one flat trace."""
    values = np.asarray(values, dtype=float)
    politics, analytic = agent_from_units(values[0], values[1], params)
    steps = values[2:].reshape(-1, 6)
    return float(step_log_factors(steps, politics, analytic, env, params).sum())


def simulate_weights(
    agent_politics: np.ndarray,
    agent_analytic: np.ndarray,
    env: Environment,
    params: Params,
    rng: np.random.Generator,
) -> np.ndarray:
    """One forward-simulated judged item per agent; returns its likelihood weight.

    Draws the outlet by its share, the side by a fair coin, politics and
    truth from the outlet's Gaussians, then runs the contest.
    """
    agent_politics = np.asarray(agent_politics, dtype=float)
    n = agent_politics.shape
    outlet = rng.choice(3, size=n, p=np.asarray(env.weights))
    sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    spec = _outlet_table(env)[outlet]
    news_politics = rng.normal(sign * spec[..., 0], spec[..., 1])
    news_truth = rng.normal(spec[..., 2], spec[..., 3])
    judged = _contest(
        news_politics, news_truth, rng.random(n), rng.random(n), agent_politics, agent_analytic, params
    )
    return np.exp(_log_score(judged, agent_politics, params))
