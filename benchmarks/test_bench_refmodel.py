"""The benchmark's own statement of the model against the program's."""

import math

import numpy as np
import pytest

import refmodel
from polarsim import cli, trace
from polarsim.model import BUILTIN_ENVIRONMENTS, ModelParams

HARSH = {
    "name": "harsh",
    "weights": [0.2, 0.2, 0.6],
    "outlets": {"fake_news_partisan": {"truth_sd": 0.3}},
}

PROGRAM_ENVIRONMENTS = {**BUILTIN_ENVIRONMENTS, "harsh": cli._parse_environment(HARSH)}


def random_trace(rng, n_obs):
    values = rng.random(trace.address_count(n_obs))
    mask = trace.normal_site_mask(n_obs)
    values[mask] = rng.standard_normal(int(mask.sum()))
    return values


@pytest.mark.parametrize("env_name", sorted(refmodel.ENVIRONMENTS))
@pytest.mark.parametrize("analytic_low", [0.5, 0.1])
def test_step_factors_match_replay(env_name, analytic_low):
    rng = np.random.default_rng(len(env_name) + int(10 * analytic_low))
    program_params = ModelParams(analytic_low=analytic_low)
    params = refmodel.Params(analytic_low=analytic_low)
    env = refmodel.ENVIRONMENTS[env_name]
    for n_obs in (1, 10, 100):
        for _ in range(20):
            values = random_trace(rng, n_obs)
            p_a, a_a, factors, _, _ = trace.replay_values(
                values, n_obs, PROGRAM_ENVIRONMENTS[env_name], program_params
            )
            politics, analytic = refmodel.agent_from_units(values[0], values[1], params)
            assert float(politics) == pytest.approx(p_a, abs=1e-15)
            assert float(analytic) == pytest.approx(a_a, abs=1e-15)
            ours = refmodel.step_log_factors(
                values[2:].reshape(n_obs, 6), politics, analytic, env, params
            )
            np.testing.assert_allclose(ours, factors, rtol=0, atol=1e-12)
            assert refmodel.trace_log_weight(values, env, params) == pytest.approx(
                float(factors.sum()), abs=1e-9
            )


def test_outlet_choice_edges():
    # A draw exactly on a cumulative share belongs to the next outlet, and
    # the top of the unit interval to the last one.
    env = refmodel.ENVIRONMENTS["ME2"]
    params = refmodel.Params()
    for u_outlet, mean in ((0.0, 0.0), (0.4, 0.7), (0.9, 0.9), (1.0, 0.9)):
        units = np.array([[u_outlet, 0.1, 0.0, 30.0, 1.0, 0.0]])  # truth wins
        factor = refmodel.step_log_factors(units, mean, 0.75, env, params)[0]
        assert factor == pytest.approx(-math.log(0.25 * math.sqrt(2 * math.pi)), abs=1e-12)


def test_simulated_weight_matches_the_quadrature():
    from polarsim.oracle import expected_weight

    rng = np.random.default_rng(4)
    env = refmodel.ENVIRONMENTS["ME3"]
    params = refmodel.Params()
    for p_a, a_a in ((0.0, 0.6), (0.8, 0.9), (-1.5, 0.5)):
        draws = refmodel.simulate_weights(
            np.full(400_000, p_a), np.full(400_000, a_a), env, params, rng
        )
        se = draws.std() / math.sqrt(draws.size)
        exact = expected_weight(p_a, a_a, BUILTIN_ENVIRONMENTS["ME3"], ModelParams())
        assert abs(draws.mean() - exact) < 4 * se
