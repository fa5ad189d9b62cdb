"""Tests for the flat trace layout, the vectorized judgment pipeline against
the scalar model functions, and the mirror reflection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarsim.model import (
    BUILTIN_ENVIRONMENTS,
    ModelParams,
    agent_from_units,
    emit_news,
    judge,
    log_likelihood,
    sample_outlet,
    truth_bounds,
)
from polarsim.trace import (
    address_count,
    init_trace,
    normal_site_mask,
    reflect_unit,
    replay_values,
)

ME1 = BUILTIN_ENVIRONMENTS["ME1"]
ME3 = BUILTIN_ENVIRONMENTS["ME3"]
PARAMS = ModelParams()


def scalar_step(values, step, agent, env, params):
    """Independent scalar route through the model functions for one step
    (numbered from 1): the judgment and its log factor."""
    base = 2 + 6 * (step - 1)
    outlet = env.outlets[sample_outlet(env, float(values[base]))]
    side = float(values[base + 1]) < 0.5
    news = emit_news(outlet, side, float(values[base + 2]), float(values[base + 3]))
    b_news, b_agent = truth_bounds(news, agent, params)
    judgment = judge(news, float(values[base + 4]) * b_news, float(values[base + 5]) * b_agent)
    return judgment, log_likelihood(judgment.politics_judgment, agent.politics, params)


def scalar_log_weight(values, n_obs, env, params):
    agent = agent_from_units(float(values[0]), float(values[1]), params)
    return sum(scalar_step(values, s, agent, env, params)[1] for s in range(1, n_obs + 1))


def log_weight(values, n_obs, env):
    return float(replay_values(values, n_obs, env, PARAMS)[2].sum())


def mirror(values, n_obs):
    """Reflect a value array through politics = 0: negate the agent and
    per-item politics innovations and flip every side coin."""
    flipped = values.copy()
    flipped[0] = -flipped[0]
    cols = flipped[2:].reshape(n_obs, 6)
    cols[:, 1] = 1.0 - cols[:, 1]
    cols[:, 2] = -cols[:, 2]
    return flipped


class TestAddressing:
    def test_address_count(self):
        assert address_count(1) == 8
        assert address_count(10) == 62
        assert address_count(100) == 602

    def test_normal_site_mask(self):
        mask = normal_site_mask(4)
        # agent politics plus the politics and truth innovations of each step
        expected = np.zeros(address_count(4), dtype=bool)
        expected[0] = True
        for step in range(4):
            expected[2 + 6 * step + 2] = expected[2 + 6 * step + 3] = True
        np.testing.assert_array_equal(mask, expected)


class TestInitTrace:
    def test_deterministic_under_seed(self):
        a = init_trace(7, np.random.default_rng(42))
        b = init_trace(7, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_draws_normals_then_uniforms(self):
        values = init_trace(6, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        mask = normal_site_mask(6)
        np.testing.assert_array_equal(values[mask], rng.standard_normal(int(mask.sum())))
        np.testing.assert_array_equal(values[~mask], rng.random(int((~mask).sum())))

    def test_unit_support(self):
        values = init_trace(50, np.random.default_rng(1))
        uniforms = values[~normal_site_mask(50)]
        assert np.all((uniforms >= 0.0) & (uniforms <= 1.0))

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            init_trace(-1, np.random.default_rng(0))


class TestReplay:
    def test_all_zero_trace_frozen_value(self):
        # Zero innovations on ME1: centrist item at the truth mode, judged
        # not-true by the tie rule, judged politics 0 against agent politics
        # 0, one factor log N(0; 0, 0.25).
        p_a, a_a, factors, accepted, p_judged = replay_values(np.zeros(8), 1, ME1, PARAMS)
        assert float(factors.sum()) == pytest.approx(0.46735582791521796, abs=1e-12)
        assert not accepted[0]
        assert p_judged[0] == 0.0
        assert p_a == 0.0
        assert a_a == 0.5

    def test_bit_for_bit_determinism(self):
        values = init_trace(20, np.random.default_rng(4))
        first = replay_values(values, 20, ME3, PARAMS)
        second = replay_values(values, 20, ME3, PARAMS)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_matches_scalar_composition(self):
        # Dual route: vectorized replay against the plain model functions.
        rng = np.random.default_rng(42)
        for env in (ME1, ME3):
            for n_obs in (1, 2, 17):
                values = init_trace(n_obs, rng)
                expected = scalar_log_weight(values, n_obs, env, PARAMS)
                assert log_weight(values, n_obs, env) == pytest.approx(expected, abs=1e-10)

    def test_hand_composed_two_step_trace(self):
        n = 2
        values = np.zeros(address_count(n))
        values[0] = 0.4  # agent politics innovation
        values[1] = 0.5  # analytic 0.75
        base2 = 2 + 6
        values[base2 + 0] = 0.95  # fake news outlet
        values[base2 + 1] = 0.8  # negative side
        values[base2 + 4] = 0.9  # strong news contest draw
        values[base2 + 5] = 0.1
        expected = scalar_log_weight(values, n, ME1, PARAMS)
        _, _, factors, accepted, _ = replay_values(values, n, ME1, PARAMS)
        assert float(factors.sum()) == pytest.approx(expected, abs=1e-12)
        assert len(accepted) == 2

    def test_judgment_count_and_agent(self):
        values = init_trace(9, np.random.default_rng(2))
        p_a, a_a, factors, accepted, p_judged = replay_values(values, 9, ME1, PARAMS)
        assert len(factors) == len(accepted) == len(p_judged) == 9
        assert p_a == pytest.approx(values[0])
        lo, hi = PARAMS.analytic_low, PARAMS.analytic_high
        assert a_a == pytest.approx(lo + (hi - lo) * values[1])


class TestStepLogFactor:
    def test_matches_vectorized_factors(self):
        rng = np.random.default_rng(42)
        for env in (ME1, ME3):
            values = init_trace(25, rng)
            p_a, a_a, factors, accepted, p_judged = replay_values(values, 25, env, PARAMS)
            agent = agent_from_units(float(values[0]), float(values[1]), PARAMS)
            assert (agent.politics, agent.analytic) == (p_a, a_a)
            for step in (1, 7, 25):
                judgment, factor = scalar_step(values, step, agent, env, PARAMS)
                assert factor == pytest.approx(float(factors[step - 1]), abs=1e-12)
                assert judgment.truth_judgment == accepted[step - 1]
                assert judgment.politics_judgment == p_judged[step - 1]


class TestReflectUnit:
    def test_frozen_examples(self):
        assert reflect_unit(1.05) == pytest.approx(0.95)
        assert reflect_unit(-0.2) == pytest.approx(0.2)
        assert reflect_unit(2.3) == pytest.approx(0.3)
        assert reflect_unit(0.4) == 0.4

    @given(st.floats(-50, 50, allow_nan=False))
    def test_always_lands_in_unit_interval(self, x):
        assert 0.0 <= reflect_unit(x) <= 1.0

    @given(st.floats(0, 1, allow_nan=False))
    def test_identity_on_unit_interval(self, u):
        assert reflect_unit(u) == u


class TestMirrorFlip:
    """The sampler's exact mirror flip is always accepted and applied lazily:
    it relies on the reflection keeping every step factor bit for bit."""

    def test_preserves_every_log_factor_bitwise(self):
        rng = np.random.default_rng(42)
        for env in (ME1, ME3):
            values = init_trace(30, rng)
            plain = replay_values(values, 30, env, PARAMS)[2]
            mirrored = replay_values(mirror(values, 30), 30, env, PARAMS)[2]
            assert plain.tobytes() == mirrored.tobytes()

    def test_negates_agent_politics(self):
        values = init_trace(5, np.random.default_rng(7))
        p_a, a_a = replay_values(values, 5, ME1, PARAMS)[:2]
        mp_a, ma_a = replay_values(mirror(values, 5), 5, ME1, PARAMS)[:2]
        assert mp_a == -p_a
        assert ma_a == a_a

    def test_is_an_involution(self):
        # Prior uniforms are multiples of 2**-53, so 1 - v is exact for them.
        values = init_trace(12, np.random.default_rng(13))
        np.testing.assert_array_equal(mirror(mirror(values, 12), 12), values)

    def test_flips_judged_politics(self):
        values = init_trace(15, np.random.default_rng(21))
        _, _, _, accepted, p_judged = replay_values(values, 15, ME3, PARAMS)
        _, _, _, m_accepted, m_p_judged = replay_values(mirror(values, 15), 15, ME3, PARAMS)
        np.testing.assert_array_equal(accepted, m_accepted)
        np.testing.assert_array_equal(p_judged, -m_p_judged)
