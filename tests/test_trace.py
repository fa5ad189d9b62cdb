"""Tests for the flat trace layout, the vectorized judgment pipeline on
hand-derived cases, and the mirror reflection. The pipeline is held to the
independent statement of the model in ``benchmarks/test_bench_refmodel.py``."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarsim.model import BUILTIN_ENVIRONMENTS, MediaEnvironment, ModelParams
from polarsim.trace import (
    _env_arrays,
    address_count,
    init_trace,
    judge_steps,
    normal_site_mask,
    pipeline_from_values,
    reflect_units,
    replay_values,
)
from reference_scan import reflect_unit

ME1 = BUILTIN_ENVIRONMENTS["ME1"]
ME3 = BUILTIN_ENVIRONMENTS["ME3"]
PARAMS = ModelParams()


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
        p_a, a_a, pipe = pipeline_from_values(values, n, ME1, PARAMS)
        assert (p_a, a_a) == (0.4, 0.75)
        mode = -math.log(0.25 * math.sqrt(2.0 * math.pi))
        # Step 1: centrist item (politics 0, truth 0.8) and two zero contest
        # draws, a tie, so rejected; -0 scores 1.6 sds from the agent.
        # Step 2: fake news item at its negative mode (politics -0.9, truth
        # 0.4), news draw 0.9 * 0.4 against 0.1 * (0.75 - 0.2 * 0.2 ** 1.3),
        # so accepted; -0.9 scores 5.2 sds from the agent.
        np.testing.assert_array_equal(news_politics(pipe), [0.0, -0.9])
        assert_news_draws(values[base2 : base2 + 6, None], [0.36], tol=1e-15)
        np.testing.assert_array_equal(pipe.accepted, [False, True])
        np.testing.assert_array_equal(pipe.p_judged, [0.0, -0.9])
        np.testing.assert_allclose(
            pipe.log_factors, [mode - 0.5 * 1.6**2, mode - 0.5 * 5.2**2], rtol=0, atol=1e-12
        )
        assert float(pipe.log_factors.sum()) == pytest.approx(-13.86528834, abs=1e-8)

    def test_judgment_count_and_agent(self):
        values = init_trace(9, np.random.default_rng(2))
        p_a, a_a, factors, accepted, p_judged = replay_values(values, 9, ME1, PARAMS)
        assert len(factors) == len(accepted) == len(p_judged) == 9
        assert p_a == pytest.approx(values[0])
        lo, hi = PARAMS.analytic_low, PARAMS.analytic_high
        assert a_a == pytest.approx(lo + (hi - lo) * values[1])


def judge(cols, agent_politics=0.0, agent_analytic=0.75, env=ME1, params=PARAMS):
    """``judge_steps`` on the six value columns given as rows."""
    return judge_steps(
        np.array(cols, dtype=float), agent_politics, agent_analytic, _env_arrays(env), params
    )


def news_politics(pipe):
    """Each step's news politics, read back from its judgment: an accepted
    item keeps its politics and a rejected one is judged its mirror."""
    return np.where(pipe.accepted, pipe.p_judged, -pipe.p_judged)


def assert_news_draws(cols, expected, tol=0.0):
    """Each step's news contest draw is within ``tol`` of ``expected`` (equal
    to it at 0), read through the judgment: it beats an agent draw just
    below and loses to one just above, or ties one equal to it. With no
    discount and analytic 1 the agent's bound is 1, so the agent's contest
    coordinate is its draw."""
    expected = np.asarray(expected, dtype=float)
    below = expected - tol if tol else np.nextafter(expected, -np.inf)
    params = replace(PARAMS, discount_scale=0.0)
    for agent_draws, wins in ((below, True), (expected + tol, False)):
        pipe = judge([*np.asarray(cols)[:5], agent_draws], agent_analytic=1.0, params=params)
        np.testing.assert_array_equal(pipe.accepted, wins)


class TestJudgeSteps:
    """Hand-derived cases of the judgment pipeline, one step per column."""

    @pytest.mark.parametrize("env", [ME1, ME3], ids=["ME1", "ME3"])
    def test_outlet_draw_on_a_cumulative_share_picks_the_next_outlet(self, env):
        c0, c1, _ = env.cumulative_weights()
        u = [0.0, np.nextafter(c0, 0.0), c0, np.nextafter(c1, 0.0), c1, 1.0]
        pipe = judge([u, [0.0] * 6, [0.0] * 6, [0.0] * 6, [0.0] * 6, [0.0] * 6], env=env)
        mags = [o.politics_mean_magnitude for o in env.outlets]  # side coin 0: + mode
        np.testing.assert_array_equal(
            news_politics(pipe), [0.0, 0.0, mags[1], mags[1], mags[2], mags[2]]
        )

    def test_a_tie_rejects_and_flips_the_politics(self):
        # Premium partisan at its + mode. Truth 0.8 with both contest draws
        # 0; truth 0.8 - 0.2 * 5 < 0 (news bound 0) with both draws 0 and
        # with a news draw of 1: all ties, so rejected. Last, an agent bound
        # clamped to 0 (analytic 0.1 minus the full 0.2 discount) loses to
        # any positive news draw and ties with a zero one.
        cols = [[0.75] * 3, [0.2] * 3, [0.0] * 3, [0.0, -5.0, -5.0], [0.0, 0.0, 1.0], [0.0] * 3]
        pipe = judge(cols, agent_politics=0.7)
        assert_news_draws(cols, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(pipe.accepted, [False, False, False])
        np.testing.assert_array_equal(pipe.p_judged, [-0.7, -0.7, -0.7])
        clamped = judge(
            [[0.75] * 2, [0.2] * 2, [0.0] * 2, [0.0] * 2, [0.1, 0.0], [1.0] * 2],
            agent_politics=0.7,
            agent_analytic=0.1,
        )
        np.testing.assert_array_equal(clamped.accepted, [True, False])
        np.testing.assert_array_equal(clamped.p_judged, [0.7, -0.7])

    def test_a_unimodal_outlet_ignores_the_side_coin(self):
        # Even with a magnitude set, the centrist emits around 0.
        outlets = (replace(ME1.outlets[0], politics_mean_magnitude=0.6), *ME1.outlets[1:])
        env = MediaEnvironment("m", ME1.weights, outlets)
        rest = [[0.4, 0.4], [-0.2, -0.2], [0.6, 0.6], [0.3, 0.3]]
        centrist = judge([[0.0, 0.0], [0.2, 0.8], *rest], env=env)
        assert news_politics(centrist)[0] == pytest.approx(0.5 * 0.4)
        for field in centrist:
            assert field[0] == field[1]
        partisan = judge([[0.75, 0.75], [0.2, 0.8], *rest])
        p_news = news_politics(partisan)
        assert p_news[0] == pytest.approx(0.7 + 0.3 * 0.4)
        assert p_news[1] == pytest.approx(-0.7 + 0.3 * 0.4)

    def test_zero_innovations_hit_the_outlet_mode(self):
        # Centrist, partisan on its + side, fake news on its - side; news
        # draw 1 and agent draw 0, so the news draw is the item's truth.
        zeros = [0.0] * 3
        cols = [[0.0, 0.75, 0.95], [0.2, 0.2, 0.8], zeros, zeros, [1.0] * 3, zeros]
        pipe = judge(cols)
        np.testing.assert_array_equal(news_politics(pipe), [0.0, 0.7, -0.9])
        assert_news_draws(cols, [0.8, 0.8, 0.4])
        np.testing.assert_array_equal(pipe.accepted, [True, True, True])
        np.testing.assert_array_equal(pipe.p_judged, [0.0, 0.7, -0.9])

    @pytest.mark.parametrize("sd", [0.25, 0.4, 1e-3])
    def test_factor_at_the_agent_politics_is_the_mode_height(self, sd):
        # An accepted partisan item at its mode judges 0.7, the agent's own
        # politics; one judged 0.7 + sd scores half a log unit lower.
        params = ModelParams(likelihood_sd=sd)
        cols = [[0.75] * 2, [0.2] * 2, [0.0, sd / 0.3], [0.0] * 2, [1.0] * 2, [0.0] * 2]
        pipe = judge(cols, agent_politics=0.7, params=params)
        mode = -math.log(sd * math.sqrt(2.0 * math.pi))
        assert pipe.p_judged[0] == 0.7
        assert pipe.log_factors[0] == pytest.approx(mode, rel=1e-15, abs=1e-15)
        assert pipe.log_factors[1] == pytest.approx(mode - 0.5, abs=1e-12)
        if sd == 0.25:
            assert pipe.log_factors[0] == pytest.approx(0.4673558279, abs=1e-9)

    @pytest.mark.parametrize(
        "params, corners",
        [
            (PARAMS, {(0.0, 0.0): (0.0, 0.5), (1.0, 1.0): (1.0, 1.0)}),
            (
                ModelParams(prior_politics_sd=2.0, analytic_low=0.1, analytic_high=0.9),
                {(0.0, 0.0): (0.0, 0.1), (-1.0, 1.0): (-2.0, 0.9)},
            ),
        ],
    )
    def test_agent_map_corners(self, params, corners):
        for (z_politics, u_analytic), agent in corners.items():
            values = np.zeros(address_count(1))
            values[:2] = z_politics, u_analytic
            assert pipeline_from_values(values, 1, ME1, params)[:2] == agent


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

    @given(st.lists(st.floats(-50, 50, allow_nan=False), max_size=40))
    def test_array_form_matches_bit_for_bit(self, xs):
        folded = reflect_units(np.array(xs, dtype=float))
        assert folded.tobytes() == np.array([reflect_unit(x) for x in xs], dtype=float).tobytes()


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
