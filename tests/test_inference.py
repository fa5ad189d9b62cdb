"""Tests for the parallel single-site MH sampler."""

import itertools
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import polarsim.inference
import reference_chain
from polarsim import oracle
from polarsim.inference import (
    SCALAR_AGENT_STEPS,
    STREAM_BLOCK,
    ChainResult,
    InferenceConfig,
    SampleSet,
    _pairwise_sum,
    _stream_blocks,
    derive_chain_seed,
    run_chain,
    sample_posterior,
)
from polarsim.model import (
    FAKE_NEWS_PARTISAN,
    ME1,
    ME2,
    ME3,
    PREMIUM_CENTRIST,
    PREMIUM_PARTISAN,
    MediaEnvironment,
    ModelParams,
)
from polarsim.trace import (
    init_trace,
    normal_site_mask,
    pipeline_from_values,
    reflect_unit,
    replay_values,
)
from reference_chain import reference_run_chain

PARAMS = ModelParams()

HARSH = MediaEnvironment(
    "harsh",
    (0.2, 0.2, 0.6),
    (PREMIUM_CENTRIST, PREMIUM_PARTISAN, replace(FAKE_NEWS_PARTISAN, truth_sd=0.3)),
)
HARSH_PARAMS = replace(PARAMS, analytic_low=0.1)

# The double below 0.5: with 0.5 itself, the only side coins v whose mirror
# image fl(1 - v) is 0.5.
BELOW_HALF = 0.49999999999999994

EDGES = np.linspace(-3.0, 3.0, 61)


def bin_fractions(values):
    idx = np.searchsorted(EDGES, values, side="right") - 1
    ok = (idx >= 0) & (idx < 60) & (values >= -3.0) & (values < 3.0)
    counts = np.bincount(idx[ok], minlength=60)
    return counts / len(values), 1.0 - ok.sum() / len(values)


def grid_bin_fractions(grid):
    x, d = grid.grid, grid.density
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(x))])
    cdf = np.interp(EDGES, x, cum / cum[-1])
    inside = np.diff(cdf)
    return inside, 1.0 - inside.sum()


def tv_to_grid(values, grid):
    sb, sout = bin_fractions(values)
    ob, oout = grid_bin_fractions(grid)
    return 0.5 * (np.abs(sb - ob).sum() + abs(sout - oout))


class TestDeriveChainSeed:
    def test_frozen_values(self):
        assert derive_chain_seed(0, 0) == 16294208416658607535
        assert derive_chain_seed(0, 1) == 7960286522194355700
        assert derive_chain_seed(0, 2) == 487617019471545679
        assert derive_chain_seed(42, 0) == 13679457532755275413

    def test_wraps_at_64_bits(self):
        assert derive_chain_seed(2**64 - 1, 5) == 15212506146343009075

    def test_distinct_for_nearby_inputs(self):
        seeds = {derive_chain_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10**6))
    def test_in_range_and_deterministic(self, seed, index):
        a = derive_chain_seed(seed, index)
        assert 0 <= a < 2**64
        assert a == derive_chain_seed(seed, index)


class TestInferenceConfig:
    def test_defaults_are_desk_scale(self):
        cfg = InferenceConfig()
        assert cfg.n_chains == 256
        assert cfg.iterations == 1000
        assert cfg.burn_in == 100
        assert cfg.kept_per_chain == 900

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_chains": 0},
            {"iterations": 0},
            {"burn_in": -1},
            {"burn_in": 1000},
            {"thin": 0},
            {"prior_prob": 1.5},
            {"flip_prob": 1.0},
            {"walk_scale": 0.0},
            {"workers": 0},
            {"iterations": 10, "burn_in": 5, "thin": 10},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            InferenceConfig(**kwargs)

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=199),
        st.integers(min_value=1, max_value=7),
    )
    def test_kept_count_matches_keep_rule(self, iterations, burn_in, thin):
        if burn_in >= iterations:
            burn_in = iterations - 1
        explicit = sum(
            1
            for i in range(iterations)
            if i >= burn_in and (i - burn_in + 1) % thin == 0
        )
        if explicit == 0:
            with pytest.raises(ValueError, match="at least one sample"):
                InferenceConfig(iterations=iterations, burn_in=burn_in, thin=thin)
            return
        cfg = InferenceConfig(iterations=iterations, burn_in=burn_in, thin=thin)
        assert cfg.kept_per_chain == explicit == (iterations - burn_in) // thin


class TestRunChain:
    def test_deterministic_given_seed(self):
        cfg = InferenceConfig(n_chains=1, iterations=400, burn_in=50, seed=9)
        a = run_chain(ME2, PARAMS, 3, cfg, 0)
        b = run_chain(ME2, PARAMS, 3, cfg, 0)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.final_values, b.final_values)
        assert a.final_log_weight == b.final_log_weight

    def test_chains_differ_by_index(self):
        cfg = InferenceConfig(n_chains=2, iterations=400, burn_in=50, seed=9)
        a = run_chain(ME2, PARAMS, 3, cfg, 0)
        b = run_chain(ME2, PARAMS, 3, cfg, 1)
        assert not np.array_equal(a.samples, b.samples)

    def test_sample_shape_and_burn_boundary(self):
        # With burn_in = iterations - 1 the single kept sample is the final
        # state, so nothing from before the burn-in can leak into samples.
        cfg = InferenceConfig(n_chains=1, iterations=500, burn_in=499, seed=3)
        r = run_chain(ME1, PARAMS, 2, cfg, 0)
        assert r.samples.shape == (1, 2)
        assert r.samples[0, 0] == PARAMS.prior_politics_sd * r.final_values[0]
        analytic = PARAMS.analytic_low + (
            PARAMS.analytic_high - PARAMS.analytic_low
        ) * r.final_values[1]
        assert r.samples[0, 1] == pytest.approx(analytic, abs=0.0)

    @pytest.mark.parametrize("n_obs", [1, 7, 8, 10, 16, 24, 71, 72, 100])
    def test_incremental_weight_matches_replay_after_many_proposals(self, n_obs):
        cfg = InferenceConfig(n_chains=1, iterations=10_000, burn_in=100, seed=11)
        r = run_chain(ME3, PARAMS, n_obs, cfg, 0)
        _, _, factors, _, _ = replay_values(r.final_values, n_obs, ME3, PARAMS)
        assert r.final_log_weight == pytest.approx(float(factors.sum()), abs=1e-9)

    def test_uniform_sites_stay_in_support(self):
        cfg = InferenceConfig(n_chains=1, iterations=5_000, burn_in=100, seed=13)
        r = run_chain(ME2, PARAMS, 4, cfg, 0)
        vals = r.final_values
        uniform = vals[~normal_site_mask(4)]
        assert np.all(uniform >= 0.0) and np.all(uniform <= 1.0)

    def test_zero_observations_samples_prior(self):
        cfg = InferenceConfig(n_chains=8, iterations=2_000, burn_in=100, seed=5)
        ss = sample_posterior(ME1, PARAMS, 0, cfg)
        stat = stats.kstest(ss.politics, "norm").statistic
        assert stat < 0.05
        assert ss.acceptance_rate > 0.9


def assert_same_chain(new: ChainResult, ref: ChainResult) -> None:
    """Bit for bit: samples, final state, final log weight and counters."""
    assert new.samples.shape == ref.samples.shape
    assert new.samples.tobytes() == ref.samples.tobytes()
    assert new.final_values.tobytes() == ref.final_values.tobytes()
    assert float(new.final_log_weight).hex() == float(ref.final_log_weight).hex()
    assert (new.n_proposals, new.n_accepted, new.n_flips) == (
        ref.n_proposals,
        ref.n_accepted,
        ref.n_flips,
    )


def count_pipeline_calls(monkeypatch) -> list:
    """Record each full pipeline evaluation run_chain makes; after the one at
    chain start, each is a scored mirror flip."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return pipeline_from_values(*args)

    monkeypatch.setattr(polarsim.inference, "pipeline_from_values", counted)
    return calls


# Signed zeros, subnormals, and magnitudes far apart enough that the
# order of addition changes the rounded sum.
SUMMANDS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1e300, max_value=1e300),
)


class TestPairwiseSum:
    @pytest.mark.parametrize("n", range(SCALAR_AGENT_STEPS + 1))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_equals_numpy_reduce(self, n, data):
        terms = data.draw(hnp.arrays(np.float64, n, elements=SUMMANDS))
        assert _pairwise_sum(terms.tolist()).hex() == float(np.add.reduce(terms)).hex()

    def test_negative_zeros_sum_to_positive_zero_like_numpy(self):
        for n in range(SCALAR_AGENT_STEPS + 1):
            expected = np.add.reduce(np.full(n, -0.0))
            assert _pairwise_sum([-0.0] * n).hex() == float(expected).hex()


class TestStreamBlocks:
    @pytest.mark.parametrize(
        "iterations", [1, 1000, STREAM_BLOCK, 2 * STREAM_BLOCK + 3]
    )
    def test_blocks_equal_whole_stream_draws(self, iterations):
        def after_init():
            rng = np.random.default_rng(31)
            init_trace(5, rng)
            return rng

        rng = after_init()
        whole = [rng.random(iterations) for _ in range(3)]
        whole.append(rng.standard_normal(iterations))
        whole.extend(rng.random(iterations) for _ in range(2))

        blocks = list(_stream_blocks(after_init(), iterations))
        assert [b[0] for b in blocks] == list(range(0, iterations, STREAM_BLOCK))
        assert all(len(stream) <= STREAM_BLOCK for b in blocks for stream in b[1:])
        for k, expected in enumerate(whole, start=1):
            served = np.concatenate([b[k] for b in blocks])
            np.testing.assert_array_equal(served, expected)

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from procfs"
    )
    def test_chain_memory_does_not_grow_with_iterations(self):
        # A million iterations held as whole-stream float lists would take
        # about 190 MiB; served in blocks the chain stays near the
        # interpreter's own footprint. The child reads its peak from VmHWM:
        # getrusage's ru_maxrss would carry over this process's peak from
        # before exec.
        code = (
            "from polarsim.inference import InferenceConfig, run_chain\n"
            "from polarsim.model import ME2, ModelParams\n"
            "cfg = InferenceConfig(iterations=1_000_000, burn_in=999_000)\n"
            "run_chain(ME2, ModelParams(), 0, cfg, 0)\n"
            "status = open('/proc/self/status').read().splitlines()\n"
            "print(next(l.split()[1] for l in status if l.startswith('VmHWM')))\n"
        )
        src = str(Path(polarsim.inference.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            timeout=300,
        )
        peak_mib = int(out.stdout.split()[-1]) / 1024
        assert peak_mib < 60


class TestMatchesReferenceLoop:
    """run_chain reproduces the whole-stream loop of tests/reference_chain.py."""

    @pytest.mark.parametrize(
        "env, params",
        [(ME1, PARAMS), (ME2, PARAMS), (ME3, PARAMS), (HARSH, HARSH_PARAMS)],
        ids=["ME1", "ME2", "ME3", "harsh"],
    )
    @pytest.mark.parametrize("n_obs", [0, 1, 7, 8, 15, 16, 17, 24, 71, 72, 100])
    def test_bitwise_equal_chains(self, monkeypatch, env, params, n_obs):
        kernels = itertools.product((0.0, 0.05, 0.5), (0.0, 0.7), (False, True))
        for k, (flip_prob, prior_prob, prior_only) in enumerate(kernels):
            cfg = InferenceConfig(
                n_chains=1,
                iterations=1000,
                burn_in=200,
                thin=3,
                seed=100 * n_obs + k,
                flip_prob=flip_prob,
                prior_prob=prior_prob,
                disable_likelihood=prior_only,
            )
            # A short block makes the chain span 11 blocks, the last partial.
            for block in (97, STREAM_BLOCK):
                monkeypatch.setattr(polarsim.inference, "STREAM_BLOCK", block)
                assert_same_chain(
                    run_chain(env, params, n_obs, cfg, 1),
                    reference_run_chain(env, params, n_obs, cfg, 1),
                )

    @pytest.mark.parametrize("n_obs", [1, 16, 100])
    def test_bitwise_equal_over_full_blocks(self, n_obs):
        cfg = InferenceConfig(
            n_chains=1, iterations=2 * STREAM_BLOCK + 3, burn_in=1000, thin=7, seed=5
        )
        assert_same_chain(
            run_chain(ME3, PARAMS, n_obs, cfg, 0),
            reference_run_chain(ME3, PARAMS, n_obs, cfg, 0),
        )

    @pytest.mark.parametrize("coin", [0.5, BELOW_HALF], ids=["half", "below_half"])
    @pytest.mark.parametrize(
        "n_obs, steps", [(3, (1,)), (15, (0, 7, 14)), (16, (5,)), (40, range(40))]
    )
    def test_planted_fold_coins_take_the_scored_flip(
        self, monkeypatch, coin, n_obs, steps
    ):
        def planted(n, rng):
            values = init_trace(n, rng)
            for s in steps:
                values[3 + 6 * s] = coin
            return values

        monkeypatch.setattr(polarsim.inference, "init_trace", planted)
        monkeypatch.setattr(reference_chain, "init_trace", planted)
        calls = count_pipeline_calls(monkeypatch)
        for flip_prob, prior_only in itertools.product((0.05, 0.5), (False, True)):
            cfg = InferenceConfig(
                n_chains=1,
                iterations=600,
                burn_in=100,
                seed=7,
                flip_prob=flip_prob,
                disable_likelihood=prior_only,
            )
            calls.clear()
            assert_same_chain(
                run_chain(ME2, PARAMS, n_obs, cfg, 0),
                reference_run_chain(ME2, PARAMS, n_obs, cfg, 0),
            )
            if flip_prob == 0.5 and not prior_only:
                assert len(calls) > 1

    @pytest.mark.parametrize("n_obs", [5, 16, 40])
    def test_walks_onto_the_fold_take_the_scored_flip(self, monkeypatch, n_obs):
        def sticky(u):
            v = reflect_unit(u)
            if 0.40 < v < 0.45:
                return BELOW_HALF
            return 0.5 if 0.45 <= v < 0.55 else v

        monkeypatch.setattr(polarsim.inference, "reflect_unit", sticky)
        monkeypatch.setattr(reference_chain, "reflect_unit", sticky)
        calls = count_pipeline_calls(monkeypatch)
        cfg = InferenceConfig(
            n_chains=1, iterations=2000, burn_in=100, seed=8, prior_prob=0.0,
            flip_prob=0.3,
        )
        assert_same_chain(
            run_chain(ME2, PARAMS, n_obs, cfg, 0),
            reference_run_chain(ME2, PARAMS, n_obs, cfg, 0),
        )
        assert len(calls) > 1

    @pytest.mark.parametrize("n_obs", [5, 40])
    def test_prior_draws_onto_the_fold_take_the_scored_flip(self, monkeypatch, n_obs):
        # Every uniform prior draw is 0.5, so side coins land on the fold
        # through the prior branch alone.
        def halves(rng, iterations):
            for *first, u_innov, u_accept in _stream_blocks(rng, iterations):
                yield *first, np.full_like(u_innov, 0.5), u_accept

        monkeypatch.setattr(polarsim.inference, "_stream_blocks", halves)
        calls = count_pipeline_calls(monkeypatch)
        cfg = InferenceConfig(
            n_chains=1, iterations=3000, burn_in=100, seed=9, prior_prob=1.0,
            flip_prob=0.3,
        )
        r = run_chain(ME2, PARAMS, n_obs, cfg, 0)
        assert len(calls) > 1
        _, _, factors, _, _ = replay_values(r.final_values, n_obs, ME2, PARAMS)
        assert r.final_log_weight == pytest.approx(float(factors.sum()), abs=1e-9)


class TestPriorRecovery:
    def test_disabled_likelihood_recovers_politics_prior(self):
        cfg = InferenceConfig(
            n_chains=128,
            iterations=12_900,
            burn_in=100,
            thin=16,
            seed=20,
            disable_likelihood=True,
        )
        ss = sample_posterior(ME2, PARAMS, 1, cfg)
        assert len(ss.samples) >= 100_000
        stat = stats.kstest(ss.politics, "norm").statistic
        assert stat < 0.01

    def test_disabled_likelihood_recovers_analytic_prior(self):
        cfg = InferenceConfig(
            n_chains=64,
            iterations=6_500,
            burn_in=100,
            thin=16,
            seed=21,
            disable_likelihood=True,
        )
        ss = sample_posterior(ME1, PARAMS, 1, cfg)
        stat = stats.kstest(ss.analytic, stats.uniform(loc=0.5, scale=0.5).cdf).statistic
        assert stat < 0.015


class TestSamplePosterior:
    def test_equals_concatenated_run_chain(self):
        cfg = InferenceConfig(n_chains=4, iterations=300, burn_in=50, seed=77)
        ss = sample_posterior(ME3, PARAMS, 2, cfg)
        manual = np.vstack(
            [run_chain(ME3, PARAMS, 2, cfg, i).samples for i in range(4)]
        )
        np.testing.assert_array_equal(ss.samples, manual)

    def test_worker_count_does_not_change_samples(self):
        serial = InferenceConfig(n_chains=6, iterations=300, burn_in=50, seed=4)
        pooled = InferenceConfig(n_chains=6, iterations=300, burn_in=50, seed=4, workers=2)
        a = sample_posterior(ME2, PARAMS, 3, serial)
        b = sample_posterior(ME2, PARAMS, 3, pooled)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_length_invariant_with_uneven_thin(self):
        cfg = InferenceConfig(n_chains=5, iterations=103, burn_in=10, thin=7, seed=1)
        ss = sample_posterior(ME1, PARAMS, 1, cfg)
        assert len(ss.samples) == 5 * ((103 - 10) // 7)

    def test_acceptance_rate_strictly_inside_unit_interval(self):
        cfg = InferenceConfig(n_chains=4, iterations=500, burn_in=100, seed=6)
        ss = sample_posterior(ME2, PARAMS, 5, cfg)
        assert 0.0 < ss.acceptance_rate < 1.0

    def test_chain_permutation_leaves_histogram_unchanged(self):
        cfg = InferenceConfig(n_chains=4, iterations=400, burn_in=100, seed=8)
        order_a = [run_chain(ME1, PARAMS, 2, cfg, i).samples for i in (0, 1, 2, 3)]
        order_b = [run_chain(ME1, PARAMS, 2, cfg, i).samples for i in (2, 0, 3, 1)]
        ha, _ = np.histogram(np.vstack(order_a)[:, 0], bins=EDGES)
        hb, _ = np.histogram(np.vstack(order_b)[:, 0], bins=EDGES)
        np.testing.assert_array_equal(ha, hb)

    def test_doubling_chains_halves_posterior_mean_se(self):
        # Repeat-run variance measurement: the posterior-mean estimator's
        # spread across seeds should shrink by about sqrt(2) per doubling.
        def spread(n_chains):
            means = []
            for rep in range(24):
                cfg = InferenceConfig(
                    n_chains=n_chains,
                    iterations=400,
                    burn_in=100,
                    seed=1000 + rep,
                )
                ss = sample_posterior(ME2, PARAMS, 1, cfg)
                means.append(float(ss.politics.mean()))
            return float(np.var(means))

        ratio = spread(4) / spread(8)
        assert 1.2 < ratio < 3.4


class TestAgainstOracle:
    def test_n1_posterior_matches_quadrature(self):
        cfg = InferenceConfig(
            n_chains=256, iterations=3_100, burn_in=100, thin=3, seed=42
        )
        ss = sample_posterior(ME1, PARAMS, 1, cfg)
        grid = oracle.posterior(ME1, PARAMS, 1)
        assert len(ss.samples) >= 200_000
        assert tv_to_grid(ss.politics, grid) < 0.03

    def test_flipless_kernel_still_converges_on_bimodal_cell(self):
        # The mirror flip is an accelerator, not a crutch: at one observation
        # the plain pinned kernel crosses the mode barrier on its own.
        cfg = InferenceConfig(
            n_chains=256,
            iterations=3_100,
            burn_in=100,
            thin=3,
            seed=17,
            flip_prob=0.0,
        )
        ss = sample_posterior(ME2, PARAMS, 1, cfg)
        grid = oracle.posterior(ME2, PARAMS, 1)
        assert tv_to_grid(ss.politics, grid) < 0.03

    def test_frozen_site_chain_matches_conditional_density(self):
        # Single-site MH restricted to the agent-politics site must have the
        # conditional density (prior times the step factors at the other
        # frozen sites) as its stationary law. The loop is local to the test
        # and scores every proposal by a full replay.
        env = ME2
        rng = np.random.default_rng(50)
        values = init_trace(1, rng)

        def log_weight(z):
            vals = values.copy()
            vals[0] = z
            _, _, factors, _, _ = replay_values(vals, 1, env, PARAMS)
            return float(factors.sum())

        zs = np.linspace(-4.0, 4.0, 801)
        log_dens = np.array([-0.5 * z * z + log_weight(z) for z in zs])
        dens = np.exp(log_dens - log_dens.max())
        dens /= np.trapezoid(dens, zs)

        z, w = float(values[0]), log_weight(float(values[0]))
        kept = np.empty(100_000)
        for i in range(kept.size + 500):
            if rng.random() < 0.7:
                z_new = float(rng.standard_normal())
                corr = 0.0
            else:
                z_new = z + 0.25 * float(rng.standard_normal())
                corr = 0.5 * (z * z - z_new * z_new)
            w_new = log_weight(z_new)
            delta = w_new - w + corr
            if delta >= 0.0 or rng.random() < math.exp(delta):
                z, w = z_new, w_new
            if i >= 500:
                kept[i - 500] = z

        sb, sout = bin_fractions(kept)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(zs))])
        cdf = np.interp(EDGES, zs, cum / cum[-1])
        ob = np.diff(cdf)
        tv = 0.5 * (np.abs(sb - ob).sum() + abs(sout - (1.0 - ob.sum())))
        assert tv < 0.02
