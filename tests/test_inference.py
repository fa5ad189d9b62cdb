"""Tests for the parallel single-site MH sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from polarsim import oracle
from polarsim.inference import (
    ChainResult,
    InferenceConfig,
    SampleSet,
    derive_chain_seed,
    run_chain,
    sample_posterior,
)
from polarsim.model import ME1, ME2, ME3, ModelParams
from polarsim.trace import (
    Address,
    ProposalKind,
    Site,
    init_trace,
    propose_site,
    replay_values,
)

PARAMS = ModelParams()

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

    def test_incremental_weight_matches_replay_after_many_proposals(self):
        cfg = InferenceConfig(n_chains=1, iterations=10_000, burn_in=100, seed=11)
        r = run_chain(ME3, PARAMS, 7, cfg, 0)
        _, _, factors, _, _ = replay_values(r.final_values, 7, ME3, PARAMS)
        assert r.final_log_weight == pytest.approx(float(factors.sum()), abs=1e-9)

    def test_uniform_sites_stay_in_support(self):
        cfg = InferenceConfig(n_chains=1, iterations=5_000, burn_in=100, seed=13)
        r = run_chain(ME2, PARAMS, 4, cfg, 0)
        vals = r.final_values
        from polarsim.trace import normal_site_mask

        uniform = vals[~normal_site_mask(4)]
        assert np.all(uniform >= 0.0) and np.all(uniform <= 1.0)

    def test_zero_observations_samples_prior(self):
        cfg = InferenceConfig(n_chains=8, iterations=2_000, burn_in=100, seed=5)
        ss = sample_posterior(ME1, PARAMS, 0, cfg)
        stat = stats.kstest(ss.politics, "norm").statistic
        assert stat < 0.05
        assert ss.acceptance_rate > 0.9


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
        # Single-site MH restricted to the agent-politics address must have
        # the conditional density (prior times the step factors at the other
        # frozen sites) as its stationary law.
        env = ME2
        rng = np.random.default_rng(50)
        trace = init_trace(env, PARAMS, 1, rng)

        zs = np.linspace(-4.0, 4.0, 801)
        log_dens = np.empty_like(zs)
        for i, z in enumerate(zs):
            vals = trace.values.copy()
            vals[0] = z
            _, _, factors, _, _ = replay_values(vals, 1, env, PARAMS)
            log_dens[i] = -0.5 * z * z + float(factors.sum())
        dens = np.exp(log_dens - log_dens.max())
        dens /= np.trapezoid(dens, zs)

        address = Address(Site.AGENT_POLITICS, 0)
        current = trace
        kept = np.empty(100_000)
        for i in range(kept.size + 500):
            kind = (
                ProposalKind.PRIOR_RESAMPLE
                if rng.random() < 0.7
                else ProposalKind.RANDOM_WALK
            )
            candidate, corr = propose_site(current, address, rng, env, PARAMS, kind)
            delta = candidate.log_weight - current.log_weight + corr
            if delta >= 0.0 or rng.random() < math.exp(delta):
                current = candidate
            if i >= 500:
                kept[i - 500] = current.values[0]

        sb, sout = bin_fractions(kept)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(zs))])
        cdf = np.interp(EDGES, zs, cum / cum[-1])
        ob = np.diff(cdf)
        tv = 0.5 * (np.abs(sb - ob).sum() + abs(sout - (1.0 - ob.sum())))
        assert tv < 0.02
