"""Tests for the systematic-scan sampler, its lock-step batches and its
reference loop."""

import itertools
import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import polarsim.inference
import reference_scan
from polarsim import oracle
from polarsim.inference import (
    ChainResult,
    InferenceConfig,
    SampleSet,
    derive_chain_seed,
    queue_chains,
    run_chain,
    run_chains,
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
    _env_arrays,
    init_trace,
    judge_steps,
    normal_site_mask,
    replay_values,
)
from reference_scan import (
    AGENT_ACCEPTS,
    candidate_uniforms,
    reference_chain,
    scan_draws,
    uniform_count,
)

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

    @pytest.mark.parametrize("n_obs", [1, 7, 8, 10, 16, 24, 71, 72, 100, 150])
    def test_incremental_weight_matches_replay_after_many_proposals(self, n_obs):
        cfg = InferenceConfig(n_chains=1, iterations=10_000, burn_in=100, seed=11)
        r = run_chain(ME3, PARAMS, n_obs, cfg, 0)
        _, _, factors, _, _ = replay_values(r.final_values, n_obs, ME3, PARAMS)
        assert r.final_log_weight == pytest.approx(float(factors.sum()), abs=1e-9)

    @pytest.mark.parametrize("n_obs", [1, 10, 100])
    def test_batched_weights_match_replay(self, n_obs):
        # Every chain of a lock-step batch carries its own log weight.
        chains = max(4, 60 // n_obs)
        cfg = InferenceConfig(n_chains=chains, iterations=6_000, burn_in=100, seed=12)
        for r in run_chains(ME3, PARAMS, n_obs, cfg, range(chains)):
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


def counters(chain: ChainResult) -> tuple:
    return (
        chain.n_proposals,
        chain.n_accepted,
        chain.n_flips,
        chain.proposed_by_branch,
        chain.accepted_by_branch,
    )


def assert_same_chain(new: ChainResult, ref: ChainResult) -> None:
    """Bit for bit: samples, final state, final log weight and counters."""
    assert new.samples.shape == ref.samples.shape
    assert new.samples.tobytes() == ref.samples.tobytes()
    assert new.final_values.tobytes() == ref.final_values.tobytes()
    assert float(new.final_log_weight).hex() == float(ref.final_log_weight).hex()
    assert counters(new) == counters(ref)


def planted_scan_draws(n_obs: int, plant):
    """A stand-in for ``np.random.default_rng`` whose generators pass each
    scan's uniforms, as the sampler and the reference loop both draw them
    (``reference_scan.ScanDraws``), through ``plant`` first."""
    default_rng = np.random.default_rng

    class Planted:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def random(self, size=None, out=None):
            u = self.rng.random(size, out=out)
            if u.size == uniform_count(n_obs):
                plant(u)
            return u

        def standard_normal(self, size=None, out=None):
            return self.rng.standard_normal(size, out=out)

    return Planted


def candidate_sides(u: np.ndarray, n_obs: int) -> np.ndarray:
    """The side coins of every candidate of a scan's uniforms, as an (N, K)
    view."""
    return candidate_uniforms(u, n_obs)[..., 1]


def fresh_halves(n_obs: int):
    """Generators whose every candidate side coin is 0.5."""

    def plant(u):
        candidate_sides(u, n_obs)[...] = 0.5

    return planted_scan_draws(n_obs, plant)


# Signed zeros, subnormals, and magnitudes far apart enough that the
# order of addition changes the rounded sum.
SUMMANDS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1e300, max_value=1e300),
)


# Up to 128 terms NumPy sums a row with eight accumulators, beyond that by
# halving; the counts cover both.
PAIRWISE_COUNTS = range(129)


def row_sums_match_alone(batch: np.ndarray) -> None:
    """Each row of the (C, N) ``batch``, summed along axis 1 as the sampler
    sums its log factors, is NumPy's pairwise sum of that row alone, bit
    for bit."""
    alone = [float(np.add.reduce(row)).hex() for row in batch]
    assert [float(s).hex() for s in batch.sum(axis=1)] == alone
    assert [float(s).hex() for s in batch.sum(axis=1, keepdims=True)[:, 0]] == alone


class TestPairwiseSum:
    """A chain's log weight is its row of the batch's (C, N) log factors
    summed along axis 1. A chain is the same in any batch only if that sum
    does not depend on the rows around it: it must be NumPy's pairwise sum
    of the row alone, as ``replay_values`` takes it."""

    @pytest.mark.parametrize("n", PAIRWISE_COUNTS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_equals_numpy_reduce(self, n, data):
        chains = data.draw(st.integers(min_value=1, max_value=9))
        row_sums_match_alone(data.draw(hnp.arrays(np.float64, (chains, n), elements=SUMMANDS)))

    def test_negative_zeros_sum_to_positive_zero_like_numpy(self):
        for n in PAIRWISE_COUNTS:
            row_sums_match_alone(np.full((3, n), -0.0))


needs_procfs = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmHWM from procfs"
)


def chain_peak_mib(n_obs: int) -> float:
    """Peak resident MiB of a fresh interpreter running one default chain of
    a million iterations at ``n_obs`` observations.

    The child reads its peak from VmHWM: getrusage's ru_maxrss would carry
    over this process's peak from before exec. It inherits the caller's
    ``PYTHONDONTWRITEBYTECODE``, so it writes bytecode only if the caller
    would.
    """
    code = (
        "from polarsim.inference import InferenceConfig, run_chain\n"
        "from polarsim.model import ME2, ModelParams\n"
        "cfg = InferenceConfig(iterations=1_000_000, burn_in=999_000)\n"
        f"run_chain(ME2, ModelParams(), {n_obs}, cfg, 0)\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(next(l.split()[1] for l in status if l.startswith('VmHWM')))\n"
    )
    src = str(Path(polarsim.inference.__file__).resolve().parents[1])
    env = {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=300,
    )
    return int(out.stdout.split()[-1]) / 1024


class TestChainMemory:
    @needs_procfs
    @pytest.mark.parametrize("n_obs", [0, 10, 100])
    def test_does_not_grow_with_iterations(self, n_obs):
        # A million iterations of draws held at once would take tens of
        # MiB; a chain holds one scan's draws and stays near the
        # interpreter's own footprint.
        assert chain_peak_mib(n_obs) < 60


ENVIRONMENTS = pytest.mark.parametrize(
    "env, params",
    [(ME1, PARAMS), (ME2, PARAMS), (ME3, PARAMS), (HARSH, HARSH_PARAMS)],
    ids=["ME1", "ME2", "ME3", "harsh"],
)

# (flip_prob, prior_prob, disable_likelihood)
KERNELS = list(itertools.product((0.0, 0.05, 0.5), (0.0, 0.7), (False, True)))


# A coin at 0.5 makes the next flip a scored one; a coin just below it
# lands on 0.5 by an exact flip. Coins leave the fold when their step's
# block moves, which the scan may do before its first flip, so only some
# chains make a scored flip; over these, some do at every N tested.
FOLD_COINS = pytest.mark.parametrize("coin", [0.5, BELOW_HALF], ids=["half", "below_half"])
FOLD_CONFIGS = [dict(seed=seed) for seed in range(8)] + [
    dict(seed=4, flip_prob=0.5),
    dict(seed=5, flip_prob=0.5, disable_likelihood=True),
]


def planted(coin: float, some_chains: bool = False):
    """``init_trace`` with every side coin set to ``coin``; with
    ``some_chains``, only in chains whose agent analytic starts below the
    middle of its range, so that the other chains never make a scored
    flip."""

    def init(n, rng):
        values = init_trace(n, rng)
        if not some_chains or values[1] < 0.5:
            values[3::6] = coin
        return values

    return init


def assert_matches_reference(new: ChainResult, ref: ChainResult) -> None:
    """Equal samples, final state and counters; the final log weight, a sum
    taken in another order by the reference, to 1e-9."""
    assert new.samples.shape == ref.samples.shape
    assert new.samples.tobytes() == ref.samples.tobytes()
    assert new.final_values.tobytes() == ref.final_values.tobytes()
    assert new.final_log_weight == pytest.approx(ref.final_log_weight, abs=1e-9)
    assert counters(new) == counters(ref)


class TestScanMatchesReferenceLoop:
    """At every N, run_chain, a lock-step batch of one, makes the decisions
    of the per-proposal loop of tests/reference_scan.py, which scores every
    agent proposal and every block's weights by a full replay."""

    @ENVIRONMENTS
    @pytest.mark.parametrize(
        "n_obs", [0, 1, 7, 8, 15, 16, 17, 24, 45, 46, 51, 52, 71, 72, 100]
    )
    def test_equal_chains(self, env, params, n_obs):
        # 2,000 iterations end the last scan inside a step's block from N = 7
        # up (at N = 0 and 1 they end with a full scan).
        for k, (flip_prob, prior_prob, prior_only) in enumerate(KERNELS):
            cfg = InferenceConfig(
                n_chains=1,
                iterations=2000,
                burn_in=200,
                thin=3,
                seed=100 * n_obs + k,
                flip_prob=flip_prob,
                prior_prob=prior_prob,
                disable_likelihood=prior_only,
            )
            ref, _ = reference_chain(env, params, n_obs, cfg, 1)
            assert_matches_reference(run_chain(env, params, n_obs, cfg, 1), ref)

    @pytest.mark.parametrize("n_obs", [1, 16, 100])
    def test_equal_over_many_scans(self, n_obs):
        cfg = InferenceConfig(n_chains=1, iterations=16_387, burn_in=1000, thin=7, seed=5)
        ref, _ = reference_chain(ME3, PARAMS, n_obs, cfg, 0)
        assert_matches_reference(run_chain(ME3, PARAMS, n_obs, cfg, 0), ref)

    @FOLD_COINS
    @pytest.mark.parametrize("n_obs", [3, 15, 16, 40, 45, 46, 51, 52, 72])
    def test_planted_fold_coins_take_the_scored_flip(self, monkeypatch, coin, n_obs):
        monkeypatch.setattr(polarsim.inference, "init_trace", planted(coin))
        monkeypatch.setattr(reference_scan, "init_trace", planted(coin))
        scored = 0
        for kwargs in FOLD_CONFIGS:
            cfg = InferenceConfig(n_chains=1, iterations=2000, burn_in=100, **kwargs)
            ref, count = reference_chain(ME2, PARAMS, n_obs, cfg, 0)
            assert_matches_reference(run_chain(ME2, PARAMS, n_obs, cfg, 0), ref)
            scored += count
        assert scored > 0

    @pytest.mark.parametrize("prior_only", [False, True])
    @pytest.mark.parametrize("n_obs", [5, 16, 40, 72])
    def test_a_fresh_side_coin_at_the_fold_takes_the_scored_flip(
        self, monkeypatch, n_obs, prior_only
    ):
        # In every scan the first candidate of the last step draws its side
        # coin at exactly 0.5; once a block update takes it, the next flip
        # is scored.
        def plant(u):
            candidate_sides(u, n_obs)[-1, 0] = 0.5

        monkeypatch.setattr(np.random, "default_rng", planted_scan_draws(n_obs, plant))
        calls = count_scored_flips(monkeypatch)
        cfg = InferenceConfig(
            n_chains=1, iterations=4000, burn_in=100, seed=8, flip_prob=0.3,
            disable_likelihood=prior_only,
        )
        ref, scored = reference_chain(ME2, PARAMS, n_obs, cfg, 0)
        assert scored > 0
        chain = run_chain(ME2, PARAMS, n_obs, cfg, 0)
        assert_matches_reference(chain, ref)
        # With the likelihood off nothing is scored.
        assert len(calls) == (0 if prior_only else scored)

    @pytest.mark.parametrize("n_obs", [5, 40])
    def test_prior_draws_onto_the_fold(self, monkeypatch, n_obs):
        # Every candidate's side coin is 0.5, so side coins land on the fold
        # through block updates alone.
        monkeypatch.setattr(np.random, "default_rng", fresh_halves(n_obs))
        cfg = InferenceConfig(n_chains=1, iterations=3000, burn_in=100, seed=9, flip_prob=0.3)
        ref, scored = reference_chain(ME2, PARAMS, n_obs, cfg, 0)
        assert scored > 0
        chain = run_chain(ME2, PARAMS, n_obs, cfg, 0)
        assert_matches_reference(chain, ref)
        _, _, factors, _, _ = replay_values(chain.final_values, n_obs, ME2, PARAMS)
        assert chain.final_log_weight == pytest.approx(float(factors.sum()), abs=1e-9)

    @pytest.mark.parametrize("prior_prob", [0.0, 0.7])
    @pytest.mark.parametrize("n_obs", [10, 72])
    def test_disabled_likelihood_keeps_the_prior(self, n_obs, prior_prob):
        # Chains start at prior draws, so after 24 scans every site of
        # every chain is again a prior draw if the kernel leaves the prior
        # invariant; a missing walk correction or a bad reflection drifts.
        length = 6 * n_obs + 2
        cfg = InferenceConfig(
            n_chains=128,
            iterations=24 * length,
            burn_in=0,
            thin=length,
            seed=23,
            prior_prob=prior_prob,
            disable_likelihood=True,
        )
        finals = np.array(
            [r.final_values for r in run_chains(ME2, PARAMS, n_obs, cfg, range(128))]
        )
        steps = finals[:, 2:].reshape(-1, 6)
        normal = stats.norm.cdf
        uniform = stats.uniform.cdf
        checks = [(finals[:, 0], normal), (finals[:, 1], uniform)]
        checks += [(steps[:, c], normal if c in (2, 3) else uniform) for c in range(6)]
        for draws, cdf in checks:
            assert stats.kstest(draws, cdf).pvalue > 1e-3
        moved = finals[:, 2:] != np.array(
            [init_trace(n_obs, np.random.default_rng(derive_chain_seed(23, i)))[2:]
             for i in range(128)]
        )
        assert moved.mean() > 0.9

    def test_worker_count_does_not_change_samples(self):
        config = InferenceConfig(n_chains=4, iterations=3000, burn_in=500, seed=4)
        a = sample_posterior(ME2, PARAMS, 100, config)
        with ProcessPoolExecutor(max_workers=2) as pool:
            queued = queue_chains(pool, 2, ME2, PARAMS, 100, config)
            b = sample_posterior(ME2, PARAMS, 100, config, chains=queued)
        assert a.samples.tobytes() == b.samples.tobytes()
        assert (a.n_proposals, a.n_accepted, a.n_flips) == (
            b.n_proposals,
            b.n_accepted,
            b.n_flips,
        )

    @pytest.mark.parametrize("n_obs", [1, 10])
    def test_worker_count_does_not_change_samples_in_uneven_batches(self, n_obs):
        # Seven chains make batches of 7, of 4 and 3, and of 3, 3 and 1.
        config = InferenceConfig(n_chains=7, iterations=600, burn_in=100, seed=4)
        manual = [run_chain(ME2, PARAMS, n_obs, config, i) for i in range(7)]
        for workers in (1, 2, 3):
            with ProcessPoolExecutor(max_workers=workers) as pool:
                queued = queue_chains(pool, workers, ME2, PARAMS, n_obs, config)
                runs = [
                    sample_posterior(ME2, PARAMS, n_obs, config),
                    sample_posterior(ME2, PARAMS, n_obs, config, chains=queued),
                ]
            for run in runs:
                assert run.samples.tobytes() == np.vstack([r.samples for r in manual]).tobytes()
                assert (run.n_proposals, run.n_accepted, run.n_flips) == (
                    sum(r.n_proposals for r in manual),
                    sum(r.n_accepted for r in manual),
                    sum(r.n_flips for r in manual),
                )
                assert run.accepted_by_branch == tuple(
                    sum(r.accepted_by_branch[b] for r in manual) for b in range(3)
                )


def count_scored_flips(monkeypatch) -> list:
    """Record each mirror flip the sampler scores on its own: a
    ``judge_steps`` call on one chain's (6, N) array, where every other call
    scores a batch's (6, C, N) steps or (6, K, C, N) candidates."""
    calls = []

    def counted(cols, *args):
        if cols.ndim == 2:
            calls.append(cols.shape)
        return judge_steps(cols, *args)

    monkeypatch.setattr(polarsim.inference, "judge_steps", counted)
    return calls


def assert_weight_is_replay(chain: ChainResult, env, params, n_obs: int) -> None:
    """The chain's final log weight is the sum of a full replay's log
    factors of its final values, bit for bit."""
    _, _, factors, _, _ = replay_values(chain.final_values, n_obs, env, params)
    assert float(chain.final_log_weight).hex() == float(factors.sum()).hex()


class TestEvaluatorsAgree:
    """The sampler's two evaluations of a chain's log weight are the same
    bit for bit: the incremental one, which scores agent proposals against
    the batch's steps and block candidates in the batch's (K, C, N) array
    (or a scored mirror flip on its own) and keeps the factors of the
    states taken, and a full replay of the chain's final values
    (``replay_values``), which scores every step at once. (TestRunChain
    checks the replay to 1e-9 over longer chains.)"""

    @ENVIRONMENTS
    @pytest.mark.parametrize("n_obs", [0, 1, 7, 8, 16, 45, 46, 47, 51, 52])
    def test_bitwise_equal_chains(self, env, params, n_obs):
        for k, (flip_prob, prior_prob, prior_only) in enumerate(KERNELS):
            if prior_only:
                continue  # No log weight is kept.
            cfg = InferenceConfig(
                n_chains=3,
                iterations=1000,
                burn_in=200,
                thin=3,
                seed=100 * n_obs + k,
                flip_prob=flip_prob,
                prior_prob=prior_prob,
            )
            for chain in run_chains(env, params, n_obs, cfg, range(3)):
                assert_weight_is_replay(chain, env, params, n_obs)

    @pytest.mark.parametrize("n_obs", [1, 7])
    def test_budgets_ending_anywhere_in_a_scan(self, n_obs):
        length = 6 * n_obs + 2
        for iterations in range(3 * length, 4 * length + 1):
            cfg = InferenceConfig(
                n_chains=3, iterations=iterations, burn_in=length, seed=iterations,
                flip_prob=0.3,
            )
            for chain in run_chains(HARSH, HARSH_PARAMS, n_obs, cfg, range(3)):
                assert_weight_is_replay(chain, HARSH, HARSH_PARAMS, n_obs)

    @FOLD_COINS
    @pytest.mark.parametrize("n_obs", [3, 15, 16, 40, 45, 46, 51, 52])
    def test_planted_fold_coins(self, monkeypatch, coin, n_obs):
        # Each budget ends with a scan's mirror flip, so the factors of a
        # scored flip are the last the chain keeps. A coin just below the
        # fold reaches it by a flip, and is scored by a later one only if
        # its block is kept in between, so the budgets run to six scans.
        monkeypatch.setattr(polarsim.inference, "init_trace", planted(coin))
        calls = count_scored_flips(monkeypatch)
        length = 6 * n_obs + 2
        for kwargs in FOLD_CONFIGS:
            if kwargs.get("disable_likelihood"):
                continue  # No log weight is kept.
            for scans in range(1, 7):
                cfg = InferenceConfig(n_chains=1, iterations=scans * length, burn_in=0, **kwargs)
                chain = run_chain(ME2, PARAMS, n_obs, cfg, 0)
                assert_weight_is_replay(chain, ME2, PARAMS, n_obs)
        assert len(calls) > 0

    @pytest.mark.parametrize("n_obs", [5, 40])
    def test_prior_draws_onto_the_fold(self, monkeypatch, n_obs):
        # Every candidate's side coin is 0.5, so side coins land on the fold
        # through block updates alone.
        monkeypatch.setattr(np.random, "default_rng", fresh_halves(n_obs))
        # The budget ends with a scan's mirror flip.
        calls = count_scored_flips(monkeypatch)
        length = 6 * n_obs + 2
        cfg = InferenceConfig(
            n_chains=1, iterations=3000 // length * length, burn_in=100, seed=9, flip_prob=0.3,
        )
        chain = run_chain(ME2, PARAMS, n_obs, cfg, 0)
        assert len(calls) > 0
        assert_weight_is_replay(chain, ME2, PARAMS, n_obs)


def batches(indices: list) -> list:
    """The chains as one batch, in reverse, and in two strided subsets."""
    return [indices, indices[::-1], indices[::2], indices[1::3]]


def assert_batches_match_alone(env, params, n_obs, config) -> dict:
    """Each chain of every batch of ``batches`` equals ``run_chain`` alone,
    bit for bit; returns the chains alone by index."""
    indices = list(range(config.n_chains))
    alone = {i: run_chain(env, params, n_obs, config, i) for i in indices}
    for batch in batches(indices):
        for i, result in zip(batch, run_chains(env, params, n_obs, config, batch)):
            assert result.chain_seed == alone[i].chain_seed
            assert_same_chain(result, alone[i])
    return alone


def batch_chains(n_obs: int) -> int:
    """Several chains and, from N = 1 up, more than 50 steps in all, so that
    each (C, N) step column of a batch is a wide array."""
    return 52 // n_obs + 2 if n_obs else 4


class TestBatchInvariance:
    """Chain i of ``run_chains`` is ``run_chain`` alone, a batch of one, bit
    for bit, in a batch of any size, order or subset."""

    @ENVIRONMENTS
    @pytest.mark.parametrize("n_obs", [0, 1, 10, 51, 52, 100])
    def test_each_chain_is_the_chain_alone(self, env, params, n_obs):
        # The budget ends inside a step's block, five twelfths of the way
        # through the steps from N = 2 up.
        length = 6 * n_obs + 2
        iterations = max(2, 200 // length) * length + 2 + 2 * n_obs + n_obs // 2
        for k, (flip_prob, prior_prob, prior_only) in enumerate(KERNELS):
            cfg = InferenceConfig(
                n_chains=batch_chains(n_obs),
                iterations=iterations,
                burn_in=length,
                thin=3,
                seed=100 * n_obs + k,
                flip_prob=flip_prob,
                prior_prob=prior_prob,
                disable_likelihood=prior_only,
            )
            assert_batches_match_alone(env, params, n_obs, cfg)

    @pytest.mark.parametrize("n_obs", [1, 7])
    def test_budgets_ending_anywhere_in_a_scan(self, n_obs):
        length = 6 * n_obs + 2
        for iterations in range(3 * length, 4 * length + 1):
            cfg = InferenceConfig(
                n_chains=batch_chains(n_obs), iterations=iterations, burn_in=length,
                seed=iterations, flip_prob=0.3,
            )
            assert_batches_match_alone(HARSH, HARSH_PARAMS, n_obs, cfg)

    @FOLD_COINS
    @pytest.mark.parametrize("n_obs", [3, 16, 52])
    def test_planted_fold_coins_score_the_flip_of_some_chains(self, monkeypatch, coin, n_obs):
        # The reference loop counts each chain's scored flips; in some batch
        # some chains make one and some do not. A batch is mixed as soon as
        # both kinds of chain are seen.
        init = planted(coin, some_chains=True)
        monkeypatch.setattr(polarsim.inference, "init_trace", init)
        monkeypatch.setattr(reference_scan, "init_trace", init)
        mixed = 0
        for seed in range(4):
            cfg = InferenceConfig(
                n_chains=max(8, batch_chains(n_obs)), iterations=2000, burn_in=100,
                seed=seed, flip_prob=0.5,
            )
            alone = assert_batches_match_alone(ME2, PARAMS, n_obs, cfg)
            kinds = set()
            for i in range(cfg.n_chains):
                ref, count = reference_chain(ME2, PARAMS, n_obs, cfg, i)
                assert_matches_reference(alone[i], ref)
                kinds.add(count > 0)
                if len(kinds) == 2:
                    break
            mixed += len(kinds) == 2
        assert mixed > 0


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
        config = InferenceConfig(n_chains=6, iterations=300, burn_in=50, seed=4)
        a = sample_posterior(ME2, PARAMS, 3, config)
        with ProcessPoolExecutor(max_workers=2) as pool:
            b = sample_posterior(
                ME2, PARAMS, 3, config, chains=queue_chains(pool, 2, ME2, PARAMS, 3, config)
            )
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


def freeze_agent(monkeypatch, n_obs: int, politics_unit: float, analytic_unit: float) -> None:
    """Start every chain with its agent sites at the given unit values and
    reject every agent proposal, by accept draws of 1.0, so that only the
    step blocks move."""

    def init(n, rng):
        values = init_trace(n, rng)
        values[:2] = politics_unit, analytic_unit
        return values

    def plant(u):
        u[AGENT_ACCEPTS] = 1.0

    monkeypatch.setattr(polarsim.inference, "init_trace", init)
    monkeypatch.setattr(np.random, "default_rng", planted_scan_draws(n_obs, plant))


def weighted_ks(sample: np.ndarray, points: np.ndarray, weights: np.ndarray) -> float:
    """Largest gap between the empirical CDF of ``sample`` and the CDF of
    ``points`` weighted by ``weights``, which sum to 1."""
    at = np.concatenate((sample, points))
    sample_cdf = np.searchsorted(np.sort(sample), at, side="right") / sample.size
    order = np.argsort(points)
    cum = np.concatenate(([0.0], np.cumsum(weights[order])))
    weighted_cdf = cum[np.searchsorted(points[order], at, side="right")]
    return float(np.abs(sample_cdf - weighted_cdf).max())


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

    def test_frozen_agent_block_update_matches_step_conditional(self, monkeypatch):
        # With the agent frozen, the block update alone must have the step's
        # conditional density (prior times the step factor) as its
        # stationary law. The law of p_judged under it is taken from
        # 400,000 prior draws of a block weighted by their step factors;
        # 20,000 chains of 12 scans each give draws of the update's law.
        agent = (0.6, 0.7)  # unit values 0.6 and 0.4
        freeze_agent(monkeypatch, 1, 0.6, 0.4)
        cfg = InferenceConfig(n_chains=20_000, iterations=96, burn_in=95, seed=51, flip_prob=0.0)
        finals = np.array([r.final_values for r in run_chains(ME2, PARAMS, 1, cfg, range(20_000))])
        assert np.all(finals[:, :2] == (0.6, 0.4))
        env_arrays = _env_arrays(ME2)
        judged = judge_steps(finals[:, 2:].T, *agent, env_arrays, PARAMS).p_judged

        rng = np.random.default_rng(52)
        size = 400_000
        unit = [rng.random(size) for _ in range(4)]
        blocks = [unit[0], unit[1], rng.standard_normal(size), rng.standard_normal(size), *unit[2:]]
        prior = judge_steps(blocks, *agent, env_arrays, PARAMS)
        weights = np.exp(prior.log_factors - prior.log_factors.max())
        weights /= weights.sum()
        assert weighted_ks(judged, prior.p_judged, weights) < 0.02
        # The step factor moves the law well away from the prior's.
        assert weighted_ks(judged, prior.p_judged, np.full(size, 1.0 / size)) > 0.1

    def test_block_choices_follow_normalised_weights_far_from_the_likelihood(self, monkeypatch):
        # At likelihood_sd 0.02 with agent politics at 3, the step factors
        # of the current block and the candidates mostly underflow to 0.
        # Normalised by their maximum the weights are finite, and a block
        # update must choose each of the three as often as they say.
        params = replace(PARAMS, likelihood_sd=0.02)
        chains = 4000
        cfg = InferenceConfig(n_chains=chains, iterations=8, burn_in=7, seed=61, flip_prob=0.0)
        env_arrays = _env_arrays(ME2)
        options, log_factors = [], []
        for i in range(chains):
            rng = np.random.default_rng(derive_chain_seed(cfg.seed, i))
            values = init_trace(1, rng)
            draws = scan_draws(rng, 1)
            blocks = np.vstack((values[2:], draws.candidates[0]))
            options.append(blocks)
            log_factors.append(judge_steps(blocks.T, 3.0, 0.7, env_arrays, params).log_factors)
        log_factors = np.array(log_factors)
        # Most chains are in the regime the normalisation is for.
        assert np.mean(np.exp(log_factors).max(axis=1) == 0.0) > 0.5
        weights = np.exp(log_factors - log_factors.max(axis=1, keepdims=True))
        assert np.all(np.isfinite(weights))
        probs = weights / weights.sum(axis=1, keepdims=True)

        freeze_agent(monkeypatch, 1, 3.0, 0.4)
        results = run_chains(ME2, params, 1, cfg, range(chains))
        picks = []
        for blocks, result in zip(options, results):
            assert math.isfinite(result.final_log_weight)
            (match,) = np.flatnonzero((blocks == result.final_values[2:]).all(axis=1))
            picks.append(match)
        counts = np.bincount(picks, minlength=3)
        expected = probs.sum(axis=0)
        sd = np.sqrt((probs * (1.0 - probs)).sum(axis=0))
        assert np.all(np.abs(counts - expected) <= 4.0 * sd + 1.0)
