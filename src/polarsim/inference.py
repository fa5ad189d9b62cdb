"""Single-site Metropolis-Hastings over addressed traces.

Each iteration either proposes a new value at one uniformly chosen address
(prior resample or reflected random walk) or applies a whole-trace mirror
flip that exchanges the two politics modes exactly. All proposal randomness
is drawn up front in per-iteration streams, so a chain's trajectory is a
pure function of its seed no matter which branches execute.

Chain seeds are derived from the experiment seed with a splitmix64 mix, and
samples are concatenated in chain order, so results are identical whether
chains run serially or in a process pool.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polarsim.model import MediaEnvironment, ModelParams
from polarsim.trace import (
    _env_arrays,
    address_count,
    init_trace,
    normal_site_mask,
    pipeline_from_values,
    reflect_unit,
)

__all__ = [
    "InferenceConfig",
    "ChainResult",
    "SampleSet",
    "derive_chain_seed",
    "run_chain",
    "sample_posterior",
    "write_samples_csv",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_MASK64 = (1 << 64) - 1


def derive_chain_seed(seed: int, chain_index: int) -> int:
    """Mix an experiment seed and a chain index into an independent seed.

    splitmix64 finalizer over ``seed + (index + 1) * golden``; consecutive
    chain indices land far apart, and chain 0 never equals the raw seed.
    """
    x = (seed + (chain_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class InferenceConfig:
    """Sampler budget and kernel mixture for one experiment cell.

    ``prior_prob`` is the chance a site proposal resamples from the unit
    prior instead of random-walking; ``flip_prob`` is the chance an
    iteration applies the mirror flip instead of a site proposal (0 recovers
    the plain single-site kernel). ``disable_likelihood`` zeroes every step
    factor so chains target the prior exactly.
    """

    n_chains: int = 256
    iterations: int = 1000
    burn_in: int = 100
    thin: int = 1
    seed: int = 0
    prior_prob: float = 0.7
    walk_scale: float = 0.25
    flip_prob: float = 0.05
    workers: int = 1
    disable_likelihood: bool = False

    def __post_init__(self) -> None:
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must be in [0, iterations)")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.kept_per_chain < 1:
            raise ValueError("(iterations - burn_in) // thin must keep at least one sample")
        if not 0.0 <= self.prior_prob <= 1.0:
            raise ValueError("prior_prob must be in [0, 1]")
        if not 0.0 <= self.flip_prob < 1.0:
            raise ValueError("flip_prob must be in [0, 1)")
        if self.walk_scale <= 0.0:
            raise ValueError("walk_scale must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def kept_per_chain(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass(frozen=True)
class ChainResult:
    """Kept draws of one chain plus its final state for auditing.

    ``samples`` has one row per kept iteration with columns (agent politics,
    agent analytic). ``n_proposals`` counts site proposals only; mirror
    flips are tallied separately because they are always accepted.
    """

    samples: np.ndarray
    n_proposals: int
    n_accepted: int
    n_flips: int
    final_values: np.ndarray
    final_log_weight: float
    chain_seed: int


@dataclass(frozen=True)
class SampleSet:
    """Concatenated draws of all chains of one experiment cell."""

    samples: np.ndarray
    env_name: str
    n_obs: int
    config: InferenceConfig
    acceptance_rate: float
    n_flips: int
    chain_politics_means: np.ndarray

    @property
    def politics(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def analytic(self) -> np.ndarray:
        return self.samples[:, 1]


def run_chain(
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
    chain_index: int,
) -> ChainResult:
    """One chain over a fresh prior-initialized trace.

    State is kept as plain floats with per-step caches (judged politics and
    the news contest draw of every step), so a step-site proposal recomputes
    one step and an agent-site proposal recomputes all steps vectorized.
    The incremental log weight is cross-checked against a full replay in the
    test suite.
    """
    chain_seed = derive_chain_seed(config.seed, chain_index)
    rng = np.random.default_rng(chain_seed)
    trace = init_trace(env, params, n_obs, rng)

    iters = config.iterations
    # One value per stream per iteration, drawn up front: which branches run
    # never changes how much randomness the chain consumes.
    u_kind = rng.random(iters).tolist()
    u_site = rng.random(iters).tolist()
    u_mix = rng.random(iters).tolist()
    z_innov = rng.standard_normal(iters).tolist()
    u_innov = rng.random(iters).tolist()
    u_accept = rng.random(iters).tolist()

    like_on = not config.disable_likelihood
    n_addr = address_count(n_obs)
    is_normal = normal_site_mask(n_obs).tolist()

    env_arrays = _env_arrays(env)
    cums = env_arrays[0].tolist()
    mag = env_arrays[1].tolist()
    p_sd = env_arrays[2].tolist()
    t_mean = env_arrays[3].tolist()
    t_sd = env_arrays[4].tolist()
    last_outlet = len(cums) - 1

    ds = params.discount_scale
    db = params.discount_base
    inv_sd = 1.0 / params.likelihood_sd
    f_const = -math.log(params.likelihood_sd) - _HALF_LOG_2PI
    p_scale = params.prior_politics_sd
    a_low = params.analytic_low
    a_span = params.analytic_high - params.analytic_low

    vals = trace.values.tolist()
    p_agent, a_agent, pipe = pipeline_from_values(trace.values, n_obs, env, params)
    p_news = pipe.p_news.tolist()
    x_news = pipe.x_news.tolist()
    if like_on:
        logf = pipe.log_factors.tolist()
        log_weight = float(pipe.log_factors.sum())
    else:
        logf = [0.0] * n_obs
        log_weight = 0.0

    burn = config.burn_in
    thin = config.thin
    flip_p = config.flip_prob
    prior_p = config.prior_prob
    w_scale = config.walk_scale

    samples = np.empty((config.kept_per_chain, 2))
    k = 0
    n_props = 0
    n_acc = 0
    n_flips = 0

    for i in range(iters):
        if u_kind[i] < flip_p:
            n_flips += 1
            sides = vals[3::6]
            if any(v == 0.5 for v in sides):
                # A side coin exactly on the fold breaks the exact symmetry,
                # so score the flipped trace like any other proposal. The
                # flip is its own inverse, which makes the revert trivial.
                vals[0] = -vals[0]
                vals[3::6] = [1.0 - v for v in sides]
                vals[4::6] = [-v for v in vals[4::6]]
                pa_new = -p_agent
                if like_on and n_obs:
                    _, _, flipped = pipeline_from_values(
                        np.array(vals), n_obs, env, params
                    )
                    new_lw = float(flipped.log_factors.sum())
                else:
                    flipped = None
                    new_lw = 0.0
                delta = new_lw - log_weight
                if delta >= 0.0 or u_accept[i] < math.exp(delta):
                    p_agent = pa_new
                    log_weight = new_lw
                    if flipped is not None:
                        p_news = flipped.p_news.tolist()
                        x_news = flipped.x_news.tolist()
                        logf = flipped.log_factors.tolist()
                else:
                    vals[0] = -vals[0]
                    vals[3::6] = sides
                    vals[4::6] = [-v for v in vals[4::6]]
            else:
                # Exact mirror image: every step factor is preserved
                # bitwise, so the flip is always accepted and only the
                # politics-signed caches change.
                vals[0] = -vals[0]
                vals[3::6] = [1.0 - v for v in sides]
                vals[4::6] = [-v for v in vals[4::6]]
                p_agent = -p_agent
                p_news = [-p for p in p_news]
        else:
            n_props += 1
            j = int(u_site[i] * n_addr)
            if j >= n_addr:
                j = n_addr - 1
            old = vals[j]
            if u_mix[i] < prior_p:
                new = z_innov[i] if is_normal[j] else u_innov[i]
                corr = 0.0
            else:
                eps = w_scale * z_innov[i]
                if is_normal[j]:
                    new = old + eps
                    corr = 0.5 * (old * old - new * new)
                else:
                    new = reflect_unit(old + eps)
                    corr = 0.0
            vals[j] = new

            if j >= 2:
                if like_on:
                    s = (j - 2) // 6
                    base = 2 + 6 * s
                    u_o = vals[base]
                    o = bisect_right(cums, u_o)
                    if o > last_outlet:
                        o = last_outlet
                    m = mag[o]
                    p_n = (m if vals[base + 1] < 0.5 else -m) + p_sd[o] * vals[base + 2]
                    t_n = t_mean[o] + t_sd[o] * vals[base + 3]
                    b_n = t_n if t_n > 0.0 else 0.0
                    b_a = a_agent - ds * db ** abs(p_n - p_agent)
                    if b_a < 0.0:
                        b_a = 0.0
                    x_n = vals[base + 4] * b_n
                    x_a = vals[base + 5] * b_a
                    p_j = p_n if x_n > x_a else -p_n
                    zz = (p_j - p_agent) * inv_sd
                    f = f_const - 0.5 * zz * zz
                    delta = f - logf[s]
                    d = delta + corr
                    if d >= 0.0 or u_accept[i] < math.exp(d):
                        n_acc += 1
                        logf[s] = f
                        p_news[s] = p_n
                        x_news[s] = x_n
                        log_weight += delta
                    else:
                        vals[j] = old
                else:
                    if corr >= 0.0 or u_accept[i] < math.exp(corr):
                        n_acc += 1
                    else:
                        vals[j] = old
            else:
                if j == 0:
                    pa_new = p_scale * new
                    aa_new = a_agent
                else:
                    pa_new = p_agent
                    aa_new = a_low + a_span * new
                if like_on and n_obs:
                    pn = np.array(p_news)
                    b_a_vec = aa_new - ds * db ** np.abs(pn - pa_new)
                    np.maximum(b_a_vec, 0.0, out=b_a_vec)
                    won = np.array(x_news) > np.array(vals[7::6]) * b_a_vec
                    p_j_vec = np.where(won, pn, -pn)
                    zz_vec = (p_j_vec - pa_new) * inv_sd
                    lf = f_const - 0.5 * zz_vec * zz_vec
                    new_lw = float(lf.sum())
                else:
                    lf = None
                    new_lw = 0.0
                d = (new_lw - log_weight) + corr
                if d >= 0.0 or u_accept[i] < math.exp(d):
                    n_acc += 1
                    p_agent = pa_new
                    a_agent = aa_new
                    log_weight = new_lw
                    if lf is not None:
                        logf = lf.tolist()
                else:
                    vals[j] = old

        if i >= burn and (i - burn + 1) % thin == 0:
            samples[k, 0] = p_agent
            samples[k, 1] = a_agent
            k += 1

    return ChainResult(
        samples=samples,
        n_proposals=n_props,
        n_accepted=n_acc,
        n_flips=n_flips,
        final_values=np.array(vals),
        final_log_weight=log_weight,
        chain_seed=chain_seed,
    )


def _run_chain_task(args: tuple) -> ChainResult:
    return run_chain(*args)


def sample_posterior(
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
) -> SampleSet:
    """All chains of one experiment cell, serial or in a process pool.

    The result is identical for every ``workers`` value: chain i depends
    only on ``(config.seed, i)`` and samples are concatenated in chain
    order.
    """
    tasks = [(env, params, n_obs, config, i) for i in range(config.n_chains)]
    if config.workers == 1:
        results = [run_chain(*task) for task in tasks]
    else:
        chunk = max(1, config.n_chains // (4 * config.workers))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_run_chain_task, tasks, chunksize=chunk))

    samples = np.vstack([r.samples for r in results])
    total_props = sum(r.n_proposals for r in results)
    total_acc = sum(r.n_accepted for r in results)
    return SampleSet(
        samples=samples,
        env_name=env.name,
        n_obs=n_obs,
        config=config,
        acceptance_rate=total_acc / total_props if total_props else 0.0,
        n_flips=sum(r.n_flips for r in results),
        chain_politics_means=np.array([float(r.samples[:, 0].mean()) for r in results]),
    )


def write_samples_csv(sample_set: SampleSet, path: "str | Path") -> None:
    """Dump the kept politics samples, one column, one header line."""
    lines = ["p_a"]
    lines.extend(f"{float(v)!r}" for v in sample_set.politics)
    Path(path).write_text("\n".join(lines) + "\n")
