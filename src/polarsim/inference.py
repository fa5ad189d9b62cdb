"""Metropolis-Hastings over flat trace values, by a systematic scan.

One scan proposes at every site once: the two agent sites one at a time,
then each of the six step columns at all N steps, and after a full scan a
mirror flip that exchanges the two politics modes. Given the agent the
steps are conditionally independent, so each step of a column is accepted
on its own.

``run_chains`` runs a batch of chains in lock-step, one NumPy pass per
site for the whole batch. Every chain keeps its own generator and takes
the same draws in any batch, so it is the same chain bit for bit whatever
batch it runs in: a chain's trajectory is a pure function of its seed, and
its memory does not grow with its length.

Chain seeds are derived from the experiment seed with a splitmix64 mix, and
samples are concatenated in chain order, so results are identical whether
chains run serially or in a process pool. ``queue_chains`` puts a cell's
chains on a pool the caller owns, one batch per worker, so one pool can
serve many cells.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from polarsim.model import MediaEnvironment, ModelParams, _require_finite
from polarsim.trace import (
    _COL_SIDE,
    _COL_ZPOL,
    _env_arrays,
    address_count,
    init_trace,
    judge_steps,
    normal_site_mask,
    pipeline_from_values,
    reflect_units,
)

__all__ = [
    "InferenceConfig",
    "ChainResult",
    "SampleSet",
    "derive_chain_seed",
    "queue_chains",
    "run_chain",
    "run_chains",
    "sample_posterior",
    "write_samples_csv",
]

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
    prior instead of random-walking. After each full scan of 6N + 2 site
    proposals a mirror flip is made with probability
    (1 - (1 - 2 ``flip_prob``)^(6N + 2)) / 2, the chance of an odd number
    of flips if each proposal were replaced by a flip with probability
    ``flip_prob``; 0 makes no flips. ``disable_likelihood`` zeroes every
    step factor so chains target the prior exactly.
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
        _require_finite(self, "prior_prob", "walk_scale", "flip_prob")
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
    agent analytic). Every iteration is one site proposal, so
    ``n_proposals`` equals the iterations; ``n_accepted`` counts the
    accepted ones, and ``n_flips`` the mirror flips made after full scans,
    which are not proposals.
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
    """Concatenated draws of all chains of one experiment cell, with the
    kernel counters of ``ChainResult`` summed over the chains."""

    samples: np.ndarray
    env_name: str
    n_obs: int
    config: InferenceConfig
    n_proposals: int
    n_accepted: int
    n_flips: int

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_proposals if self.n_proposals else 0.0

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
    """One chain, as a batch of one (``run_chains``)."""
    return run_chains(env, params, n_obs, config, [chain_index])[0]


def run_chains(
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
    indices: Iterable[int],
) -> list[ChainResult]:
    """The chains of ``indices``, each over a fresh prior-drawn value array.

    Each chain draws its start (``init_trace``) from its own generator, and
    the start is scored by one ``pipeline_from_values`` pass. The chains
    then run in lock-step (``_scan_batch``), and chain i is the same
    whatever batch it is run in. Memory is O(chains x (n_obs + kept
    samples)), not O(iterations). The incremental log weight is
    cross-checked against a full replay in the test suite.
    """
    seeds = [derive_chain_seed(config.seed, i) for i in indices]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    values = [init_trace(n_obs, rng) for rng in rngs]
    starts = [pipeline_from_values(v, n_obs, env, params) for v in values]
    runs = _scan_batch(values, starts, rngs, env, params, n_obs, config)
    return [
        ChainResult(
            samples=samples,
            n_proposals=config.iterations,
            n_accepted=n_acc,
            n_flips=n_flips,
            final_values=final_values,
            final_log_weight=log_weight,
            chain_seed=seed,
        )
        for seed, (samples, n_acc, n_flips, final_values, log_weight) in zip(seeds, runs)
    ]


def _scan_batch(
    values: list,
    starts: list,
    rngs: list,
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
) -> list:
    """The systematic-scan kernel, over C chains at once.

    One scan proposes at every site once, as 6N + 2 iterations: agent
    politics, agent analytic (each rescoring all N steps), then each of the
    six step columns in layout order, each step accepted on its own. A site
    proposal is a prior resample with probability ``prior_prob``, else a
    walk of ``walk_scale`` (reflected into [0, 1] at a uniform site, with the
    Gaussian prior correction at a normal one). The last scan stops
    mid-column when the iterations run out; a kept sample is the agent state
    after its iteration, and the keep rule reads only the iteration, so all
    chains keep at the same iterations.

    After each full scan a chain makes a mirror flip with probability
    (1 - (1 - 2 flip_prob)^(6N + 2)) / 2. It preserves every step factor
    unless a side coin is exactly 0.5; then that chain's flipped state is
    scored on its own and accepted by MH.

    Each scan, every chain draws from its own generator 3 (6N + 2) + 2
    uniforms in one call, into its row of a (C, 3 (6N + 2) + 2) buffer: the
    prior-or-walk coins, the uniform prior values and the accept draws, one
    per iteration each, then the flip coin and its accept draw. Then 6N + 2
    standard normals into its row of a (C, 6N + 2) buffer, for the normal
    prior values and walk steps. So a chain's draws, and its decisions, do
    not depend on the batch it is in.

    Each chain's values are a row of a (C, 6N + 2) array in scan order (the
    agent sites, then the steps column by column), so a row lines up with
    its draws; the steps are scored as six (C, N) columns with (C, N) log
    factors, and the agent parameters are (C, 1) columns that broadcast
    against them. Every site is one NumPy pass over the batch: one
    ``judge_steps`` call scores an agent proposal or a step column of every
    chain. With no observations there is nothing to score. Returns, per
    chain, ``(samples, accepted, flips, final values, final log weight)``.
    """
    like_on = not config.disable_likelihood and n_obs > 0
    chains, n, length = len(rngs), n_obs, address_count(n_obs)
    env_arrays = _env_arrays(env)
    # The layout index of each site, in scan order.
    order = np.concatenate(([0, 1], 2 + np.arange(6 * n).reshape(n, 6).T.ravel()))
    state = np.array(values).take(order, axis=1)
    # Views of the steps of ``state``: six (C, N) columns.
    block = list(state[:, 2:].reshape(chains, 6, n).transpose(1, 0, 2))
    z_agent = state[:, 0:1]
    normal = normal_site_mask(n)[order]
    logf = np.array([s[2].log_factors for s in starts]) if like_on else np.zeros((chains, n))
    p_agent = np.array([[s[0]] for s in starts])
    a_agent = np.array([[s[1]] for s in starts])
    u_draws = np.empty((chains, 3 * length + 2))
    z_draws = np.empty((chains, length))
    u_accept = u_draws[:, 2 * length : 3 * length]

    def score(cols, p, a):
        """The (C, N) log factors of six (C, N) step columns for agents p, a."""
        return judge_steps(cols, p, a, env_arrays, params).log_factors

    def mh(d, site):
        """Accept by Metropolis-Hastings, with log ratios ``d`` at a site."""
        return u_accept[:, site] < np.exp(np.minimum(d, 0.0))

    p_scale = params.prior_politics_sd
    a_low = params.analytic_low
    a_span = params.analytic_high - params.analytic_low
    prior_p = config.prior_prob
    w_scale = config.walk_scale
    flip_q = 0.5 * (1.0 - (1.0 - 2.0 * config.flip_prob) ** length)
    iterations = config.iterations
    burn = config.burn_in
    thin = config.thin

    # Runs of kept samples: agent politics, agent analytic, times kept.
    kept = []
    next_keep = burn + thin - 1
    n_acc = np.zeros((chains, 1), dtype=np.int64)
    n_flips = np.zeros((chains, 1), dtype=np.int64)
    step_acc = np.zeros((chains, n), dtype=np.int64)
    for first in range(0, iterations, length):
        todo = min(length, iterations - first)
        for rng, u, z in zip(rngs, u_draws, z_draws):
            rng.random(out=u)
            rng.standard_normal(out=z)

        # Every site's proposal reads only its own value, which holds until
        # its turn in the scan, so all are made up front, in scan order.
        prior = u_draws[:, :length] < prior_p
        walk = state + w_scale * z_draws
        fresh = np.where(normal, z_draws, u_draws[:, length : 2 * length])
        proposals = np.where(prior, fresh, np.where(normal, walk, reflect_units(walk)))
        corrs = np.where(normal & ~prior, 0.5 * (state * state - walk * walk), 0.0)

        # Agent politics.
        pa_new = p_scale * proposals[:, 0:1]
        if like_on:
            lf = score(block, pa_new, a_agent)
            total = logf.sum(axis=1, keepdims=True)
            new_total = lf.sum(axis=1, keepdims=True)
            accept = mh((new_total - total) + corrs[:, 0:1], slice(0, 1))
            np.copyto(logf, lf, where=accept)
            total = np.where(accept, new_total, total)
        else:
            accept = mh(corrs[:, 0:1], slice(0, 1))
        n_acc += accept
        np.copyto(z_agent, proposals[:, 0:1], where=accept)
        p_agent = np.where(accept, pa_new, p_agent)
        if next_keep == first:
            kept.append((p_agent, a_agent, 1))
            next_keep += thin
        if todo == 1:
            break  # The budget ends at agent politics.

        # Agent analytic; its state holds through the step columns.
        aa_new = a_low + a_span * proposals[:, 1:2]
        if like_on:
            lf = score(block, p_agent, aa_new)
            accept = mh(lf.sum(axis=1, keepdims=True) - total, slice(1, 2))
            np.copyto(logf, lf, where=accept)
        else:
            accept = np.ones((chains, 1), dtype=bool)
        n_acc += accept
        np.copyto(state[:, 1:2], proposals[:, 1:2], where=accept)
        a_agent = np.where(accept, aa_new, a_agent)
        if next_keep < first + todo:
            times = (first + todo - 1 - next_keep) // thin + 1
            kept.append((p_agent, a_agent, times))
            next_keep += times * thin

        # The six step columns, each step accepted on its own.
        for col in range(6):
            lo = 2 + col * n
            if lo >= todo:
                break
            new = proposals[:, lo : lo + n]
            if like_on:
                cols = block.copy()
                cols[col] = new
                lf = score(cols, p_agent, a_agent)
                accept = mh((lf - logf) + corrs[:, lo : lo + n], slice(lo, lo + n))
            else:
                accept = mh(corrs[:, lo : lo + n], slice(lo, lo + n))
            if todo - lo < n:
                accept[:, todo - lo :] = False
            step_acc += accept
            np.copyto(block[col], new, where=accept)
            if like_on:
                np.copyto(logf, lf, where=accept)

        if todo < length:
            break
        flips = u_draws[:, 3 * length : 3 * length + 1] < flip_q
        if not flips.any():
            continue
        n_flips += flips
        # Without a side coin at 0.5 the flip is the exact mirror image and
        # keeps every step factor bitwise; without the likelihood every
        # factor is 0. Either way it is accepted. Otherwise the chain's
        # flipped state is scored on its own and accepted by MH.
        if like_on:
            scored = flips & np.any(block[_COL_SIDE] == 0.5, axis=1, keepdims=True)
            for c in np.flatnonzero(scored):
                mirror = state[c, 2:].reshape(6, n).copy()
                mirror[_COL_SIDE] = 1.0 - mirror[_COL_SIDE]
                mirror[_COL_ZPOL] = -mirror[_COL_ZPOL]
                pipe = judge_steps(mirror, -p_agent[c, 0], a_agent[c, 0], env_arrays, params)
                d = float(pipe.log_factors.sum()) - float(logf[c].sum())
                if d >= 0.0 or u_draws[c, 3 * length + 1] < math.exp(d):
                    logf[c] = pipe.log_factors
                else:
                    flips[c] = False
        for site, mirrored in (
            (z_agent, -z_agent),
            (block[_COL_SIDE], 1.0 - block[_COL_SIDE]),
            (block[_COL_ZPOL], -block[_COL_ZPOL]),
        ):
            np.copyto(site, mirrored, where=flips)
        p_agent = np.where(flips, -p_agent, p_agent)

    finals = np.empty_like(state)
    finals[:, order] = state
    log_weights = logf.sum(axis=1) if like_on else np.zeros(chains)
    n_acc += step_acc.sum(axis=1, keepdims=True)
    times = [t for _, _, t in kept]
    kept_p = np.repeat(np.concatenate([p for p, _, _ in kept], axis=1), times, axis=1)
    kept_a = np.repeat(np.concatenate([a for _, a, _ in kept], axis=1), times, axis=1)
    return [
        (
            np.column_stack((kept_p[c], kept_a[c])),
            int(n_acc[c, 0]),
            int(n_flips[c, 0]),
            finals[c],
            float(log_weights[c]),
        )
        for c in range(chains)
    ]


def queue_chains(
    pool: Executor,
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
) -> Iterator[ChainResult]:
    """Submit every chain of one cell to ``pool`` now, as one contiguous
    batch of ceil(n_chains / workers) chains per worker (``run_chains``).

    Returns the chains' results in chain order as they are read, which
    waits for each batch; pass it to ``sample_posterior`` as ``chains``.
    Cells queued on one pool run in the order they were queued.
    """
    size = -(-config.n_chains // config.workers)
    batches = [
        pool.submit(
            run_chains, env, params, n_obs, config, range(lo, min(lo + size, config.n_chains))
        )
        for lo in range(0, config.n_chains, size)
    ]
    return (result for batch in batches for result in batch.result())


def sample_posterior(
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
    chains: "Iterable[ChainResult] | None" = None,
) -> SampleSet:
    """All chains of one experiment cell, serial or in a process pool.

    ``chains`` takes the cell's results from ``queue_chains`` on a pool the
    caller owns. Without it the chains run here as one batch
    (``run_chains``), or on a pool opened for this cell alone, with
    ``config.workers`` processes but no more than the cell has chains. The
    result is identical for every ``workers`` value: chain i depends only on
    ``(config.seed, i)``, whatever batch it runs in, and samples are
    concatenated in chain order.
    """
    if chains is not None:
        results = list(chains)
    elif config.workers == 1:
        results = run_chains(env, params, n_obs, config, range(config.n_chains))
    else:
        with ProcessPoolExecutor(max_workers=min(config.workers, config.n_chains)) as pool:
            results = list(queue_chains(pool, env, params, n_obs, config))

    return SampleSet(
        samples=np.vstack([r.samples for r in results]),
        env_name=env.name,
        n_obs=n_obs,
        config=config,
        n_proposals=sum(r.n_proposals for r in results),
        n_accepted=sum(r.n_accepted for r in results),
        n_flips=sum(r.n_flips for r in results),
    )


def write_samples_csv(sample_set: SampleSet, path: "str | Path") -> None:
    """Dump the kept politics samples, one column, one header line."""
    lines = ["p_a"]
    lines.extend(f"{float(v)!r}" for v in sample_set.politics)
    Path(path).write_text("\n".join(lines) + "\n")
