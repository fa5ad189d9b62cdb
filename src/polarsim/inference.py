"""Metropolis-Hastings over flat trace values, by a systematic scan.

One scan proposes at every site once: the two agent sites one at a time,
then each of the six step columns at all N steps, and after a full scan a
mirror flip that exchanges the two politics modes. Given the agent the
steps are conditionally independent, so each step of a column is accepted
on its own.

``run_chains`` is the one kernel: it runs a batch of chains in lock-step,
one NumPy pass per site for the whole batch, with one update for both
agent sites, and with the likelihood off every log factor is 0. Every
chain keeps its own generator and takes the same draws in any batch, so it
is the same chain bit for bit whatever batch it runs in: a chain's
trajectory is a pure function of its seed, and its memory does not grow
with its length.

Chain seeds are derived from the experiment seed with a splitmix64 mix, and
samples are concatenated in chain order, so results are identical whether
chains run serially or in a process pool. This module opens no pool:
``queue_chains`` puts a cell's chains on a pool the caller owns, cut into
as many batches as the caller asks, so one pool can serve many cells.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
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

    @property
    def kept_per_chain(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass(frozen=True)
class ChainResult:
    """Kept draws of one chain plus its final state for auditing.

    ``samples`` has one row per kept iteration with columns (agent politics,
    agent analytic). Every iteration is one site proposal, so
    ``n_proposals`` equals the iterations; ``n_accepted`` counts the
    accepted ones. ``n_flips`` counts the mirror flips proposed after full
    scans, which are not site proposals; it includes a scored flip that
    Metropolis-Hastings rejects.
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
    """The chains of ``indices``, run in lock-step by the systematic scan.

    Each chain draws its start (``init_trace``) from its own generator, and
    the start is scored by one ``pipeline_from_values`` pass. One scan
    proposes at every site once, as 6N + 2 iterations: agent politics,
    agent analytic (each rescoring all N steps), then each of the six step
    columns in layout order, each step accepted on its own. A site proposal
    is a prior resample with probability ``prior_prob``, else a walk of
    ``walk_scale`` (reflected into [0, 1] at a uniform site, with the
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
    not depend on the batch it is in: chain i is the same bit for bit
    whatever batch it is run in.

    Each chain's values are a row of a (C, 6N + 2) array in scan order (the
    agent sites, then the steps column by column), so a row lines up with
    its draws; the steps are scored as six (C, N) columns with (C, N) log
    factors, and the agent is a (C, 2) array whose (C, 1) columns broadcast
    against them. Every site is one NumPy pass over the batch: one
    ``judge_steps`` call scores an agent proposal or a step column of every
    chain. With the likelihood off (``disable_likelihood``, or no
    observations) every log factor is 0 and nothing is scored. Memory is
    O(chains x (n_obs + kept samples)), not O(iterations). The incremental
    log weight is cross-checked against a full replay in the test suite.
    """
    seeds = [derive_chain_seed(config.seed, i) for i in indices]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    values = [init_trace(n_obs, rng) for rng in rngs]
    starts = [pipeline_from_values(v, n_obs, env, params) for v in values]
    chains, n, length = len(rngs), n_obs, address_count(n_obs)
    env_arrays = _env_arrays(env)
    # The layout index of each site, in scan order.
    order = np.concatenate(([0, 1], 2 + np.arange(6 * n).reshape(n, 6).T.ravel()))
    state = np.array(values).take(order, axis=1)
    # Views of the steps of ``state``: six (C, N) columns.
    block = list(state[:, 2:].reshape(chains, 6, n).transpose(1, 0, 2))
    normal = normal_site_mask(n)[order]
    # Agent politics and agent analytic.
    agent = np.array([s[:2] for s in starts])
    u_draws = np.empty((chains, 3 * length + 2))
    z_draws = np.empty((chains, length))
    u_accept = u_draws[:, 2 * length : 3 * length]

    if config.disable_likelihood or n == 0:

        def score(cols, p, a):
            """Zero log factors, one per entry of a column (the agents
            broadcast against a column)."""
            return np.zeros(cols[0].shape)

        logf = np.zeros((chains, n))
    else:

        def score(cols, p, a):
            """The log factors of six step columns for agents p, a."""
            return judge_steps(cols, p, a, env_arrays, params).log_factors

        logf = np.array([s[2].log_factors for s in starts])

    def mh(d, sites):
        """Accept by Metropolis-Hastings, with log ratios ``d`` at ``sites``."""
        return u_accept[:, sites] < np.exp(np.minimum(d, 0.0))

    # Agent values from the unit values of their two sites.
    agent_scale = np.array(
        [params.prior_politics_sd, params.analytic_high - params.analytic_low]
    )
    flip_q = 0.5 * (1.0 - (1.0 - 2.0 * config.flip_prob) ** length)
    iterations = config.iterations
    thin = config.thin

    kept = np.empty((chains, config.kept_per_chain, 2))
    n_kept = 0
    next_keep = config.burn_in + thin - 1
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
        prior = u_draws[:, :length] < config.prior_prob
        walk = state + config.walk_scale * z_draws
        fresh = np.where(normal, z_draws, u_draws[:, length : 2 * length])
        proposals = np.where(prior, fresh, np.where(normal, walk, reflect_units(walk)))
        corrs = np.where(normal & ~prior, 0.5 * (state * state - walk * walk), 0.0)
        moves = proposals[:, :2] * agent_scale
        moves[:, 1] += params.analytic_low

        # The agent sites, each rescoring every step. A kept sample is the
        # agent after its iteration: after agent politics at ``first``, and
        # after agent analytic, which holds, through the rest of the scan.
        total = logf.sum(axis=1, keepdims=True)
        for site in range(min(2, todo)):
            trial = agent.copy()
            trial[:, site] = moves[:, site]
            lf = score(block, trial[:, 0:1], trial[:, 1:2])
            new_total = lf.sum(axis=1, keepdims=True)
            at = slice(site, site + 1)
            accept = mh((new_total - total) + corrs[:, at], at)
            n_acc += accept
            np.copyto(logf, lf, where=accept)
            total = np.where(accept, new_total, total)
            np.copyto(state[:, at], proposals[:, at], where=accept)
            np.copyto(agent, trial, where=accept)
            last = first + todo - 1 if site else first
            if next_keep <= last:
                times = (last - next_keep) // thin + 1
                kept[:, n_kept : n_kept + times] = agent[:, None]
                n_kept += times
                next_keep += times * thin

        # The six step columns, each step accepted on its own.
        for col in range(6):
            lo = 2 + col * n
            if lo >= todo:
                break
            at = slice(lo, lo + n)
            new = proposals[:, at]
            cols = block.copy()
            cols[col] = new
            lf = score(cols, agent[:, 0:1], agent[:, 1:2])
            accept = mh((lf - logf) + corrs[:, at], at)
            if todo - lo < n:
                accept[:, todo - lo :] = False
            step_acc += accept
            np.copyto(block[col], new, where=accept)
            np.copyto(logf, lf, where=accept)

        if todo < length:
            break
        flips = u_draws[:, 3 * length : 3 * length + 1] < flip_q
        if not flips.any():
            continue
        n_flips += flips
        # Without a side coin at 0.5 the flip is the exact mirror image and
        # keeps every step factor bitwise, so it is accepted. Otherwise the
        # chain's flipped state is scored on its own and accepted by MH.
        scored = flips & np.any(block[_COL_SIDE] == 0.5, axis=1, keepdims=True)
        for c in np.flatnonzero(scored):
            mirror = state[c, 2:].reshape(6, n).copy()
            mirror[_COL_SIDE] = 1.0 - mirror[_COL_SIDE]
            mirror[_COL_ZPOL] = -mirror[_COL_ZPOL]
            lf = score(mirror, -agent[c, 0], agent[c, 1])
            d = float(lf.sum()) - float(logf[c].sum())
            if d >= 0.0 or u_draws[c, 3 * length + 1] < math.exp(d):
                logf[c] = lf
            else:
                flips[c] = False
        for site, mirrored in (
            (state[:, 0:1], -state[:, 0:1]),
            (agent[:, 0:1], -agent[:, 0:1]),
            (block[_COL_SIDE], 1.0 - block[_COL_SIDE]),
            (block[_COL_ZPOL], -block[_COL_ZPOL]),
        ):
            np.copyto(site, mirrored, where=flips)

    finals = np.empty_like(state)
    finals[:, order] = state
    n_acc += step_acc.sum(axis=1, keepdims=True)
    log_weights = logf.sum(axis=1)
    return [
        ChainResult(
            samples=kept[c],
            n_proposals=iterations,
            n_accepted=int(n_acc[c, 0]),
            n_flips=int(n_flips[c, 0]),
            final_values=finals[c],
            final_log_weight=float(log_weights[c]),
            chain_seed=seed,
        )
        for c, seed in enumerate(seeds)
    ]


def queue_chains(
    pool: Executor,
    batches: int,
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
) -> Iterator[ChainResult]:
    """Submit every chain of one cell to ``pool`` now, as up to ``batches``
    contiguous batches of ceil(n_chains / batches) chains (``run_chains``).

    Returns the chains' results in chain order as they are read, which
    waits for each batch; pass it to ``sample_posterior`` as ``chains``.
    Cells queued on one pool run in the order they were queued.
    """
    size = -(-config.n_chains // batches)
    futures = [
        pool.submit(
            run_chains, env, params, n_obs, config, range(lo, min(lo + size, config.n_chains))
        )
        for lo in range(0, config.n_chains, size)
    ]
    return (result for future in futures for result in future.result())


def sample_posterior(
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
    chains: "Iterable[ChainResult] | None" = None,
) -> SampleSet:
    """All chains of one experiment cell.

    ``chains`` takes the cell's results from ``queue_chains`` on a pool the
    caller owns; without it the chains run here as one batch
    (``run_chains``). The result is the same either way and for every batch
    count: chain i depends only on ``(config.seed, i)``, whatever batch it
    runs in, and samples are concatenated in chain order.
    """
    if chains is None:
        chains = run_chains(env, params, n_obs, config, range(config.n_chains))
    results = list(chains)

    return SampleSet(
        samples=np.vstack([r.samples for r in results]),
        n_proposals=sum(r.n_proposals for r in results),
        n_accepted=sum(r.n_accepted for r in results),
        n_flips=sum(r.n_flips for r in results),
    )


def write_samples_csv(sample_set: SampleSet, path: "str | Path") -> None:
    """Dump the kept politics samples, one column, one header line.

    A rejected proposal keeps the chain's value, so kept samples repeat in
    runs; each run of bit-identical values (so 0.0 and -0.0 stay apart) is
    formatted once and its line repeated.
    """
    politics = sample_set.politics
    bits = politics.view(np.int64)
    changed = np.ones(politics.size, dtype=bool)
    changed[1:] = bits[1:] != bits[:-1]
    starts = np.flatnonzero(changed)
    lengths = np.diff(np.append(starts, politics.size))
    lines = ["p_a\n"]
    lines.extend(
        f"{value!r}\n" * length
        for value, length in zip(politics[starts].tolist(), lengths.tolist())
    )
    Path(path).write_text("".join(lines))
