"""Metropolis-within-Gibbs over flat trace values, by a systematic scan.

A scan updates the two agent sites by Metropolis-Hastings, then each step's
six-site block by conditional importance resampling (i-SIR, Andrieu, Lee &
Vihola 2018), then makes a mirror flip of the two politics modes.
``run_chains`` runs a batch of chains in lock-step, each with its own
generator and seed (a splitmix64 mix of the experiment seed), so a chain
is the same in any batch and results do not depend on the worker count.
This module opens no pool: ``queue_chains`` puts a cell's chains on a pool
the caller owns.
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
    pipeline_from_values,
    reflect_units,
)

__all__ = [
    "BRANCHES",
    "CANDIDATES",
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

# Fresh prior draws of a step's block that each block update chooses among,
# with the current block.
CANDIDATES = 2
# The kernel branches whose proposals and accepted ones are counted apart.
BRANCHES = ("agent_politics", "agent_analytic", "step_blocks")


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

    ``prior_prob`` is the chance an agent proposal resamples from the unit
    prior instead of walking with scale ``walk_scale``; with the likelihood
    on and N >= 1, agent politics only walks, at a scale set by the model
    (``run_chains``). Step blocks take neither key. A mirror flip follows a
    full scan of 6N + 2 iterations with probability (1 - (1 - 2
    ``flip_prob``)^(6N + 2)) / 2; 0 makes none. ``disable_likelihood``
    zeroes every step factor so chains target the prior exactly.
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
    """Kept draws of one chain plus its final state (in layout order).

    ``samples`` has one row per kept iteration: (agent politics, agent
    analytic). ``n_proposals`` equals the iterations; ``n_accepted`` counts
    a moved block, six iterations, as six. The ``*_by_branch`` counts are
    per ``BRANCHES``, a block update as one. ``n_flips`` counts the mirror
    flips proposed, with scored ones that Metropolis-Hastings rejects.
    """

    samples: np.ndarray
    n_proposals: int
    n_accepted: int
    n_flips: int
    proposed_by_branch: tuple[int, ...]
    accepted_by_branch: tuple[int, ...]
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
    proposed_by_branch: tuple[int, ...]
    accepted_by_branch: tuple[int, ...]

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_proposals if self.n_proposals else 0.0

    @property
    def acceptance_by_branch(self) -> dict[str, dict]:
        """Each of ``BRANCHES``' proposals, accepted ones and their ratio."""
        return {
            name: {"proposed": p, "accepted": a, "rate": a / p if p else 0.0}
            for name, p, a in zip(BRANCHES, self.proposed_by_branch, self.accepted_by_branch)
        }

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

    Each chain draws its start (``init_trace``) from its own generator and
    scores it by one ``pipeline_from_values`` pass. A scan is 6N + 2
    iterations: agent politics, agent analytic, then six for each step's
    block in turn. The last scan updates a block only if all six of its
    iterations fit. A kept sample is the agent after its iteration.

    - An agent proposal rescores all N steps and is accepted by MH. It is a
      prior resample with probability ``prior_prob``, else a walk of
      ``walk_scale``, reflected into [0, 1] at agent analytic and with the
      Gaussian prior correction at agent politics. With the likelihood on
      and N >= 1, agent politics only walks, with scale 2.4 ``likelihood_sd``
      / (sqrt(N) ``prior_politics_sd``), the 1-D optimal scale for its
      conditional sd (Roberts, Gelman & Gilks 1997).
    - A step's block becomes one of itself and ``CANDIDATES`` fresh prior
      draws, chosen in proportion to their step factors, with the log
      weights normalised by their maximum. This leaves the step's
      conditional invariant.
    - After each full scan a chain makes a mirror flip with probability
      (1 - (1 - 2 flip_prob)^(6N + 2)) / 2. It keeps every step factor
      unless a side coin is exactly 0.5; then the flipped state is scored
      and accepted by MH.

    Each scan, every chain fills its row of a (C, 7 + (4K + 1) N) uniform
    buffer, K = ``CANDIDATES``, and of a (C, 2 + 2 K N) normal buffer, one
    generator call each, so chain i is the same bit for bit in any batch.
    The uniforms: the agent sites' prior-or-walk coins, agent analytic's
    prior value, the agent sites' accept draws, the candidates' uniform
    sites as (N, K, 4), a pick draw per step, the flip coin and its accept
    draw. The normals: agent politics' prior value or walk step, agent
    analytic's walk step, the candidates' normal sites as (N, K, 2).

    The values are a (C, 6N + 2) array in layout order, the agents a (C, 2)
    array. One ``judge_steps`` call scores an agent proposal, or the
    (K, C, N) candidates, of all chains. With the likelihood off
    (``disable_likelihood``, or no observations) every log factor is 0.
    """
    seeds = [derive_chain_seed(config.seed, i) for i in indices]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    values = [init_trace(n_obs, rng) for rng in rngs]
    starts = [pipeline_from_values(v, n_obs, env, params) for v in values]
    chains, n, k, length = len(rngs), n_obs, CANDIDATES, address_count(n_obs)
    env_arrays = _env_arrays(env)
    state = np.array(values)
    steps = state[:, 2:].reshape(chains, n, 6)
    step_cols = np.moveaxis(steps, -1, 0)
    chain_at, step_at = np.ogrid[:chains, :n]  # with a (C, N) pick, one block per step
    agent = np.array([s[:2] for s in starts])  # agent politics, agent analytic
    u_draws = np.empty((chains, 7 + (4 * k + 1) * n))
    z_draws = np.empty((chains, 2 + 2 * k * n))
    cand_u = u_draws[:, 5 : 5 + 4 * k * n].reshape(chains, n, k, 4).transpose(2, 0, 1, 3)
    cand_z = z_draws[:, 2:].reshape(chains, n, k, 2).transpose(2, 0, 1, 3)
    u_pick = u_draws[:, 5 + 4 * k * n : 5 + (4 * k + 1) * n]

    off = config.disable_likelihood or n == 0

    def score(cols, p, a):
        """Log factors of six step columns for agents p, a; 0 if ``off``."""
        if off:
            return np.zeros(cols[0].shape)
        return judge_steps(cols, p, a, env_arrays, params).log_factors

    logf = np.zeros((chains, n)) if off else np.array([s[2].log_factors for s in starts])
    prior_prob, walk_scale = config.prior_prob, config.walk_scale
    if not off:
        # Agent politics only walks, at the 1-D optimal scale for its sd.
        prior_prob = np.array([0.0, prior_prob])
        sd = math.sqrt(n) * params.prior_politics_sd
        walk_scale = np.array([2.4 * params.likelihood_sd / sd, walk_scale])
    # Agent values from the unit values of its two sites.
    agent_scale = np.array([params.prior_politics_sd, params.analytic_high - params.analytic_low])
    flip_q = 0.5 * (1.0 - (1.0 - 2.0 * config.flip_prob) ** length)
    iterations, thin = config.iterations, config.thin
    kept = np.empty((chains, config.kept_per_chain, 2))
    n_kept = 0
    next_keep = config.burn_in + thin - 1
    proposed = [0] * len(BRANCHES)
    accepted = np.zeros((chains, len(BRANCHES)), dtype=np.int64)
    n_flips = np.zeros((chains, 1), dtype=np.int64)
    for first in range(0, iterations, length):
        todo = min(length, iterations - first)
        for rng, u, z in zip(rngs, u_draws, z_draws):
            rng.random(out=u)
            rng.standard_normal(out=z)

        # Both agent proposals read only their own site, which holds until
        # its turn, so both are made up front. Agent politics is a normal
        # site, with the Gaussian prior correction on a walk; agent
        # analytic a uniform one, reflected into [0, 1], with none.
        prior = u_draws[:, 0:2] < prior_prob
        units = state[:, :2]
        walk = units + walk_scale * z_draws[:, :2]
        corrs = np.where(prior | [False, True], 0.0, 0.5 * (units * units - walk * walk))
        walk[:, 1] = reflect_units(walk[:, 1])
        proposals = np.where(prior, z_draws[:, :2], walk)
        np.copyto(proposals[:, 1], u_draws[:, 2], where=prior[:, 1])
        moves = proposals * agent_scale
        moves[:, 1] += params.analytic_low

        # The agent sites, each rescoring every step. A kept sample is the
        # agent after its iteration: after agent politics at ``first``, and
        # after agent analytic, which holds, through the rest of the scan.
        total = logf.sum(axis=1, keepdims=True)
        for site in range(min(2, todo)):
            trial = agent.copy()
            trial[:, site] = moves[:, site]
            lf = score(step_cols, trial[:, 0:1], trial[:, 1:2])
            new_total = lf.sum(axis=1, keepdims=True)
            at = slice(site, site + 1)
            d = (new_total - total) + corrs[:, at]
            accept = u_draws[:, 3 + site : 4 + site] < np.exp(np.minimum(d, 0.0))
            proposed[site] += 1
            accepted[:, at] += accept
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

        # Every step's block by i-SIR: index 0 of ``blocks`` is the current
        # block, 1 to K the candidates, each (C, N, 6) in layout order.
        updated = min(n, (todo - 2) // 6)
        if updated > 0:
            cands = np.concatenate((cand_u[..., :2], cand_z, cand_u[..., 2:]), axis=3)
            blocks = np.concatenate((steps[None], cands))
            lf = score(np.moveaxis(cands, -1, 0), agent[:, 0:1], agent[:, 1:2])
            logw = np.concatenate((logf[None], lf))
            cum = np.exp(logw - logw.max(axis=0)).cumsum(axis=0)
            pick = (cum[:-1] <= u_pick * cum[-1]).sum(axis=0)
            pick[:, updated:] = 0
            proposed[2] += updated
            accepted[:, 2] += np.count_nonzero(pick, axis=1)
            steps[...] = blocks[pick, chain_at, step_at]
            logf = logw[pick, chain_at, step_at]

        if todo < length:
            break
        flips = u_draws[:, -2:-1] < flip_q
        if not flips.any():
            continue
        n_flips += flips
        # Without a side coin at 0.5 the flip is the exact mirror image and
        # keeps every step factor bitwise, so it is accepted. Otherwise the
        # chain's flipped state is scored on its own and accepted by MH.
        scored = flips & np.any(steps[..., _COL_SIDE] == 0.5, axis=1, keepdims=True)
        for c in np.flatnonzero(scored):
            mirror = steps[c].T.copy()
            mirror[_COL_SIDE] = 1.0 - mirror[_COL_SIDE]
            mirror[_COL_ZPOL] = -mirror[_COL_ZPOL]
            lf = score(mirror, -agent[c, 0], agent[c, 1])
            d = float(lf.sum()) - float(logf[c].sum())
            if d >= 0.0 or u_draws[c, -1] < math.exp(d):
                logf[c] = lf
            else:
                flips[c] = False
        np.copyto(state[:, 0:1], -state[:, 0:1], where=flips)
        np.copyto(agent[:, 0:1], -agent[:, 0:1], where=flips)
        np.copyto(steps[..., _COL_SIDE], 1.0 - steps[..., _COL_SIDE], where=flips)
        np.copyto(steps[..., _COL_ZPOL], -steps[..., _COL_ZPOL], where=flips)

    log_weights = logf.sum(axis=1)
    return [
        ChainResult(
            samples=kept[c],
            n_proposals=iterations,
            n_accepted=int(accepted[c, 0] + accepted[c, 1] + 6 * accepted[c, 2]),
            n_flips=int(n_flips[c, 0]),
            proposed_by_branch=tuple(proposed),
            accepted_by_branch=tuple(map(int, accepted[c])),
            final_values=state[c],
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
        proposed_by_branch=tuple(map(sum, zip(*(r.proposed_by_branch for r in results)))),
        accepted_by_branch=tuple(map(sum, zip(*(r.accepted_by_branch for r in results)))),
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
