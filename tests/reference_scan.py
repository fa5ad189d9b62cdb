"""A plain per-proposal statement of the systematic-scan kernel.

`reference_chain` runs the kernel that `polarsim.inference.run_chains`
runs in lock-step NumPy batches, one chain and one proposal per loop turn:
the agent sites by Metropolis-Hastings, each scored by `replay_values` on
the whole flat value array, then each step's block by i-SIR, each block's
weight replayed the same way. It consumes the same draws in the same
order, so the tests can require the sampler to make the same decisions:
the same samples, final values and counters.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from polarsim.inference import CANDIDATES, ChainResult, InferenceConfig, derive_chain_seed
from polarsim.model import MediaEnvironment, ModelParams
from polarsim.trace import address_count, init_trace, replay_values

K = CANDIDATES


def reflect_unit(u: float) -> float:
    """Fold an unbounded walk proposal back into [0, 1], one float at a time."""
    u = math.fmod(u, 2.0)
    if u < 0.0:
        u += 2.0
    return 2.0 - u if u > 1.0 else u


def uniform_count(n_obs: int) -> int:
    """Uniforms a chain draws per scan, in one call (see `ScanDraws`)."""
    return 5 + (4 * K + 1) * n_obs + 2


# The agent sites' accept draws among a scan's uniforms.
AGENT_ACCEPTS = slice(3, 5)


def candidate_uniforms(u: np.ndarray, n_obs: int) -> np.ndarray:
    """The candidates' uniform sites among a scan's uniforms ``u``, as an
    (N, K, 4) view: outlet, side coin and the two contest draws."""
    return u[5 : 5 + 4 * K * n_obs].reshape(n_obs, K, 4)


class ScanDraws(NamedTuple):
    """One scan's draws of one chain, by use.

    The uniforms, in draw order: the agent sites' prior-or-walk coins (2),
    agent analytic's prior value (1), the agent sites' accept draws (2),
    the candidates' uniform sites as (N, K, 4), one pick draw per step (N),
    then the flip coin and its accept draw. The normals, in draw order:
    agent politics' prior value or walk step, agent analytic's walk step,
    then the candidates' normal sites as (N, K, 2).
    """

    coins: np.ndarray
    analytic_prior: float
    accepts: np.ndarray
    candidates: np.ndarray  # (N, K, 6), each a block in layout order
    picks: np.ndarray
    flip: float
    flip_accept: float
    agent_normals: np.ndarray


def scan_draws(rng: np.random.Generator, n_obs: int) -> ScanDraws:
    u = rng.random(uniform_count(n_obs))
    z = rng.standard_normal(2 + 2 * K * n_obs)
    cand_u = candidate_uniforms(u, n_obs)
    cand_z = z[2:].reshape(n_obs, K, 2)
    candidates = np.concatenate((cand_u[..., :2], cand_z, cand_u[..., 2:]), axis=2)
    picks = u[5 + 4 * K * n_obs : 5 + (4 * K + 1) * n_obs]
    return ScanDraws(u[0:2], u[2], u[AGENT_ACCEPTS], candidates, picks, u[-2], u[-1], z[:2])


def pick_index(log_weights: np.ndarray, u: float) -> int:
    """The i-SIR choice: index j with probability proportional to
    exp(log_weights[j]), by the uniform ``u``, over weights normalised by
    their maximum."""
    cum = np.cumsum(np.exp(log_weights - log_weights.max()))
    return int(np.count_nonzero(cum[:-1] <= u * cum[-1]))


def reference_chain(
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
    chain_index: int,
) -> tuple[ChainResult, int]:
    """One scan chain, and the number of its flips that were scored.

    Iteration i of a scan is agent politics (i = 0), agent analytic
    (i = 1), or one of the six of step s's block (i = 2 + 6 s to 7 + 6 s),
    which is updated at the last of them. Each scan's draws are taken when
    it starts.
    """
    chain_seed = derive_chain_seed(config.seed, chain_index)
    rng = np.random.default_rng(chain_seed)
    values = init_trace(n_obs, rng)
    length = address_count(n_obs)
    span = params.analytic_high - params.analytic_low
    likelihood = not config.disable_likelihood and n_obs > 0
    if likelihood:
        prior_prob = (0.0, config.prior_prob)
        walk_scale = (
            2.4 * params.likelihood_sd / (math.sqrt(n_obs) * params.prior_politics_sd),
            config.walk_scale,
        )
    else:
        prior_prob = (config.prior_prob,) * 2
        walk_scale = (config.walk_scale,) * 2

    def factors(vals: np.ndarray) -> np.ndarray:
        if not likelihood:
            return np.zeros(n_obs)
        return replay_values(vals, n_obs, env, params)[2]

    def accepted(d: float, u: float) -> bool:
        return d >= 0.0 or u < math.exp(d)

    logf = factors(values)
    flip_q = 0.5 * (1.0 - (1.0 - 2.0 * config.flip_prob) ** length)
    kept = []
    proposed = [0, 0, 0]
    accepts = [0, 0, 0]
    n_flips = n_scored = 0
    for i in range(config.iterations):
        pos = i % length
        if pos == 0:
            draws = scan_draws(rng, n_obs)
        if pos < 2:
            old = values[pos]
            corr = 0.0
            if draws.coins[pos] < prior_prob[pos]:
                new = draws.agent_normals[0] if pos == 0 else draws.analytic_prior
            elif pos == 0:
                new = old + walk_scale[0] * draws.agent_normals[0]
                corr = 0.5 * (old * old - new * new)
            else:
                new = reflect_unit(old + walk_scale[1] * draws.agent_normals[1])
            proposed[pos] += 1
            trial = values.copy()
            trial[pos] = new
            new_f = factors(trial)
            d = float(new_f.sum()) - float(logf.sum())
            if pos == 0:
                d += corr
            if accepted(d, draws.accepts[pos]):
                accepts[pos] += 1
                values, logf = trial, new_f
        elif (pos - 2) % 6 == 5:
            s = (pos - 2) // 6
            block = slice(2 + 6 * s, 8 + 6 * s)
            trials = [values]
            for candidate in draws.candidates[s]:
                trial = values.copy()
                trial[block] = candidate
                trials.append(trial)
            replayed = [factors(trial) for trial in trials]
            j = pick_index(np.array([f[s] for f in replayed]), draws.picks[s])
            proposed[2] += 1
            if j:
                accepts[2] += 1
                values, logf = trials[j], replayed[j]

        if i >= config.burn_in and (i - config.burn_in + 1) % config.thin == 0:
            kept.append(
                (
                    params.prior_politics_sd * values[0],
                    params.analytic_low + span * values[1],
                )
            )

        if pos == length - 1 and draws.flip < flip_q:
            n_flips += 1
            flipped = values.copy()
            flipped[0] = -flipped[0]
            flipped[3::6] = 1.0 - flipped[3::6]
            flipped[4::6] = -flipped[4::6]
            new_f = factors(flipped)
            if np.any(values[3::6] == 0.5):
                n_scored += 1
                if accepted(float(new_f.sum()) - float(logf.sum()), draws.flip_accept):
                    values, logf = flipped, new_f
            else:
                # The mirror image keeps every factor bit for bit.
                assert new_f.tobytes() == logf.tobytes()
                values = flipped

    chain = ChainResult(
        samples=np.array(kept),
        n_proposals=config.iterations,
        n_accepted=accepts[0] + accepts[1] + 6 * accepts[2],
        n_flips=n_flips,
        proposed_by_branch=tuple(proposed),
        accepted_by_branch=tuple(accepts),
        final_values=values,
        final_log_weight=float(logf.sum()),
        chain_seed=chain_seed,
    )
    return chain, n_scored
