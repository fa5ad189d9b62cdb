"""A plain per-proposal statement of the systematic-scan kernel.

`reference_chain` runs the kernel that `polarsim.inference.run_chains`
runs in lock-step NumPy batches, one chain and one site proposal per loop
turn. It scores every proposal by `replay_values` on the whole flat value
array and consumes the same draws in the same order, so the tests can
require the sampler to make the same decisions: the same samples, final
values and counters.
"""

from __future__ import annotations

import math

import numpy as np

from polarsim.inference import ChainResult, InferenceConfig, derive_chain_seed
from polarsim.model import MediaEnvironment, ModelParams
from polarsim.trace import address_count, init_trace, normal_site_mask, replay_values


def reflect_unit(u: float) -> float:
    """Fold an unbounded walk proposal back into [0, 1], one float at a time."""
    u = math.fmod(u, 2.0)
    if u < 0.0:
        u += 2.0
    return 2.0 - u if u > 1.0 else u


def reference_chain(
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
    chain_index: int,
) -> tuple[ChainResult, int]:
    """One scan chain, and the number of its flips that were scored.

    Iteration i proposes at the (i mod (6N + 2))-th site of the scan order:
    agent politics, agent analytic, then step s of column c at position
    2 + c N + s. Each scan's draws are taken when it starts.
    """
    chain_seed = derive_chain_seed(config.seed, chain_index)
    rng = np.random.default_rng(chain_seed)
    values = init_trace(n_obs, rng)
    length = address_count(n_obs)
    is_normal = normal_site_mask(n_obs)
    span = params.analytic_high - params.analytic_low

    def factors(vals: np.ndarray) -> np.ndarray:
        if config.disable_likelihood:
            return np.zeros(n_obs)
        return replay_values(vals, n_obs, env, params)[2]

    def accepted(d: float, u: float) -> bool:
        return d >= 0.0 or u < math.exp(d)

    logf = factors(values)
    flip_q = 0.5 * (1.0 - (1.0 - 2.0 * config.flip_prob) ** length)
    kept = []
    n_acc = n_flips = n_scored = 0
    for i in range(config.iterations):
        pos = i % length
        if pos == 0:
            mix, fresh, u_acc = rng.random((3, length))
            u_flip, u_flip_acc = rng.random(2)
            z = rng.standard_normal(length)
        if pos < 2:
            site = pos
        else:
            col, step = divmod(pos - 2, n_obs)
            site = 2 + 6 * step + col
        old = values[site]
        corr = 0.0
        if mix[pos] < config.prior_prob:
            new = z[pos] if is_normal[site] else fresh[pos]
        elif is_normal[site]:
            new = old + config.walk_scale * z[pos]
            corr = 0.5 * (old * old - new * new)
        else:
            new = reflect_unit(old + config.walk_scale * z[pos])
        proposed = values.copy()
        proposed[site] = new
        new_f = factors(proposed)
        if site < 2:
            d = (float(new_f.sum()) - float(logf.sum())) + corr
        else:
            s = (site - 2) // 6
            d = (new_f[s] - logf[s]) + corr
        if accepted(d, u_acc[pos]):
            n_acc += 1
            values, logf = proposed, new_f

        if i >= config.burn_in and (i - config.burn_in + 1) % config.thin == 0:
            kept.append(
                (
                    params.prior_politics_sd * values[0],
                    params.analytic_low + span * values[1],
                )
            )

        if pos == length - 1 and u_flip < flip_q:
            n_flips += 1
            flipped = values.copy()
            flipped[0] = -flipped[0]
            flipped[3::6] = 1.0 - flipped[3::6]
            flipped[4::6] = -flipped[4::6]
            new_f = factors(flipped)
            if np.any(values[3::6] == 0.5):
                n_scored += 1
                if accepted(float(new_f.sum()) - float(logf.sum()), u_flip_acc):
                    values, logf = flipped, new_f
            else:
                # The mirror image keeps every factor bit for bit.
                assert new_f.tobytes() == logf.tobytes()
                values = flipped

    chain = ChainResult(
        samples=np.array(kept),
        n_proposals=config.iterations,
        n_accepted=n_acc,
        n_flips=n_flips,
        final_values=values,
        final_log_weight=float(logf.sum()),
        chain_seed=chain_seed,
    )
    return chain, n_scored
