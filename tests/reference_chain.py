"""The sampler loop as it was before its streams were served in blocks.

`reference_run_chain` keeps the plain one-list-per-stream loop of
`polarsim.inference.run_chain` from before that rewrite, unchanged, so the
tests can require the production loop to reproduce its chains bit for bit:
samples, final values, final log weight and the three counters.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from polarsim.inference import ChainResult, InferenceConfig, derive_chain_seed
from polarsim.model import MediaEnvironment, ModelParams
from polarsim.trace import (
    _env_arrays,
    address_count,
    init_trace,
    normal_site_mask,
    pipeline_from_values,
    reflect_unit,
)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def reference_run_chain(
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
    chain_index: int,
) -> ChainResult:
    """One chain over a fresh prior-initialized trace.

    State is kept as plain floats with per-step caches (judged politics and
    the news contest draw of every step), so a step-site proposal recomputes
    one step and an agent-site proposal recomputes all steps, vectorized
    from 8 steps up.
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
                if like_on and 0 < n_obs < 8:
                    # Plain floats for short sequences. NumPy's pairwise sum
                    # also adds fewer than 8 terms in order, so the log
                    # weight is bitwise equal to the array path below; the
                    # bound may differ from NumPy's vectorized power in the
                    # last bit, but it only enters a comparison.
                    lf = []
                    new_lw = 0.0
                    for s in range(n_obs):
                        p_n = p_news[s]
                        b_a = aa_new - ds * db ** abs(p_n - pa_new)
                        if b_a < 0.0:
                            b_a = 0.0
                        p_j = p_n if x_news[s] > vals[7 + 6 * s] * b_a else -p_n
                        zz = (p_j - pa_new) * inv_sd
                        f = f_const - 0.5 * zz * zz
                        lf.append(f)
                        new_lw += f
                elif like_on and n_obs:
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
                        logf = lf if n_obs < 8 else lf.tolist()
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
