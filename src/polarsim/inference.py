"""Single-site Metropolis-Hastings over flat trace values.

Each iteration either proposes a new value at one uniformly chosen site
(prior resample or reflected random walk) or applies a whole-trace mirror
flip that exchanges the two politics modes exactly. Every iteration takes
one value from each of six proposal streams, whichever branch runs, and
each stream is fixed by the chain's seed: a chain's trajectory is a pure
function of its seed. The streams are served a block of iterations at a
time, so a chain's memory does not grow with its length. An agent-site
proposal rescores every step: over plain floats below
``SCALAR_AGENT_STEPS`` observations, summing the factors in NumPy's
pairwise order, and in NumPy from there up, so the log weight is the same
bit for bit on either side.

Chain seeds are derived from the experiment seed with a splitmix64 mix, and
samples are concatenated in chain order, so results are identical whether
chains run serially or in a process pool. ``queue_chains`` puts a cell's
chains on a pool the caller owns, so one pool can serve many cells.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from polarsim.model import MediaEnvironment, ModelParams, _require_finite
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
    "queue_chains",
    "run_chain",
    "sample_posterior",
    "write_samples_csv",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_MASK64 = (1 << 64) - 1

# Iterations of proposal randomness drawn and precomputed at a time.
STREAM_BLOCK = 8192

# The double below 0.5; with 0.5 itself, the only v with fl(1 - v) == 0.5.
_BELOW_HALF = 0.49999999999999994

# Agent-site proposals over fewer observations than this rescore every step
# in a loop over plain floats; from here up, one NumPy pass is faster.
# Measured per proposal, scalar against NumPy: 4.6 against 18.2 us at
# N = 10, 25.8 against 31.8 us at N = 64, even at N = 72 to 80, and 39.2
# against 34.1 us at N = 100. At most 128, the length `_pairwise_sum`
# reproduces.
SCALAR_AGENT_STEPS = 72


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
    """One chain over a fresh prior-drawn value array (``init_trace``).

    The chain start is scored by one ``pipeline_from_values`` pass. State
    is kept as plain floats with per-step caches (judged politics and the
    news contest draw of every step), so a step-site proposal recomputes
    one step and an agent-site proposal recomputes all steps: in a scalar
    loop below ``SCALAR_AGENT_STEPS`` steps, in NumPy from there up. The
    scalar loop sums the step factors in NumPy's pairwise order
    (``_pairwise_sum``), so the log weight is bitwise the same either way.

    The six proposal streams come from ``_stream_blocks``, a block of
    iterations at a time, and each block's site, prior flag, prior value and
    walk step are computed in NumPy before the loop runs over them. An
    exact mirror flip negates only the agent's politics; each step applies
    the flips it owes when it is next read, so a flip costs O(1), not
    O(n_obs). Memory is O(block + n_obs + kept samples), not O(iterations).
    The incremental log weight is cross-checked against a full replay in the
    test suite.
    """
    chain_seed = derive_chain_seed(config.seed, chain_index)
    rng = np.random.default_rng(chain_seed)
    values = init_trace(n_obs, rng)

    like_on = not config.disable_likelihood
    n_addr = address_count(n_obs)
    normal_mask = normal_site_mask(n_obs)
    is_normal = normal_mask.tolist()

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

    vals = values.tolist()
    p_agent, a_agent, pipe = pipeline_from_values(values, n_obs, env, params)
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

    # Exact flips made so far, the count each step has applied, and the
    # count at the last settle of every step.
    n_lazy = 0
    seen = [0] * n_obs
    settled = 0
    # Superset of the steps whose side coin is 0.5 or _BELOW_HALF; only
    # those coins read 0.5 after a flip, which makes the flip a scored one.
    # A step joins when a proposal at any of its sites might write such a
    # value, and never leaves.
    below_half = _BELOW_HALF
    fold = {s for s in range(n_obs) if below_half <= vals[3 + 6 * s] <= 0.5}

    exp = math.exp
    kept = []
    next_keep = burn + thin - 1
    n_props = 0
    n_acc = 0
    n_flips = 0

    for start, u_kind, u_site, u_mix, z_innov, u_innov, u_accept in _stream_blocks(
        rng, config.iterations
    ):
        # Site -1 marks a flip; astype truncates like int() on [0, n_addr].
        sites = np.minimum((u_site * n_addr).astype(np.int64), n_addr - 1)
        flips = u_kind < flip_p
        sites[flips] = -1
        block_flips = int(np.count_nonzero(flips))
        n_flips += block_flips
        n_props += len(sites) - block_flips
        steps = (sites - 2) // 6
        drawn = np.where(normal_mask[sites], z_innov, u_innov)
        on_fold = (steps >= 0) & (drawn >= below_half) & (drawn <= 0.5)
        fold.update(steps[on_fold].tolist())
        for i, j, s, base, prior, new_prior, eps, u_acc in zip(
            range(start, start + len(sites)),
            sites.tolist(),
            steps.tolist(),
            (2 + 6 * steps).tolist(),
            (u_mix < prior_p).tolist(),
            drawn.tolist(),
            (w_scale * z_innov).tolist(),
            u_accept.tolist(),
        ):
            if j < 0:
                # A settled side coin of exactly 0.5 makes the flip a scored one.
                if fold:
                    _settle(vals, p_news, seen, n_lazy, fold)
                if fold and any(vals[3 + 6 * t] == 0.5 for t in fold):
                    _settle(vals, p_news, seen, n_lazy, range(n_obs))
                    settled = n_lazy
                    p_agent, log_weight, p_news, x_news, logf = _scored_flip(
                        vals, p_agent, log_weight, p_news, x_news, logf,
                        u_acc, like_on, n_obs, env, params,
                    )
                else:
                    # Exact mirror image: every step factor is preserved
                    # bitwise, so the flip is always accepted and only the
                    # politics-signed values change. Each step applies its
                    # part (side coin, politics innovation, judged news
                    # politics) when it is next read.
                    vals[0] = -vals[0]
                    p_agent = -p_agent
                    n_lazy += 1
            else:
                if j >= 2:
                    owed = n_lazy - seen[s]
                    if owed:
                        # _settle inlined for one step, as a call here costs
                        # about 10% at N = 100: 1 - v once for an odd count,
                        # twice for an even one (see _settle for why).
                        seen[s] = n_lazy
                        v = 1.0 - vals[base + 1]
                        if owed & 1:
                            vals[base + 1] = v
                            vals[base + 2] = -vals[base + 2]
                            p_news[s] = -p_news[s]
                        else:
                            vals[base + 1] = 1.0 - v
                old = vals[j]
                if prior:
                    new = new_prior
                    corr = 0.0
                elif is_normal[j]:
                    new = old + eps
                    corr = 0.5 * (old * old - new * new)
                else:
                    new = reflect_unit(old + eps)
                    corr = 0.0
                    if below_half <= new <= 0.5 and j >= 2:
                        fold.add(s)
                vals[j] = new

                if j >= 2:
                    if like_on:
                        u_o, coin, z_pol, z_truth, u_xn, u_xa = vals[base : base + 6]
                        o = bisect_right(cums, u_o)
                        if o > last_outlet:
                            o = last_outlet
                        m = mag[o]
                        p_n = (m if coin < 0.5 else -m) + p_sd[o] * z_pol
                        t_n = t_mean[o] + t_sd[o] * z_truth
                        b_n = t_n if t_n > 0.0 else 0.0
                        b_a = a_agent - ds * db ** abs(p_n - p_agent)
                        if b_a < 0.0:
                            b_a = 0.0
                        x_n = u_xn * b_n
                        x_a = u_xa * b_a
                        p_j = p_n if x_n > x_a else -p_n
                        zz = (p_j - p_agent) * inv_sd
                        f = f_const - 0.5 * zz * zz
                        delta = f - logf[s]
                        d = delta + corr
                        if d >= 0.0 or u_acc < exp(d):
                            n_acc += 1
                            logf[s] = f
                            p_news[s] = p_n
                            x_news[s] = x_n
                            log_weight += delta
                        else:
                            vals[j] = old
                    elif corr >= 0.0 or u_acc < exp(corr):
                        n_acc += 1
                    else:
                        vals[j] = old
                else:
                    if settled != n_lazy:
                        _settle(vals, p_news, seen, n_lazy, range(n_obs))
                        settled = n_lazy
                    if j == 0:
                        pa_new = p_scale * new
                        aa_new = a_agent
                    else:
                        pa_new = p_agent
                        aa_new = a_low + a_span * new
                    if like_on and 0 < n_obs < SCALAR_AGENT_STEPS:
                        # The bound may differ from NumPy's vectorized power
                        # in the last bit, but it only enters a comparison.
                        lf = []
                        for p_n, x_n, u_xa in zip(p_news, x_news, vals[7::6]):
                            b_a = aa_new - ds * db ** abs(p_n - pa_new)
                            if b_a < 0.0:
                                b_a = 0.0
                            p_j = p_n if x_n > u_xa * b_a else -p_n
                            zz = (p_j - pa_new) * inv_sd
                            lf.append(f_const - 0.5 * zz * zz)
                        new_lw = _pairwise_sum(lf)
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
                    if d >= 0.0 or u_acc < exp(d):
                        n_acc += 1
                        p_agent = pa_new
                        a_agent = aa_new
                        log_weight = new_lw
                        if lf is not None:
                            logf = lf if n_obs < SCALAR_AGENT_STEPS else lf.tolist()
                    else:
                        vals[j] = old

            if i == next_keep:
                kept.append((p_agent, a_agent))
                next_keep += thin

    _settle(vals, p_news, seen, n_lazy, range(n_obs))
    return ChainResult(
        samples=np.array(kept),
        n_proposals=n_props,
        n_accepted=n_acc,
        n_flips=n_flips,
        final_values=np.array(vals),
        final_log_weight=log_weight,
        chain_seed=chain_seed,
    )


def _stream_blocks(rng: np.random.Generator, iterations: int):
    """The six proposal streams of a chain, ``STREAM_BLOCK`` iterations at a time.

    Yields ``(start, u_kind, u_site, u_mix, z_innov, u_innov, u_accept)``.
    Concatenated, the blocks equal ``iterations`` draws each of ``random``
    three times, ``standard_normal`` once and ``random`` twice, taken in that
    order from ``rng``. The first stream is drawn from ``rng`` itself, and
    every other stream has its own generator, placed where that whole-stream
    draw would start. A uniform double takes one 64-bit output,
    so those places are reached by ``advance``; the ziggurat takes a variable
    number, so the streams after the normal one start where a full draw of
    it, made and discarded in blocks, ends. ``rng`` must run on PCG64, as
    ``default_rng`` does.
    """
    def placed(state: dict, offset: int) -> np.random.Generator:
        bit_generator = np.random.PCG64(0)  # seeded only to skip OS entropy
        bit_generator.state = state
        bit_generator.advance(offset)
        return np.random.Generator(bit_generator)

    state = rng.bit_generator.state
    kind = rng
    site, mix, normal, innov = (placed(state, k * iterations) for k in (1, 2, 3, 3))
    for start in range(0, iterations, STREAM_BLOCK):
        innov.standard_normal(min(STREAM_BLOCK, iterations - start))
    accept = placed(innov.bit_generator.state, iterations)
    for start in range(0, iterations, STREAM_BLOCK):
        count = min(STREAM_BLOCK, iterations - start)
        yield (
            start,
            kind.random(count),
            site.random(count),
            mix.random(count),
            normal.standard_normal(count),
            innov.random(count),
            accept.random(count),
        )


def _pairwise_sum(terms: list) -> float:
    """The sum NumPy's ``add.reduce`` returns for up to 128 float64 terms.

    Fewer than 8 terms are added in order. From 8 up, eight running sums
    take every eighth term, are combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, and the terms
    past the last full group of eight are added in order. NumPy splits
    longer arrays in halves, which this does not do.
    """
    n = len(terms)
    total = 0.0
    if n < 8:
        for t in terms:
            total += t
        return total
    r0, r1, r2, r3, r4, r5, r6, r7 = terms[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0 += terms[i]
        r1 += terms[i + 1]
        r2 += terms[i + 2]
        r3 += terms[i + 3]
        r4 += terms[i + 4]
        r5 += terms[i + 5]
        r6 += terms[i + 6]
        r7 += terms[i + 7]
    # Adding to 0.0 first turns an all-negative-zero sum into 0.0, as NumPy's.
    total += ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for t in terms[end:]:
        total += t
    return total


def _settle(vals: list, p_news: list, seen: list, n_lazy: int, steps) -> None:
    """Apply to each of ``steps`` the lazy mirror flips it still owes.

    A flip maps the side coin v to fl(1 - v) and negates the politics
    innovation and the judged news politics. On [0, 1], fl(1 - v) applied
    three times equals applying it once (1 - v is exact for v >= 0.5, and
    undoes the rounded value for v < 0.5), but fl(1 - (1 - v)) != v for many
    v < 0.5. So k owed flips apply 1 - v once when k is odd and twice when
    k is even: a parity bit alone would not reproduce eager flips.
    """
    for s in steps:
        owed = n_lazy - seen[s]
        if owed:
            seen[s] = n_lazy
            side = 3 + 6 * s
            v = 1.0 - vals[side]
            if owed & 1:
                vals[side] = v
                vals[side + 1] = -vals[side + 1]
                p_news[s] = -p_news[s]
            else:
                vals[side] = 1.0 - v


def _scored_flip(
    vals: list,
    p_agent: float,
    log_weight: float,
    p_news: list,
    x_news: list,
    logf: list,
    u_accept: float,
    like_on: bool,
    n_obs: int,
    env: MediaEnvironment,
    params: ModelParams,
) -> tuple:
    """Mirror flip of a settled state with a side coin on the fold.

    A side coin exactly at 0.5 breaks the exact symmetry, so the flipped
    trace is scored like any other proposal. The flip is its own inverse,
    which makes the revert trivial. Returns the new ``(p_agent, log_weight,
    p_news, x_news, logf)``.
    """
    sides = vals[3::6]
    vals[0] = -vals[0]
    vals[3::6] = [1.0 - v for v in sides]
    vals[4::6] = [-v for v in vals[4::6]]
    pa_new = -p_agent
    if like_on and n_obs:
        _, _, flipped = pipeline_from_values(np.array(vals), n_obs, env, params)
        new_lw = float(flipped.log_factors.sum())
    else:
        flipped = None
        new_lw = 0.0
    delta = new_lw - log_weight
    if delta >= 0.0 or u_accept < math.exp(delta):
        if flipped is not None:
            p_news = flipped.p_news.tolist()
            x_news = flipped.x_news.tolist()
            logf = flipped.log_factors.tolist()
        return pa_new, new_lw, p_news, x_news, logf
    vals[0] = -vals[0]
    vals[3::6] = sides
    vals[4::6] = [-v for v in vals[4::6]]
    return p_agent, log_weight, p_news, x_news, logf


def _run_chain_task(args: tuple) -> ChainResult:
    return run_chain(*args)


def queue_chains(
    pool: Executor,
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
) -> Iterator[ChainResult]:
    """Submit every chain of one cell to ``pool`` now, in chunks.

    Returns the chains' results in chain order as they are read, which
    waits for each one; pass it to ``sample_posterior`` as ``chains``. Cells
    queued on one pool run in the order they were queued.
    """
    tasks = [(env, params, n_obs, config, i) for i in range(config.n_chains)]
    chunk = max(1, config.n_chains // (4 * config.workers))
    return pool.map(_run_chain_task, tasks, chunksize=chunk)


def sample_posterior(
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
    chains: "Iterable[ChainResult] | None" = None,
) -> SampleSet:
    """All chains of one experiment cell, serial or in a process pool.

    ``chains`` takes the cell's results from ``queue_chains`` on a pool the
    caller owns. Without it the chains run here, or on a pool of
    ``config.workers`` processes opened for this cell alone. The result is
    identical for every ``workers`` value: chain i depends only on
    ``(config.seed, i)`` and samples are concatenated in chain order.
    """
    if chains is not None:
        results = list(chains)
    elif config.workers == 1:
        results = [run_chain(env, params, n_obs, config, i) for i in range(config.n_chains)]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
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
