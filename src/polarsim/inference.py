"""Metropolis-Hastings over flat trace values, by a systematic scan.

One scan proposes at every site once: the two agent sites one at a time,
then each of the six step columns at all N steps, and after a full scan a
mirror flip that exchanges the two politics modes. Given the agent the
steps are conditionally independent, so each step of a column is accepted
on its own.

How a scan is evaluated depends on N, not what it decides. Below
``SCAN_STEPS`` observations the steps are held as plain floats and scored
one proposal at a time (``_FloatSteps``); from there up, as a (6, N) array
with one NumPy pass per step column (``_ArraySteps``). Both take the same
draws and give the same chain bit for bit, so a chain's trajectory is a
pure function of its seed, and its memory does not grow with its length.

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
    _COL_SIDE,
    _COL_XA,
    _COL_ZPOL,
    _COL_ZTRUTH,
    _HALF_LOG_2PI,
    _env_arrays,
    address_count,
    init_trace,
    judge_steps,
    normal_site_mask,
    pipeline_from_values,
    reflect_unit,
    reflect_units,
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

_MASK64 = (1 << 64) - 1

# Chains over this many observations and more evaluate the scan in NumPy
# columns; below it, over plain floats. It only sets the speed: both give
# the same chain. See README "Sampler kernels" for the per-N timings it is
# set from. At most 129: the plain-float path sums log factors with
# `_pairwise_sum`, which reproduces NumPy's sum up to 128 terms.
SCAN_STEPS = 46


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
    """One chain over a fresh prior-drawn value array (``init_trace``).

    The chain start is scored by one ``pipeline_from_values`` pass, and the
    chain runs the systematic scan (``_scan_chain``), over plain floats
    below ``SCAN_STEPS`` observations and in NumPy columns from there up.
    Memory is O(n_obs + kept samples), not O(iterations). The incremental
    log weight is cross-checked against a full replay in the test suite.
    """
    chain_seed = derive_chain_seed(config.seed, chain_index)
    rng = np.random.default_rng(chain_seed)
    values = init_trace(n_obs, rng)
    start = pipeline_from_values(values, n_obs, env, params)
    samples, n_acc, n_flips, final_values, log_weight = _scan_chain(
        values, start, rng, env, params, n_obs, config
    )
    return ChainResult(
        samples=samples,
        n_proposals=config.iterations,
        n_accepted=n_acc,
        n_flips=n_flips,
        final_values=final_values,
        final_log_weight=log_weight,
        chain_seed=chain_seed,
    )


def _scan_chain(
    values: np.ndarray,
    start: tuple,
    rng: np.random.Generator,
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    config: InferenceConfig,
) -> tuple:
    """The systematic-scan kernel.

    One scan proposes at every site once, as 6N + 2 iterations: agent
    politics, agent analytic (each rescoring all N steps), then each of the
    six step columns in layout order, each step accepted on its own. A site
    proposal is a prior resample with probability ``prior_prob``, else a
    walk of ``walk_scale`` (reflected into [0, 1] at a uniform site, with the
    Gaussian prior correction at a normal one). The last scan stops
    mid-column when the iterations run out; a kept sample is the agent state
    after its iteration.

    After each full scan a mirror flip is made with probability
    (1 - (1 - 2 flip_prob)^(6N + 2)) / 2. It preserves every step factor
    unless a side coin is exactly 0.5; then the flipped state is scored and
    accepted by MH. ``flips`` counts the flips made.

    Each scan draws from ``rng`` 3 (6N + 2) + 2 uniforms in one call: the
    prior-or-walk coins, the uniform prior values and the accept draws, one
    per iteration each, then the flip coin and its accept draw. Then 6N + 2
    standard normals, for the normal prior values and walk steps.

    The agent sites, the keep rule and the flip coin are run here. The step
    state, its scores and the flip itself are held by ``_FloatSteps`` (plain
    floats, below ``SCAN_STEPS``) or ``_ArraySteps`` (NumPy columns, from
    there up), which make the same decisions. Returns ``(samples, accepted,
    flips, final values, final log weight)``.
    """
    like_on = not config.disable_likelihood
    floats = n_obs < SCAN_STEPS
    evaluation = _FloatSteps if floats else _ArraySteps
    steps = evaluation(values[2:], start[2], n_obs, env, params, config)
    length = address_count(n_obs)
    z_agent = float(values[0])
    u_agent = float(values[1])
    p_agent, a_agent, _ = start

    p_scale = params.prior_politics_sd
    a_low = params.analytic_low
    a_span = params.analytic_high - params.analytic_low
    prior_p = config.prior_prob
    w_scale = config.walk_scale
    flip_q = 0.5 * (1.0 - (1.0 - 2.0 * config.flip_prob) ** length)
    iterations = config.iterations
    burn = config.burn_in
    thin = config.thin
    exp = math.exp

    kept_p, kept_a = [], []
    next_keep = burn + thin - 1
    n_acc = 0
    n_flips = 0
    for first in range(0, iterations, length):
        todo = min(length, iterations - first)
        u = rng.random(3 * length + 2)
        z = rng.standard_normal(length)
        if floats:
            u, z = u.tolist(), z.tolist()

        # Agent politics.
        total = steps.total() if like_on else 0.0
        if u[0] < prior_p:
            new, corr = z[0], 0.0
        else:
            new = z_agent + w_scale * z[0]
            corr = 0.5 * (z_agent * z_agent - new * new)
        pa_new = p_scale * new
        if like_on:
            lf, new_total = steps.score(pa_new, a_agent)
            d = (new_total - total) + corr
        else:
            d = corr
        if d >= 0.0 or u[2 * length] < exp(d):
            n_acc += 1
            z_agent, p_agent = new, pa_new
            if like_on:
                steps.logf, total = lf, new_total
        if next_keep == first:
            kept_p.append(p_agent)
            kept_a.append(a_agent)
            next_keep += thin
        if todo == 1:
            break  # The budget ends at agent politics.

        # Agent analytic; its state holds through the step columns.
        new = u[length + 1] if u[1] < prior_p else reflect_unit(u_agent + w_scale * z[1])
        aa_new = a_low + a_span * new
        if like_on:
            lf, new_total = steps.score(p_agent, aa_new)
            d = new_total - total
        else:
            d = 0.0
        if d >= 0.0 or u[2 * length + 1] < exp(d):
            n_acc += 1
            u_agent, a_agent = new, aa_new
            if like_on:
                steps.logf = lf
        while next_keep < first + todo:
            kept_p.append(p_agent)
            kept_a.append(a_agent)
            next_keep += thin

        n_acc += steps.columns(p_agent, a_agent, u, z, todo)

        if todo == length and u[3 * length] < flip_q:
            n_flips += 1
            if steps.flip(p_agent, a_agent, u[3 * length + 1]):
                z_agent, p_agent = -z_agent, -p_agent

    final = np.empty(length)
    final[0] = z_agent
    final[1] = u_agent
    final[2:] = steps.values()
    log_weight = steps.total() if like_on else 0.0
    return np.column_stack((kept_p, kept_a)), n_acc, n_flips, final, log_weight


class _ArraySteps:
    """The steps of a scan chain as a (6, N) value block and the N step log
    factors; each step column is proposed, scored and accepted at every step
    in one NumPy pass."""

    def __init__(self, values, pipe, n_obs, env, params, config):
        self.n = n_obs
        self.block = values.reshape(n_obs, 6).T.copy()
        self.normal = normal_site_mask(n_obs)[2:].reshape(n_obs, 6).T.ravel()
        self.logf = pipe.log_factors if not config.disable_likelihood else np.zeros(n_obs)
        self.env_arrays = _env_arrays(env)
        self.params = params
        self.config = config

    def total(self) -> float:
        return float(self.logf.sum())

    def values(self) -> np.ndarray:
        return self.block.T.ravel()

    def score(self, p_agent, a_agent, block=None) -> tuple:
        """Log factors of every step for this agent, and their sum."""
        block = self.block if block is None else block
        lf = judge_steps(block, p_agent, a_agent, self.env_arrays, self.params).log_factors
        return lf, float(lf.sum())

    def columns(self, p_agent, a_agent, u, z, todo) -> int:
        """Propose at the six step columns, one pass each; the accept count."""
        n, like_on = self.n, not self.config.disable_likelihood
        length = 6 * n + 2
        prior = u[2:length] < self.config.prior_prob
        fresh = u[length + 2 : 2 * length]
        u_acc = u[2 * length + 2 : 3 * length]
        # A column's proposal reads only its own values, which hold until its
        # pass, so all six are made up front; block order is scan order.
        olds = self.block.ravel()
        walk = olds + self.config.walk_scale * z[2:]
        fresh = np.where(self.normal, z[2:], fresh)
        walked = np.where(self.normal, walk, reflect_units(walk))
        proposals = np.where(prior, fresh, walked).reshape(6, n)
        corrs = np.where(
            self.normal & ~prior, 0.5 * (olds * olds - walk * walk), 0.0
        ).reshape(6, n)
        n_acc = 0
        for col in range(6):
            lo = col * n
            if lo + 2 >= todo:
                break
            new = proposals[col]
            if like_on:
                rows = list(self.block)
                rows[col] = new
                lf, _ = self.score(p_agent, a_agent, rows)
                d = (lf - self.logf) + corrs[col]
            else:
                d = corrs[col]
            accept = u_acc[lo : lo + n] < np.exp(np.minimum(d, 0.0))
            if todo - 2 - lo < n:
                accept[todo - 2 - lo :] = False
            n_acc += int(np.count_nonzero(accept))
            self.block[col] = np.where(accept, new, self.block[col])
            if like_on:
                self.logf = np.where(accept, lf, self.logf)
        return n_acc

    def flip(self, p_agent, a_agent, u_accept) -> bool:
        """Mirror the steps, exactly or, with a side coin at 0.5, by MH."""
        flipped = self.block.copy()
        flipped[_COL_SIDE] = 1.0 - flipped[_COL_SIDE]
        flipped[_COL_ZPOL] = -flipped[_COL_ZPOL]
        # Without a side coin at 0.5 the flip is the exact mirror image and
        # keeps every step factor bitwise; without the likelihood every
        # factor is 0. Either way it is accepted.
        if np.any(self.block[_COL_SIDE] == 0.5) and not self.config.disable_likelihood:
            lf, new_total = self.score(-p_agent, a_agent, flipped)
            d = new_total - self.total()
            if not (d >= 0.0 or u_accept < math.exp(d)):
                return False
            self.logf = lf
        self.block = flipped
        return True


class _FloatSteps:
    """The steps of a scan chain as plain floats: the 6N step values in
    layout order, and per step the news politics, news contest draw and log
    factor, as ``judge_steps`` gives them (kept only with the likelihood on).

    A step proposal rescores its own step; an agent proposal rescores every
    step from the cached news. The arithmetic is ``judge_steps``'s, in the
    same order, and log factors are summed in NumPy's pairwise order
    (``_pairwise_sum``), so every decision is the one ``_ArraySteps`` makes,
    except at ties in the last bit: ``**`` and ``math.exp`` may round apart
    from a SIMD build's vectorised power and exp.
    """

    def __init__(self, values, pipe, n_obs, env, params, config):
        self.n = n_obs
        self.vals = values.tolist()
        self.p_news = pipe.p_news.tolist()
        self.x_news = pipe.x_news.tolist()
        self.logf = pipe.log_factors.tolist() if not config.disable_likelihood else [0.0] * n_obs
        self.env_arrays = _env_arrays(env)
        self.params = params
        self.config = config
        # Scan order of the step sites: scan position, value index, step,
        # the step's first value index, and whether it is a normal site.
        self.order = [
            (2 + col * n_obs + s, 6 * s + col, s, 6 * s, col in (_COL_ZPOL, _COL_ZTRUTH))
            for col in range(6)
            for s in range(n_obs)
        ]
        self.outlets = [a.tolist() for a in self.env_arrays]
        self.judge = (
            params.discount_scale,
            params.discount_base,
            params.likelihood_sd,
            math.log(params.likelihood_sd),
        )

    def total(self) -> float:
        return _pairwise_sum(self.logf)

    def values(self) -> list:
        return self.vals

    def score(self, p_agent, a_agent) -> tuple:
        """Log factors of every step for this agent, and their sum."""
        ds, db, sd, log_sd = self.judge
        lf = []
        for p_n, x_n, u_xa in zip(self.p_news, self.x_news, self.vals[_COL_XA::6]):
            # The bound may differ from NumPy's vectorised power in the last
            # bit, but it only enters a comparison.
            b_a = a_agent - ds * db ** abs(p_n - p_agent)
            p_j = p_n if x_n > u_xa * (b_a if b_a > 0.0 else 0.0) else -p_n
            zz = (p_j - p_agent) / sd
            lf.append(-0.5 * zz * zz - log_sd - _HALF_LOG_2PI)
        return lf, _pairwise_sum(lf)

    def columns(self, p_agent, a_agent, u, z, todo) -> int:
        """Propose at the step sites one at a time; the accept count."""
        vals, p_news, x_news, logf = self.vals, self.p_news, self.x_news, self.logf
        cums, mag, p_sd, t_mean, t_sd = self.outlets
        ds, db, sd, log_sd = self.judge
        prior_p, w_scale = self.config.prior_prob, self.config.walk_scale
        like_on = not self.config.disable_likelihood
        length = len(z)
        fresh = u[length:]
        accept = u[2 * length :]
        outlets = len(cums)
        exp = math.exp
        n_acc = 0
        for pos, j, s, base, normal in self.order[: max(0, todo - 2)]:
            old = vals[j]
            corr = 0.0
            if u[pos] < prior_p:
                new = z[pos] if normal else fresh[pos]
            elif normal:
                new = old + w_scale * z[pos]
                corr = 0.5 * (old * old - new * new)
            else:
                new = reflect_unit(old + w_scale * z[pos])
            if not like_on:
                if corr >= 0.0 or accept[pos] < exp(corr):
                    n_acc += 1
                    vals[j] = new
                continue
            # judge_steps for one step, over plain floats.
            vals[j] = new
            u_o, coin, z_pol, z_truth, u_xn, u_xa = vals[base : base + 6]
            o = bisect_right(cums, u_o)
            if o == outlets:
                o -= 1
            m = mag[o]
            p_n = (m if coin < 0.5 else -m) + p_sd[o] * z_pol
            t_n = t_mean[o] + t_sd[o] * z_truth
            x_n = u_xn * (t_n if t_n > 0.0 else 0.0)
            b_a = a_agent - ds * db ** abs(p_n - p_agent)
            p_j = p_n if x_n > u_xa * (b_a if b_a > 0.0 else 0.0) else -p_n
            zz = (p_j - p_agent) / sd
            f = -0.5 * zz * zz - log_sd - _HALF_LOG_2PI
            d = (f - logf[s]) + corr
            if d >= 0.0 or accept[pos] < exp(d):
                n_acc += 1
                logf[s] = f
                p_news[s] = p_n
                x_news[s] = x_n
            else:
                vals[j] = old
        return n_acc

    def flip(self, p_agent, a_agent, u_accept) -> bool:
        """Mirror the steps, exactly or, with a side coin at 0.5, by MH."""
        sides = self.vals[_COL_SIDE::6]
        flipped = self.vals.copy()
        flipped[_COL_SIDE::6] = [1.0 - v for v in sides]
        flipped[_COL_ZPOL::6] = [-v for v in flipped[_COL_ZPOL::6]]
        if 0.5 in sides and not self.config.disable_likelihood:
            cols = np.array(flipped).reshape(self.n, 6).T
            pipe = judge_steps(cols, -p_agent, a_agent, self.env_arrays, self.params)
            d = float(pipe.log_factors.sum()) - self.total()
            if not (d >= 0.0 or u_accept < math.exp(d)):
                return False
            self.p_news = pipe.p_news.tolist()
            self.x_news = pipe.x_news.tolist()
            self.logf = pipe.log_factors.tolist()
        else:
            # As in _ArraySteps.flip the factors are kept; an exact mirror
            # image negates every news politics.
            self.p_news = [-p for p in self.p_news]
        self.vals = flipped
        return True


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
    caller owns. Without it the chains run here, or on a pool opened for
    this cell alone, with ``config.workers`` processes but no more than the
    cell has chains. The result is identical for every ``workers`` value:
    chain i depends only on ``(config.seed, i)`` and samples are
    concatenated in chain order.
    """
    if chains is not None:
        results = list(chains)
    elif config.workers == 1:
        results = [run_chain(env, params, n_obs, config, i) for i in range(config.n_chains)]
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
