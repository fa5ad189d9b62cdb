"""Quadrature ground truth for the agent-politics posterior.

The sampler's target admits a closed integral form: conditioned on the agent,
every observation is independent, so the marginal likelihood of one item is a
two-dimensional integral over the outlet emission (politics and truth), with
the truth contest reduced to its closed-form win probability. Raising that
per-item weight to the observation count and integrating the analytic
disposition out over its uniform prior gives an exact posterior density up to
quadrature error.

Gauss-Legendre panels are placed so that no integrand kink crosses a panel:
the politics axis splits at the agent's own politics (the discount kink), the
truth axis at zero (the clamp) and at the contest bound where the win
probability changes branch.

The truth axis enters only through the expected win probability, a function of
the scalar agent bound ``b`` and the outlet's truth profile. Above the bound
the win probability is ``1 - b / (2 t)``, whose pole at ``t = 0`` lies only
``b`` from the panel; the pole is integrated in closed form, so the direct
rule stays accurate as ``b -> 0``. Where the truth span reaches zero, the
expected win probability is then ``S(b) + (phi(0) / 2) b ln b`` with ``S``
smooth and ``phi(0)`` the truth density at zero. It is read from a Chebyshev
interpolant in ``b`` over ``[max(0, min analytic - discount_scale), max
analytic]``, fitted once per truth profile and accepted only if it matches the
direct rule to ``1e-14`` on a dense check grid. The interpolant is of the
probability itself where that passes; otherwise, when the truth span reaches
zero, it is of ``S`` with the ``b ln b`` term added back. No degree up to the
cap passing means the direct rule is used.

The weight table exploits that the per-item weight is even in agent
politics: only the upper half of the grid is computed and mirrored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from polarsim.model import MediaEnvironment, ModelParams

__all__ = [
    "PosteriorGrid",
    "expected_weight",
    "expected_weight_matrix",
    "posterior",
    "write_grid_csv",
]

MIN_EMISSION_NODES = 64
MIN_ANALYTIC_NODES = 32

_SPAN_SDS = 6.0  # integration half-width around each emission mean, in sds

_FIT_DEGREES = (8, 12, 16, 24, 32, 48, 64)
_FIT_TOLERANCE = 1e-14  # max abs error against the direct rule on the check grid
_FIT_CHECK_POINTS = 2049
# Grid rows per block. The direct rule's (rows, analytic, politics, truth)
# temporaries set the peak resident set; at 8 rows and the default node
# counts each is about 8 MB.
_CHUNK_ROWS = 8


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@lru_cache(maxsize=32)
def _gl_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _norm_pdf(x: np.ndarray, sd: float) -> np.ndarray:
    return np.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def _emission_components(env: MediaEnvironment) -> list[tuple[float, float, object]]:
    """(mixture share, signed politics mean, outlet) per emission mode."""
    comps = []
    for weight, outlet in zip(env.weights, env.outlets):
        if weight == 0.0:
            continue
        if outlet.bimodal:
            mag = outlet.politics_mean_magnitude
            comps.append((0.5 * weight, mag, outlet))
            comps.append((0.5 * weight, -mag, outlet))
        else:
            comps.append((weight, 0.0, outlet))
    return comps


def _truth_mass(truth_mean: float, truth_sd: float) -> float:
    """Normal mass of the truth integration span; independent of the agent."""
    lo = truth_mean - _SPAN_SDS * truth_sd
    hi = truth_mean + _SPAN_SDS * truth_sd
    return _norm_cdf((hi - truth_mean) / truth_sd) - _norm_cdf((lo - truth_mean) / truth_sd)


def _expected_win_probability(
    b_agent: np.ndarray, truth_mean: float, truth_sd: float, truth_nodes: int
) -> tuple[np.ndarray, float]:
    """E over truth of the contest win probability, plus the truth mass.

    Integrates truth over [mean - 6 sd, mean + 6 sd]. Negative truth gives a
    zero news bound and never wins, so only the positive part contributes;
    that part is split at ``b_agent`` where the win probability changes
    branch, keeping each panel analytic, and the ``1 / t`` pole of the upper
    branch is integrated in closed form.
    """
    lo = truth_mean - _SPAN_SDS * truth_sd
    hi = truth_mean + _SPAN_SDS * truth_sd
    mass = _truth_mass(truth_mean, truth_sd)
    t0 = max(0.0, lo)
    if hi <= t0:
        return np.zeros_like(b_agent), mass

    x, w = _gl_unit(truth_nodes)
    b_cut = np.clip(b_agent, t0, hi)

    # Panel where the truth draw is below the agent bound: win prob t / (2 b).
    width_low = b_cut - t0
    t_low = t0 + width_low[..., None] * x
    b_safe = np.where(width_low > 0.0, b_agent, 1.0)[..., None]
    q_low = t_low / (2.0 * b_safe)
    low = (width_low[..., None] * w * q_low * _norm_pdf(t_low - truth_mean, truth_sd)).sum(axis=-1)

    # Panel above the bound: win prob 1 - b / (2 t). Its pole at t = 0 is
    # split off, (1 - b/2t) phi(t) = phi(t) - (b/2) (phi(t) - phi(0)) / t
    # - (b/2) phi(0) / t: the nodes take the smooth part, the last term is
    # integrated exactly. Interior nodes keep t > 0.
    width_high = hi - b_cut
    t_high = b_cut[..., None] + width_high[..., None] * x
    phi_high = _norm_pdf(t_high - truth_mean, truth_sd)
    phi_zero = _norm_pdf(-truth_mean, truth_sd)
    half_b = 0.5 * b_agent
    smooth = phi_high - half_b[..., None] * (phi_high - phi_zero) / t_high
    high = (width_high[..., None] * w * smooth).sum(axis=-1)
    high -= half_b * phi_zero * np.log(hi / np.where(b_agent > 0.0, b_cut, hi))

    return low + high, mass


def _xlogx(b: np.ndarray) -> np.ndarray:
    """``b ln b``, 0 at ``b = 0``."""
    return b * np.log(np.maximum(b, np.finfo(float).tiny))


@dataclass(frozen=True)
class _WinProbabilityFit:
    """A verified interpolant of the expected win probability: ``poly(b)``
    plus ``kink * b ln b``, with ``kink`` 0 when the probability itself is
    fitted."""

    poly: np.polynomial.Chebyshev
    kink: float
    max_err: float

    def __call__(self, b: np.ndarray) -> np.ndarray:
        q = self.poly(b)
        if self.kink:
            q += self.kink * _xlogx(b)
        return q


@lru_cache(maxsize=32)
def _win_probability_fit(
    truth_mean: float, truth_sd: float, truth_nodes: int, b_low: float, b_high: float
) -> _WinProbabilityFit | None:
    """Chebyshev interpolant of the expected win probability on [b_low, b_high].

    Returns the interpolant of the lowest degree whose max abs error against
    the direct rule on a dense check grid is within ``_FIT_TOLERANCE``, or
    None if no degree up to the cap passes. The probability itself is tried
    first. When the truth span reaches zero, the probability is
    ``S(b) + (phi(0) / 2) b ln b`` with ``S`` smooth; the ``b ln b`` term is
    smooth on a domain that starts above zero, but only barely so when it
    starts near zero, so ``S`` is fitted next.
    """

    def direct(b: np.ndarray) -> np.ndarray:
        return _expected_win_probability(b, truth_mean, truth_sd, truth_nodes)[0]

    kinks = [0.0]
    if truth_mean - _SPAN_SDS * truth_sd <= 0.0:
        kinks.append(0.5 * float(_norm_pdf(-truth_mean, truth_sd)))
    check = np.linspace(b_low, b_high, _FIT_CHECK_POINTS)
    exact = direct(check)
    for kink in kinks:

        def smooth(b: np.ndarray) -> np.ndarray:
            return direct(b) - kink * _xlogx(b)

        check_kink = kink * _xlogx(check)
        for degree in _FIT_DEGREES:
            poly = np.polynomial.Chebyshev.interpolate(smooth, degree, domain=[b_low, b_high])
            max_err = float(np.max(np.abs(poly(check) + check_kink - exact)))
            if max_err <= _FIT_TOLERANCE:
                return _WinProbabilityFit(poly, kink, max_err)
    return None


def _truth_axis_fits(
    env: MediaEnvironment, params: ModelParams, agent_analytic: np.ndarray, truth_nodes: int
) -> list[_WinProbabilityFit | None]:
    """Per emission component, the verified interpolant or None (direct rule).

    The agent bound is ``max(0, analytic - discount)`` with the discount in
    ``(0, discount_scale]``, so the analytic values fix its range.
    """
    b_low = max(0.0, float(agent_analytic.min()) - params.discount_scale)
    b_high = float(agent_analytic.max())
    comps = _emission_components(env)
    if not b_low < b_high:
        return [None] * len(comps)
    return [
        _win_probability_fit(outlet.truth_mean, outlet.truth_sd, truth_nodes, b_low, b_high)
        for _, _, outlet in comps
    ]


def expected_weight_matrix(
    agent_politics: np.ndarray,
    agent_analytic: np.ndarray,
    env: MediaEnvironment,
    params: ModelParams,
    *,
    politics_nodes: int = 64,
    truth_nodes: int = 64,
) -> np.ndarray:
    """Per-item expected likelihood weight on a (politics x analytic) grid.

    The politics axis is integrated in two Gauss-Legendre panels split at
    the agent's own politics, where the motivated-reasoning discount has a
    kink; ``politics_nodes`` is the node count per panel.
    """
    if politics_nodes < MIN_EMISSION_NODES or truth_nodes < MIN_EMISSION_NODES:
        raise ValueError(f"emission quadrature needs >= {MIN_EMISSION_NODES} nodes per axis")
    p_a = np.atleast_1d(np.asarray(agent_politics, dtype=float))
    a_a = np.atleast_1d(np.asarray(agent_analytic, dtype=float))
    out = np.zeros((p_a.size, a_a.size))
    x01, w01 = _gl_unit(politics_nodes)
    fits = _truth_axis_fits(env, params, a_a, truth_nodes)

    for (share, mean, outlet), fit in zip(_emission_components(env), fits):
        span = _SPAN_SDS * outlet.politics_sd
        lo = mean - span
        hi = mean + span
        mass = _truth_mass(outlet.truth_mean, outlet.truth_sd)
        for start in range(0, p_a.size, _CHUNK_ROWS):
            pa = p_a[start : start + _CHUNK_ROWS]  # (C,)
            pa3 = pa[:, None, None]
            aa = a_a[None, :, None]  # (1,A,1)
            cut = np.clip(pa, lo, hi)
            for left, right in ((np.full_like(cut, lo), cut), (cut, np.full_like(cut, hi))):
                width = right - left  # (C,)
                p_news = left[:, None] + width[:, None] * x01  # (C,P)
                g_p = width[:, None] * w01 * _norm_pdf(p_news - mean, outlet.politics_sd)
                pn3 = p_news[:, None, :]
                discount = params.discount_scale * params.discount_base ** np.abs(pn3 - pa3)
                b_agent = np.maximum(0.0, aa - discount)  # (C,A,P)
                if fit is None:
                    q = _expected_win_probability(
                        b_agent, outlet.truth_mean, outlet.truth_sd, truth_nodes
                    )[0]
                else:
                    q = fit(b_agent)
                phi_keep = _norm_pdf(pn3 - pa3, params.likelihood_sd)
                phi_flip = _norm_pdf(-pn3 - pa3, params.likelihood_sd)
                integrand = q * phi_keep + (mass - q) * phi_flip
                out[start : start + _CHUNK_ROWS] += share * (
                    integrand * g_p[:, None, :]
                ).sum(axis=-1)
    return out


def expected_weight(
    agent_politics: float,
    agent_analytic: float,
    env: MediaEnvironment,
    params: ModelParams,
    *,
    politics_nodes: int = 64,
    truth_nodes: int = 64,
) -> float:
    """Expected per-item likelihood weight for one agent."""
    w = expected_weight_matrix(
        np.array([agent_politics]),
        np.array([agent_analytic]),
        env,
        params,
        politics_nodes=politics_nodes,
        truth_nodes=truth_nodes,
    )
    return float(w[0, 0])


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalized posterior density of agent politics on a uniform grid."""

    grid: np.ndarray
    log_density: np.ndarray
    env_name: str
    n_obs: int
    params: ModelParams
    grid_points: int
    politics_nodes: int
    truth_nodes: int
    analytic_nodes: int
    tail_mass_bound: float
    truth_axis: str

    @property
    def density(self) -> np.ndarray:
        return np.exp(self.log_density)

    def mirrored(self) -> "PosteriorGrid":
        """The same grid reflected through politics = 0 (for symmetry checks)."""
        return replace(self, log_density=self.log_density[::-1].copy())


@lru_cache(maxsize=8)
def _weight_table(
    env: MediaEnvironment,
    params: ModelParams,
    grid_points: int,
    grid_halfwidth: float,
    politics_nodes: int,
    truth_nodes: int,
    analytic_nodes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Grid, analytic-node log weights, log per-item weight matrix, and the
    truth-axis method used.

    The weight matrix is independent of the observation count, so posteriors
    for different counts share one table per environment and resolution. The
    per-item weight is even in agent politics, so only the rows from the
    grid's middle up are computed; the rest mirror them.
    """
    grid = np.linspace(-grid_halfwidth, grid_halfwidth, grid_points)
    x01, w01 = _gl_unit(analytic_nodes)
    lo, hi = params.analytic_low, params.analytic_high
    a_nodes = lo + (hi - lo) * x01
    a_weights = (hi - lo) * w01
    upper = expected_weight_matrix(
        grid[grid_points // 2 :],
        a_nodes,
        env,
        params,
        politics_nodes=politics_nodes,
        truth_nodes=truth_nodes,
    )
    w_matrix = np.concatenate((upper[grid_points % 2 :][::-1], upper))
    truth_axis = _describe_truth_axis(_truth_axis_fits(env, params, a_nodes, truth_nodes))
    return grid, np.log(a_weights), np.log(w_matrix), truth_axis


def _describe_truth_axis(fits: list[_WinProbabilityFit | None]) -> str:
    """``direct`` if any component takes the direct rule, else the largest
    interpolant degree and check error over the components."""
    if any(fit is None for fit in fits):
        return "direct"
    degree = max(fit.poly.degree() for fit in fits)
    max_err = max(fit.max_err for fit in fits)
    return f"chebyshev deg={degree} max_err={max_err:.2g}"


def posterior(
    env: MediaEnvironment,
    params: ModelParams,
    n_obs: int,
    *,
    grid_points: int = 801,
    grid_halfwidth: float = 4.0,
    politics_nodes: int = 64,
    truth_nodes: int = 64,
    analytic_nodes: int = 32,
) -> PosteriorGrid:
    """Quadrature posterior of agent politics after ``n_obs`` observations.

    ``n_obs = 0`` is allowed and reproduces the prior (useful in tests).
    The returned density is trapezoid-normalized over the grid; mass outside
    the grid is conservatively estimated in ``tail_mass_bound``.
    """
    if n_obs < 0:
        raise ValueError("n_obs must be >= 0")
    if analytic_nodes < MIN_ANALYTIC_NODES:
        raise ValueError(f"analytic quadrature needs >= {MIN_ANALYTIC_NODES} nodes")
    if grid_points < 3:
        raise ValueError("grid needs at least 3 points")

    lo, hi = params.analytic_low, params.analytic_high
    grid, log_a_weights, log_w_matrix, truth_axis = _weight_table(
        env, params, grid_points, grid_halfwidth, politics_nodes, truth_nodes, analytic_nodes
    )
    # Integrate the analytic disposition out in log space; the per-item
    # weight is strictly positive, so the log is finite.
    log_integrand = log_a_weights + n_obs * log_w_matrix
    row_max = log_integrand.max(axis=1)
    log_marginal = (
        row_max
        + np.log(np.exp(log_integrand - row_max[:, None]).sum(axis=1))
        - math.log(hi - lo)
    )

    z = grid / params.prior_politics_sd
    log_prior = -0.5 * z * z - math.log(params.prior_politics_sd) - 0.5 * math.log(2.0 * math.pi)
    log_raw = log_prior + log_marginal

    shift = float(log_raw.max())
    unnorm = np.exp(log_raw - shift)
    norm = float(np.trapezoid(unnorm, grid))
    log_density = log_raw - shift - math.log(norm)

    # Outside the grid the per-item weight keeps falling, so the boundary
    # marginal times the prior tail bounds the unseen mass.
    prior_tail = _norm_cdf(-grid_halfwidth / params.prior_politics_sd)
    log_norm_total = shift + math.log(norm)
    tail = 0.0
    for edge in (0, -1):
        tail += math.exp(log_marginal[edge] + math.log(prior_tail) - log_norm_total)

    return PosteriorGrid(
        grid=grid,
        log_density=log_density,
        env_name=env.name,
        n_obs=n_obs,
        params=params,
        grid_points=grid_points,
        politics_nodes=politics_nodes,
        truth_nodes=truth_nodes,
        analytic_nodes=analytic_nodes,
        tail_mass_bound=float(tail),
        truth_axis=truth_axis,
    )


def write_grid_csv(grid: PosteriorGrid, path: str | Path) -> None:
    """Serialize a posterior grid with its provenance in comment lines."""
    lines = [
        f"# env={grid.env_name}",
        f"# n_obs={grid.n_obs}",
        f"# grid_points={grid.grid_points}",
        f"# politics_nodes={grid.politics_nodes}",
        f"# truth_nodes={grid.truth_nodes}",
        f"# truth_axis={grid.truth_axis}",
        f"# analytic_nodes={grid.analytic_nodes}",
        f"# tail_mass_bound={grid.tail_mass_bound!r}",
        "p_a,density",
    ]
    for p, d in zip(grid.grid, grid.density):
        lines.append(f"{float(p)!r},{float(d)!r}")
    Path(path).write_text("\n".join(lines) + "\n")
