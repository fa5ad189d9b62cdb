"""Generative model of news consumption and judgment.

An agent with a fixed political leaning and analytic disposition consumes
news items drawn from a mixture of outlets. For every item the agent runs a
noisy truth contest between the item's apparent accuracy and the agent's own
scrutiny, discounted when the item flatters the agent's politics. The
politics the agent takes away from the item (accepted at face value or
flipped) is scored against the agent's own leaning by a Gaussian likelihood.

Everything in this module is scalar and pure. The sampler scores traces with
the one vectorized pipeline in :mod:`polarsim.trace`, and the tests hold it
to these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "OutletKind",
    "OutletSpec",
    "NewsItem",
    "MediaEnvironment",
    "AgentParams",
    "ModelParams",
    "Judgment",
    "PREMIUM_CENTRIST",
    "PREMIUM_PARTISAN",
    "FAKE_NEWS_PARTISAN",
    "BUILTIN_ENVIRONMENTS",
    "builtin_environment",
    "motivational_discount",
    "truth_bounds",
    "truth_probability",
    "judge",
    "log_likelihood",
    "normal_log_pdf",
    "sample_outlet",
    "emit_news",
    "agent_from_units",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _require_finite(obj, *names: str) -> None:
    """Reject a NaN, an infinity or an integer too large for a float in any
    of the named fields. Range checks cannot: every comparison with NaN is
    false, and a bound of infinity passes them."""
    for name in names:
        try:
            finite = math.isfinite(getattr(obj, name))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be a finite number")


class OutletKind(Enum):
    """The three stylized outlet archetypes."""

    PREMIUM_CENTRIST = "premium_centrist"
    PREMIUM_PARTISAN = "premium_partisan"
    FAKE_NEWS_PARTISAN = "fake_news_partisan"


@dataclass(frozen=True)
class OutletSpec:
    """Emission profile of one outlet.

    Politics of an emitted item is Gaussian around ``+magnitude`` or
    ``-magnitude`` (fair coin per item) when ``bimodal``, else around 0.
    Truth is Gaussian and unbounded; the judgment step clamps it.
    """

    kind: OutletKind
    politics_mean_magnitude: float
    politics_sd: float
    truth_mean: float
    truth_sd: float
    bimodal: bool

    def __post_init__(self) -> None:
        _require_finite(
            self, "politics_mean_magnitude", "politics_sd", "truth_mean", "truth_sd"
        )
        if self.politics_sd <= 0 or self.truth_sd <= 0:
            raise ValueError("outlet emission sds must be positive")
        if self.politics_mean_magnitude < 0:
            raise ValueError("politics_mean_magnitude must be >= 0")
        if self.bimodal != (self.kind is not OutletKind.PREMIUM_CENTRIST):
            raise ValueError("bimodal must hold exactly for partisan outlet kinds")


PREMIUM_CENTRIST = OutletSpec(OutletKind.PREMIUM_CENTRIST, 0.0, 0.5, 0.8, 0.2, bimodal=False)
PREMIUM_PARTISAN = OutletSpec(OutletKind.PREMIUM_PARTISAN, 0.7, 0.3, 0.8, 0.2, bimodal=True)
FAKE_NEWS_PARTISAN = OutletSpec(OutletKind.FAKE_NEWS_PARTISAN, 0.9, 0.1, 0.4, 0.5, bimodal=True)

_DEFAULT_OUTLETS = (PREMIUM_CENTRIST, PREMIUM_PARTISAN, FAKE_NEWS_PARTISAN)


@dataclass(frozen=True)
class NewsItem:
    """One emitted article: signed politics and (possibly negative) truth."""

    politics: float
    truth: float


@dataclass(frozen=True)
class MediaEnvironment:
    """A mixture over outlets, in fixed order (centrist, partisan, fake)."""

    name: str
    weights: tuple[float, float, float]
    outlets: tuple[OutletSpec, OutletSpec, OutletSpec] = _DEFAULT_OUTLETS

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.outlets):
            raise ValueError("one weight per outlet required")
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("outlet weights must be finite numbers")
        if any(w < 0 for w in self.weights):
            raise ValueError("outlet weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("outlet weights must sum to 1")

    def cumulative_weights(self) -> tuple[float, ...]:
        total = 0.0
        cums = []
        for w in self.weights:
            total += w
            cums.append(total)
        return tuple(cums)


ME1 = MediaEnvironment("ME1", (0.70, 0.20, 0.10))
ME2 = MediaEnvironment("ME2", (0.40, 0.50, 0.10))
ME3 = MediaEnvironment("ME3", (0.30, 0.10, 0.60))

BUILTIN_ENVIRONMENTS: dict[str, MediaEnvironment] = {e.name: e for e in (ME1, ME2, ME3)}


def builtin_environment(name: str) -> MediaEnvironment:
    try:
        return BUILTIN_ENVIRONMENTS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_ENVIRONMENTS))
        raise KeyError(f"unknown environment {name!r} (known: {known})") from None


@dataclass(frozen=True)
class AgentParams:
    """Latent agent state: signed leaning and analytic disposition."""

    politics: float
    analytic: float


@dataclass(frozen=True)
class ModelParams:
    """All tunable constants of the judgment model.

    Defaults give the reference setup: motivated-reasoning discount
    ``0.2 * 0.2 ** |distance|``, likelihood sd 0.25, standard-normal prior on
    agent politics, uniform analytic disposition on [0.5, 1].
    """

    discount_scale: float = 0.2
    discount_base: float = 0.2
    likelihood_sd: float = 0.25
    prior_politics_sd: float = 1.0
    analytic_low: float = 0.5
    analytic_high: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(
            self,
            "discount_scale",
            "discount_base",
            "likelihood_sd",
            "prior_politics_sd",
            "analytic_low",
            "analytic_high",
        )
        if self.discount_scale < 0:
            raise ValueError("discount_scale must be >= 0")
        if not 0 < self.discount_base <= 1:
            raise ValueError("discount_base must be in (0, 1]")
        if self.likelihood_sd <= 0 or self.prior_politics_sd <= 0:
            raise ValueError("sds must be positive")
        if not self.analytic_low < self.analytic_high:
            raise ValueError("analytic bounds must satisfy low < high")


@dataclass(frozen=True)
class Judgment:
    """Outcome of the truth contest for one item."""

    truth_judgment: bool
    politics_judgment: float


def motivational_discount(news_politics: float, agent_politics: float, params: ModelParams) -> float:
    """Scrutiny discount for agreeable news; maximal when leanings coincide."""
    return params.discount_scale * params.discount_base ** abs(news_politics - agent_politics)


def truth_bounds(news: NewsItem, agent: AgentParams, params: ModelParams) -> tuple[float, float]:
    """Upper bounds of the two uniform draws in the truth contest.

    The news side is the item's truth clamped at zero; the agent side is the
    analytic disposition minus the motivated-reasoning discount, also clamped.
    """
    b_news = max(0.0, news.truth)
    discount = motivational_discount(news.politics, agent.politics, params)
    b_agent = max(0.0, agent.analytic - discount)
    return b_news, b_agent


def truth_probability(b_news: float, b_agent: float) -> float:
    """P(X > Y) for X ~ U(0, b_news), Y ~ U(0, b_agent), zero bound = point mass at 0.

    Ties resolve to "not true", so a zero news bound always loses.
    """
    if b_news < 0 or b_agent < 0:
        raise ValueError("truth bounds must be non-negative")
    if b_news == 0.0:
        return 0.0
    if b_agent == 0.0:
        return 1.0
    if b_news >= b_agent:
        return 1.0 - b_agent / (2.0 * b_news)
    return b_news / (2.0 * b_agent)


def judge(news: NewsItem, x_news: float, x_agent: float) -> Judgment:
    """Resolve the truth contest: accept politics as-is if the news draw wins,
    otherwise flip its sign. A tie counts as a loss for the news."""
    accepted = x_news > x_agent
    politics = news.politics if accepted else -news.politics
    return Judgment(accepted, politics)


def normal_log_pdf(x: float, mean: float, sd: float) -> float:
    z = (x - mean) / sd
    return -0.5 * z * z - math.log(sd) - _HALF_LOG_2PI


def log_likelihood(politics_judgment: float, agent_politics: float, params: ModelParams) -> float:
    """Log score of one judged item against the agent's own leaning."""
    return normal_log_pdf(politics_judgment, agent_politics, params.likelihood_sd)


def sample_outlet(env: MediaEnvironment, u: float) -> int:
    """Inverse-CDF outlet pick from one uniform draw; u >= 1 maps to the last outlet."""
    for i, cum in enumerate(env.cumulative_weights()):
        if u < cum:
            return i
    return len(env.weights) - 1


def emit_news(outlet: OutletSpec, side: bool, z_politics: float, z_truth: float) -> NewsItem:
    """Materialize one item from unit-normal innovations.

    ``side`` picks the positive (True) or negative mode of a bimodal outlet
    and is ignored for unimodal ones.
    """
    if outlet.bimodal:
        mean = outlet.politics_mean_magnitude if side else -outlet.politics_mean_magnitude
    else:
        mean = 0.0
    politics = mean + outlet.politics_sd * z_politics
    truth = outlet.truth_mean + outlet.truth_sd * z_truth
    return NewsItem(politics, truth)


def agent_from_units(z_politics: float, u_analytic: float, params: ModelParams) -> AgentParams:
    """Map unit draws (standard normal, uniform [0,1]) to agent parameters."""
    politics = params.prior_politics_sd * z_politics
    analytic = params.analytic_low + (params.analytic_high - params.analytic_low) * u_analytic
    return AgentParams(politics, analytic)
