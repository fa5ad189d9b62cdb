"""Configuration of the generative model of news consumption and judgment.

An agent with a fixed political leaning and analytic disposition consumes
news items drawn from a mixture of outlets. For every item the agent runs a
noisy truth contest between the item's apparent accuracy and the agent's own
scrutiny, discounted when the item flatters the agent's politics. The
politics the agent takes away from the item (accepted at face value or
flipped) is scored against the agent's own leaning by a Gaussian likelihood.

This module holds only the model's configuration: outlet emission profiles,
media environments and the judgment constants. The judgment itself is
stated by :func:`polarsim.trace.judge_steps`, which scores the sampler's
traces, and by the quadrature integrand in :mod:`polarsim.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "OutletKind",
    "OutletSpec",
    "MediaEnvironment",
    "ModelParams",
    "PREMIUM_CENTRIST",
    "PREMIUM_PARTISAN",
    "FAKE_NEWS_PARTISAN",
    "DEFAULT_OUTLETS",
    "BUILTIN_ENVIRONMENTS",
    "builtin_environment",
]


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


# The smallest outlet sd, relative to its mean (or 1 if that is larger). The
# quadrature integrates each emission over its mean +- 6 sd; far narrower
# spans lose their nodes to rounding, and the oracle then returns a wrong
# weight with no error. On ME2 at agent (0.7, 0.75), the premium partisan's
# expected weight at sd 1e-9 is within 5e-9 of its small-sd limit; it is off
# by 2e-7 (truth_sd) and 4e-6 (politics_sd) at 1e-12, by 9e-5 and 8e-4 at
# 1e-15, and by 0.08 and 1.5 at 1e-17. With a politics mean of 50 the errors
# of 3e-6 and 2e-3 come at sd 5e-11 and 5e-14, so the floor scales with it.
MIN_RELATIVE_SD = 1e-9


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

    def __post_init__(self) -> None:
        _require_finite(
            self, "politics_mean_magnitude", "politics_sd", "truth_mean", "truth_sd"
        )
        for sd, mean in (("politics_sd", "politics_mean_magnitude"), ("truth_sd", "truth_mean")):
            floor = MIN_RELATIVE_SD * max(1.0, abs(getattr(self, mean)))
            if getattr(self, sd) < floor:
                raise ValueError(
                    f"{sd} must be >= {MIN_RELATIVE_SD:g} * max(1, |{mean}|) = {floor:.3g}"
                )
        if self.politics_mean_magnitude < 0:
            raise ValueError("politics_mean_magnitude must be >= 0")

    @property
    def bimodal(self) -> bool:
        """Partisan outlets lean either way; the centrist one does not."""
        return self.kind is not OutletKind.PREMIUM_CENTRIST


PREMIUM_CENTRIST = OutletSpec(OutletKind.PREMIUM_CENTRIST, 0.0, 0.5, 0.8, 0.2)
PREMIUM_PARTISAN = OutletSpec(OutletKind.PREMIUM_PARTISAN, 0.7, 0.3, 0.8, 0.2)
FAKE_NEWS_PARTISAN = OutletSpec(OutletKind.FAKE_NEWS_PARTISAN, 0.9, 0.1, 0.4, 0.5)

DEFAULT_OUTLETS = (PREMIUM_CENTRIST, PREMIUM_PARTISAN, FAKE_NEWS_PARTISAN)


@dataclass(frozen=True)
class MediaEnvironment:
    """A mixture over outlets, in fixed order (centrist, partisan, fake)."""

    name: str
    weights: tuple[float, float, float]
    outlets: tuple[OutletSpec, OutletSpec, OutletSpec] = DEFAULT_OUTLETS

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
