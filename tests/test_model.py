"""Unit tests for the model's configuration types: built-in outlets and
environments, their validation, and the package's exported names."""

from __future__ import annotations

import importlib
from dataclasses import replace

import pytest

import polarsim
from polarsim.model import (
    BUILTIN_ENVIRONMENTS,
    FAKE_NEWS_PARTISAN,
    MIN_RELATIVE_SD,
    PREMIUM_CENTRIST,
    PREMIUM_PARTISAN,
    MediaEnvironment,
    ModelParams,
    OutletKind,
    OutletSpec,
    builtin_environment,
)


class TestEnvironments:
    def test_builtin_mixtures(self):
        assert BUILTIN_ENVIRONMENTS["ME1"].weights == (0.70, 0.20, 0.10)
        assert BUILTIN_ENVIRONMENTS["ME2"].weights == (0.40, 0.50, 0.10)
        assert BUILTIN_ENVIRONMENTS["ME3"].weights == (0.30, 0.10, 0.60)

    def test_outlet_table(self):
        assert PREMIUM_CENTRIST.politics_sd == 0.5
        assert PREMIUM_CENTRIST.truth_mean == 0.8
        assert PREMIUM_CENTRIST.truth_sd == 0.2
        assert not PREMIUM_CENTRIST.bimodal
        assert PREMIUM_PARTISAN.politics_mean_magnitude == 0.7
        assert PREMIUM_PARTISAN.politics_sd == 0.3
        assert PREMIUM_PARTISAN.truth_mean == 0.8
        assert FAKE_NEWS_PARTISAN.politics_mean_magnitude == 0.9
        assert FAKE_NEWS_PARTISAN.politics_sd == 0.1
        assert FAKE_NEWS_PARTISAN.truth_mean == 0.4
        assert FAKE_NEWS_PARTISAN.truth_sd == 0.5

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MediaEnvironment("bad", (0.5, 0.2, 0.2))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            MediaEnvironment("bad", (1.2, -0.1, -0.1))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_environment("ME9")

    def test_cumulative_weights(self):
        cums = BUILTIN_ENVIRONMENTS["ME2"].cumulative_weights()
        assert cums == pytest.approx((0.4, 0.9, 1.0))


class TestOutletSpecValidation:
    def test_sd_must_be_positive(self):
        with pytest.raises(ValueError):
            OutletSpec(OutletKind.PREMIUM_PARTISAN, 0.7, 0.0, 0.8, 0.2)

    @pytest.mark.parametrize("sd", ["politics_sd", "truth_sd"])
    @pytest.mark.parametrize("tiny", [1e-300, 1e-17, 1e-12, 0.99e-9])
    def test_sd_below_the_relative_floor_is_rejected(self, sd, tiny):
        # Narrower emissions corrupt the quadrature without an error: at
        # truth_sd 1e-17 its win probability read 3.11.
        with pytest.raises(ValueError, match=sd):
            replace(PREMIUM_PARTISAN, **{sd: tiny})

    def test_sd_floor_scales_with_the_mean(self):
        # The built-ins load at import; the benchmark's "harsh" outlet too.
        replace(FAKE_NEWS_PARTISAN, truth_sd=0.3)
        replace(PREMIUM_PARTISAN, truth_sd=MIN_RELATIVE_SD)
        replace(PREMIUM_PARTISAN, truth_mean=50.0, truth_sd=50 * MIN_RELATIVE_SD)
        with pytest.raises(ValueError, match="truth_sd"):
            replace(PREMIUM_PARTISAN, truth_mean=-50.0, truth_sd=10 * MIN_RELATIVE_SD)
        with pytest.raises(ValueError, match="politics_sd"):
            replace(PREMIUM_PARTISAN, politics_mean_magnitude=50.0, politics_sd=1e-8)


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert p.discount_scale == 0.2
        assert p.discount_base == 0.2
        assert p.likelihood_sd == 0.25
        assert p.prior_politics_sd == 1.0
        assert (p.analytic_low, p.analytic_high) == (0.5, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(likelihood_sd=0.0)
        with pytest.raises(ValueError):
            ModelParams(analytic_low=1.0, analytic_high=0.5)
        with pytest.raises(ValueError):
            ModelParams(discount_base=0.0)


@pytest.mark.parametrize(
    "module", ["polarsim", "cli", "inference", "model", "oracle", "report", "trace"]
)
def test_every_exported_name_resolves(module):
    mod = polarsim if module == "polarsim" else importlib.import_module(f"polarsim.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{mod.__name__}.{name}"
