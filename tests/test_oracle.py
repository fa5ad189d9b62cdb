"""Tests for the quadrature posterior against independent routes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from polarsim import oracle
from polarsim.model import (
    ME1,
    ME2,
    ME3,
    PREMIUM_CENTRIST,
    PREMIUM_PARTISAN,
    FAKE_NEWS_PARTISAN,
    MediaEnvironment,
    ModelParams,
)
from simulated_weight import simulated_weight_mean

PARAMS = ModelParams()

HARSH = MediaEnvironment(
    "harsh",
    (0.2, 0.2, 0.6),
    (PREMIUM_CENTRIST, PREMIUM_PARTISAN, replace(FAKE_NEWS_PARTISAN, truth_sd=0.3)),
)

WEIGHT_PEAK = 1.0 / (0.25 * math.sqrt(2.0 * math.pi))


def norm_pdf(x, sd=1.0):
    return np.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def direct_weight_matrix(p_a, a_a, env, params, nodes=64):
    """Reference: the expected weight with the direct truth-axis rule on
    every element, as a plain loop over grid rows."""
    out = np.zeros((p_a.size, a_a.size))
    x01, w01 = oracle._gl_unit(nodes)
    for share, mean, outlet in oracle._emission_components(env):
        lo = mean - 6.0 * outlet.politics_sd
        hi = mean + 6.0 * outlet.politics_sd
        for row, pa in enumerate(p_a):
            cut = min(max(pa, lo), hi)
            for left, right in ((lo, cut), (cut, hi)):
                p_news = left + (right - left) * x01
                g_p = (right - left) * w01 * norm_pdf(p_news - mean, outlet.politics_sd)
                pn = p_news[None, :]
                discount = params.discount_scale * params.discount_base ** np.abs(pn - pa)
                b_agent = np.maximum(0.0, a_a[:, None] - discount)
                q = oracle._expected_win_probability(
                    b_agent, outlet.truth_mean, outlet.truth_sd, nodes
                )
                mass = oracle._truth_mass(outlet.truth_mean, outlet.truth_sd)
                keep = norm_pdf(pn - pa, params.likelihood_sd)
                flip = norm_pdf(-pn - pa, params.likelihood_sd)
                out[row] += share * ((q * keep + (mass - q) * flip) * g_p).sum(axis=-1)
    return out


class TestExpectedWeight:
    def test_frozen_reference_values(self):
        assert oracle.expected_weight(0.5, 0.8, ME2, PARAMS) == pytest.approx(
            0.4690566964884579, rel=1e-9
        )
        assert oracle.expected_weight(0.0, 0.75, ME1, PARAMS) == pytest.approx(
            0.5410915872526749, rel=1e-9
        )

    def test_bounded_by_likelihood_peak(self):
        politics = np.linspace(-3.0, 3.0, 25)
        analytic = np.linspace(0.5, 1.0, 9)
        for env in (ME1, ME2, ME3):
            w = oracle.expected_weight_matrix(politics, analytic, env, PARAMS)
            assert np.all(w > 0.0)
            assert np.all(w <= WEIGHT_PEAK + 1e-12)

    def test_mirror_symmetric_in_politics(self):
        politics = np.linspace(0.1, 2.5, 7)
        analytic = np.array([0.6, 0.9])
        for env in (ME1, ME2, ME3):
            w_pos = oracle.expected_weight_matrix(politics, analytic, env, PARAMS)
            w_neg = oracle.expected_weight_matrix(-politics, analytic, env, PARAMS)
            np.testing.assert_allclose(w_pos, w_neg, rtol=1e-12)

    def test_matches_forward_monte_carlo(self):
        w = oracle.expected_weight(0.5, 0.8, ME2, PARAMS)
        mean, se = simulated_weight_mean(0.5, 0.8, ME2, PARAMS, 10**6, seed=3)
        assert abs(mean - w) < 3.0 * se

    def test_quadrature_converged_at_default_nodes(self):
        for env in (ME1, ME3):
            coarse = oracle.expected_weight(0.7, 0.65, env, PARAMS)
            fine = oracle.expected_weight(
                0.7, 0.65, env, PARAMS, politics_nodes=128, truth_nodes=128
            )
            assert coarse == pytest.approx(fine, rel=1e-10)

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            oracle.expected_weight(0.0, 0.8, ME1, PARAMS, politics_nodes=32)
        with pytest.raises(ValueError):
            oracle.expected_weight(0.0, 0.8, ME1, PARAMS, truth_nodes=16)


TRUTH_PROFILES = [(0.8, 0.2), (0.4, 0.5), (0.4, 0.3)]


def quad_win_probability(b, truth_mean, truth_sd):
    """Reference: the expected win probability by adaptive quadrature."""
    hi = truth_mean + 6.0 * truth_sd
    t0 = max(0.0, truth_mean - 6.0 * truth_sd)

    def pdf(t):
        return math.exp(-0.5 * ((t - truth_mean) / truth_sd) ** 2) / (
            truth_sd * math.sqrt(2.0 * math.pi)
        )

    def integral(f, lo, up):
        return integrate.quad(f, lo, up, epsabs=1e-15, epsrel=1e-14, limit=200)[0]

    low = integral(lambda t: t / (2.0 * b) * pdf(t), t0, b)
    high = integral(lambda t: (1.0 - b / (2.0 * t)) * pdf(t), b, hi)
    return low + high


class TestTruthAxis:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("b", [1e-5, 1e-4, 1e-3, 1e-2])
    @pytest.mark.parametrize("truth_mean, truth_sd", TRUTH_PROFILES)
    def test_direct_rule_matches_adaptive_quadrature_near_zero_bound(
        self, truth_mean, truth_sd, b
    ):
        q = oracle._expected_win_probability(np.array([b]), truth_mean, truth_sd, 64)
        assert float(q[0]) == pytest.approx(
            quad_win_probability(b, truth_mean, truth_sd), abs=1e-13
        )

    @pytest.mark.parametrize("truth_mean, truth_sd", TRUTH_PROFILES)
    def test_interpolant_matches_direct_rule(self, truth_mean, truth_sd):
        # The built-in domain, one just above the b ln b kink, one at it.
        b_high = PARAMS.analytic_high
        for b_low in (PARAMS.analytic_low - PARAMS.discount_scale, 0.0011, 0.0):
            fit = oracle._win_probability_fit(truth_mean, truth_sd, 64, b_low, b_high)
            assert fit is not None
            assert fit.max_err <= 1e-14
            b = np.linspace(b_low, b_high, 10_007)
            exact = oracle._expected_win_probability(b, truth_mean, truth_sd, 64)
            assert float(np.max(np.abs(fit(b) - exact))) <= 1e-13

    def test_builtin_environments_use_the_interpolant(self):
        analytic = np.linspace(PARAMS.analytic_low, PARAMS.analytic_high, 5)
        for env in (ME1, ME2, ME3, HARSH):
            fits = oracle._truth_axis_fits(env, PARAMS, analytic, 64)
            assert all(fit is not None for fit in fits)

    @pytest.mark.parametrize("analytic_low", [0.1, 0.2])
    def test_direct_rule_where_the_bound_reaches_zero(self, analytic_low):
        """The interpolant serves a bound that reaches zero and matches the
        direct rule there."""
        params = ModelParams(analytic_low=analytic_low)
        politics = np.linspace(-2.0, 2.0, 5)
        analytic = np.linspace(analytic_low, 1.0, 4)
        for env in (ME2, HARSH):
            fits = oracle._truth_axis_fits(env, params, analytic, 64)
            assert all(fit is not None and fit.kink > 0.0 for fit in fits)
            np.testing.assert_allclose(
                oracle.expected_weight_matrix(politics, analytic, env, params),
                direct_weight_matrix(politics, analytic, env, params),
                rtol=1e-13,
            )

    def test_direct_rule_when_no_degree_passes(self, monkeypatch):
        params = ModelParams(analytic_low=0.1)
        politics = np.linspace(-2.0, 2.0, 5)
        analytic = np.linspace(0.1, 1.0, 4)
        monkeypatch.setattr(oracle, "_FIT_DEGREES", (2, 3))
        oracle._win_probability_fit.cache_clear()
        try:
            for env in (ME2, HARSH):
                fits = oracle._truth_axis_fits(env, params, analytic, 64)
                assert fits == [None] * 5
                assert oracle._describe_truth_axis(fits) == "direct"
                np.testing.assert_array_equal(
                    oracle.expected_weight_matrix(politics, analytic, env, params),
                    direct_weight_matrix(politics, analytic, env, params),
                )
        finally:
            oracle._win_probability_fit.cache_clear()

    def test_interpolant_weights_match_direct_rule(self):
        politics = np.linspace(-2.0, 2.0, 5)
        analytic = np.linspace(PARAMS.analytic_low, PARAMS.analytic_high, 4)
        np.testing.assert_allclose(
            oracle.expected_weight_matrix(politics, analytic, ME3, PARAMS),
            direct_weight_matrix(politics, analytic, ME3, PARAMS),
            rtol=1e-13,
        )

    @pytest.mark.parametrize("grid_points", [20, 21])
    def test_mirrored_table_matches_full_grid(self, grid_points):
        grid, log_a_weights, log_w, truth_axis = oracle._weight_table(ME2, PARAMS, grid_points)
        x01, _ = oracle._gl_unit(oracle.ANALYTIC_NODES)
        analytic = PARAMS.analytic_low + (PARAMS.analytic_high - PARAMS.analytic_low) * x01
        full = oracle.expected_weight_matrix(grid, analytic, ME2, PARAMS)
        assert log_w.shape == (grid_points, 32)
        np.testing.assert_allclose(np.exp(log_w), full, rtol=1e-12)
        assert truth_axis.startswith("chebyshev deg=")

    def test_grid_records_truth_axis_method(self):
        for analytic_low in (0.1, 0.2, 0.5):
            params = ModelParams(analytic_low=analytic_low)
            method, degree, max_err = oracle.posterior(
                HARSH, params, 1, grid_points=5
            ).truth_axis.split()
            assert method == "chebyshev"
            assert int(degree.removeprefix("deg=")) <= 64
            assert float(max_err.removeprefix("max_err=")) <= 1e-14


class TestPosterior:
    def test_normalized_and_nonnegative(self):
        for env in (ME1, ME2, ME3):
            for n in (1, 10, 100):
                g = oracle.posterior(env, PARAMS, n)
                assert np.all(g.density >= 0.0)
                assert float(np.trapezoid(g.density, g.grid)) == pytest.approx(
                    1.0, abs=1e-6
                )

    def test_mirror_symmetric_within_tolerance(self):
        for env, n in ((ME1, 1), (ME2, 10), (ME3, 100)):
            g = oracle.posterior(env, PARAMS, n)
            d = g.density
            scale = float(d.max())
            assert float(np.abs(d - d[::-1]).max()) / scale < 1e-9
            np.testing.assert_array_equal(g.mirrored().log_density, g.log_density[::-1])

    def test_zero_observations_reproduce_prior(self):
        g = oracle.posterior(ME3, PARAMS, 0)
        prior = norm_pdf(g.grid, PARAMS.prior_politics_sd)
        prior = prior / np.trapezoid(prior, g.grid)
        np.testing.assert_allclose(g.density, prior, rtol=1e-12)

    def test_frozen_density_values(self):
        g1 = oracle.posterior(ME1, PARAMS, 1)
        at_zero = float(g1.density[np.argmin(np.abs(g1.grid))])
        assert at_zero == pytest.approx(0.6261530205221101, rel=1e-9)
        g2 = oracle.posterior(ME2, PARAMS, 10)
        at_peak = float(g2.density[np.argmin(np.abs(g2.grid - 0.6))])
        assert at_peak == pytest.approx(1.0265550080797756, rel=1e-9)

    def test_concentrates_with_more_observations(self):
        def central_mass(n):
            g = oracle.posterior(ME1, PARAMS, n)
            inside = np.abs(g.grid) <= 0.5
            return float(np.trapezoid(np.where(inside, g.density, 0.0), g.grid))

        assert central_mass(1) < central_mass(10) < central_mass(100)

    def test_tail_mass_bound_is_tiny(self):
        g = oracle.posterior(ME2, PARAMS, 1)
        assert 0.0 <= g.tail_mass_bound < 1e-6

    def test_prior_tail_is_exact_until_it_underflows(self):
        # At prior sd 0.11 the tail beyond 4 is still a normal double, so
        # grids keep the exact value; at 0.1 it underflows, and the
        # Mills-ratio bound log phi(x) - log x takes over.
        x = 4.0 / 0.11
        assert oracle._log_norm_tail(x) == math.log(oracle._norm_cdf(-x))
        for sd in (0.1, 0.05):
            x = 4.0 / sd
            assert oracle._norm_cdf(-x) == 0.0
            exact = float(stats.norm.logsf(x))
            assert exact <= oracle._log_norm_tail(x) < exact + 1.5 / (x * x)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            oracle.posterior(ME1, PARAMS, -1)
        with pytest.raises(ValueError):
            oracle.posterior(ME1, PARAMS, 1, grid_points=2)

    @pytest.mark.parametrize("n_obs", [0, 1, 100])
    def test_weight_underflow_raises_naming_likelihood_sd(self, n_obs):
        # At likelihood_sd 0.02 the per-item weight is exactly 0 at every
        # analytic node of some grid rows, so the density would be NaN.
        with pytest.raises(ValueError, match="model.likelihood_sd"):
            oracle.posterior(ME2, ModelParams(likelihood_sd=0.02), n_obs, grid_points=21)

    def test_grid_metadata_round_trip(self):
        g = oracle.posterior(ME1, PARAMS, 10)
        assert g.env_name == "ME1"
        assert g.n_obs == 10
        assert g.grid_points == len(g.grid) == 801
        assert g.grid[0] == -4.0 and g.grid[-1] == 4.0


class TestGridCsv:
    def test_write_and_reparse_exactly(self, tmp_path):
        g = oracle.posterior(ME2, PARAMS, 1, grid_points=801)
        path = tmp_path / "grid.csv"
        oracle.write_grid_csv(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# env=ME2"
        assert lines[1] == "# n_obs=1"
        assert lines[5].startswith("# truth_axis=chebyshev deg=")
        assert lines[8] == "p_a,density"
        body = [line.split(",") for line in lines[9:]]
        assert len(body) == 801
        parsed_p = np.array([float(p) for p, _ in body])
        parsed_d = np.array([float(d) for _, d in body])
        np.testing.assert_array_equal(parsed_p, g.grid)
        np.testing.assert_array_equal(parsed_d, g.density)
