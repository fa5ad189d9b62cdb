"""Tests for binning, distances, polarization metrics, and the figure."""

import json
import math
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polarsim import inference, oracle, report
from polarsim.model import ME1, ME2, ME3, ModelParams
from polarsim.oracle import PosteriorGrid

PARAMS = ModelParams()


def toy_grid(x, density, env_name="toy", n_obs=0):
    """A PosteriorGrid with a hand-specified normalized density."""
    x = np.asarray(x, dtype=float)
    density = np.asarray(density, dtype=float)
    norm = np.trapezoid(density, x)
    return PosteriorGrid(
        grid=x,
        log_density=np.log(np.maximum(density / norm, 1e-300)),
        env_name=env_name,
        n_obs=n_obs,
        grid_points=x.size,
        politics_nodes=0,
        truth_nodes=0,
        analytic_nodes=0,
        tail_mass_bound=0.0,
        truth_axis="none",
    )


def prior_grid(points=1601):
    x = np.linspace(-4.0, 4.0, points)
    return toy_grid(x, np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi), "prior")


class TestBinning:
    def test_sixty_bins_on_fixed_domain(self):
        assert report.BIN_EDGES.shape == (61,)
        assert report.BIN_EDGES[0] == -3.0
        assert report.BIN_EDGES[-1] == 3.0

    def test_zero_lands_in_right_open_bin(self):
        hist = report.bin_samples(np.array([0.0]))
        assert hist.counts[30] == 1
        assert hist.bin_edges[30] == 0.0
        assert hist.bin_edges[31] == pytest.approx(0.1)
        assert hist.dropped == 0

    def test_right_edge_is_dropped_not_clamped(self):
        hist = report.bin_samples(np.array([3.0]))
        assert hist.counts.sum() == 0
        assert hist.dropped == 1

    def test_left_edge_is_included(self):
        hist = report.bin_samples(np.array([-3.0]))
        assert hist.counts[0] == 1
        assert hist.dropped == 0

    def test_out_of_range_both_sides(self):
        hist = report.bin_samples(np.array([-3.5, 1.0, 4.2]))
        assert hist.counts.sum() == 1
        assert hist.dropped == 2

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError):
            report.bin_samples(np.array([]))

    def test_counts_plus_dropped_equals_total(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.0, 2.0, size=20_000)
        hist = report.bin_samples(values)
        assert hist.counts.sum() + hist.dropped == values.size
        assert hist.n_total == values.size

    def test_densities_integrate_to_kept_fraction(self):
        rng = np.random.default_rng(6)
        values = rng.normal(0.0, 2.0, size=50_000)
        hist = report.bin_samples(values)
        integral = float((hist.densities * np.diff(hist.bin_edges)).sum())
        kept = 1.0 - hist.dropped / hist.n_total
        assert integral == pytest.approx(kept, rel=1e-12)

    def test_order_independent(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=5_000)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        a = report.bin_samples(values)
        b = report.bin_samples(shuffled)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.dropped == b.dropped

    def test_mirror_is_an_involution(self):
        rng = np.random.default_rng(8)
        hist = report.bin_samples(rng.normal(0.4, 1.0, size=3_000))
        back = hist.mirrored().mirrored()
        np.testing.assert_array_equal(back.counts, hist.counts)
        assert back.dropped == hist.dropped


class TestTvDistance:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(9)
        hist = report.bin_samples(rng.normal(size=1_000))
        assert report.tv_distance(hist, hist) == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(10)
        a = report.bin_samples(rng.normal(size=2_000))
        b = report.bin_samples(rng.normal(0.5, 1.0, size=2_000))
        assert report.tv_distance(a, b) == pytest.approx(
            report.tv_distance(b, a), rel=1e-15
        )

    def test_disjoint_histograms_are_distance_one(self):
        a = report.bin_samples(np.full(10, -2.0))
        b = report.bin_samples(np.full(10, 2.0))
        assert report.tv_distance(a, b) == pytest.approx(1.0)

    def test_supercell_separates_dropped_mass(self):
        inside = report.bin_samples(np.zeros(10))
        outside = report.bin_samples(np.full(10, 5.0))
        assert report.tv_distance(inside, outside) == pytest.approx(1.0)

    def test_prior_draws_match_analytic_prior(self):
        rng = np.random.default_rng(11)
        hist = report.bin_samples(rng.normal(size=100_000))
        assert report.tv_distance(hist, prior_grid()) < 0.02

    def test_grid_against_itself(self):
        g = prior_grid()
        assert report.tv_distance(g, g) == 0.0


class TestMirrorTv:
    def test_exactly_symmetric_histogram(self):
        values = np.array([-1.55, 1.55, -0.35, 0.35, 0.05, -0.05])
        assert report.mirror_tv(report.bin_samples(values)) == 0.0

    def test_standard_normal_draws_are_nearly_symmetric(self):
        rng = np.random.default_rng(12)
        hist = report.bin_samples(rng.normal(size=100_000))
        assert report.mirror_tv(hist) < 0.02

    def test_shifted_distribution_is_asymmetric(self):
        rng = np.random.default_rng(13)
        hist = report.bin_samples(rng.normal(1.5, 0.3, size=10_000))
        assert report.mirror_tv(hist) > 0.9


class TestModeRule:
    def grid_with_valley(self, valley):
        """Peaks of height 1.0 and 0.5 with a flat valley between them."""
        x = np.linspace(-4.0, 4.0, 801)
        density = np.full_like(x, valley)
        density += (1.0 - valley) * np.exp(-0.5 * ((x + 1.5) / 0.12) ** 2)
        density += (0.5 - valley) * np.exp(-0.5 * ((x - 1.5) / 0.12) ** 2)
        return toy_grid(x, density)

    def test_deep_valley_is_bimodal(self):
        metrics = report.metrics_from_grid(self.grid_with_valley(0.05))
        assert metrics.bimodal
        assert len(metrics.mode_locations) == 2

    def test_shallow_valley_fails_the_dip_rule(self):
        # Dip below the smaller peak is 0.5 - 0.45 = 0.05 < 10% of max.
        metrics = report.metrics_from_grid(self.grid_with_valley(0.45))
        assert len(metrics.mode_locations) == 2
        assert not metrics.bimodal

    def test_dip_exactly_at_threshold_counts(self):
        metrics = report.metrics_from_grid(self.grid_with_valley(0.4))
        assert metrics.bimodal

    def test_unimodal_grid(self):
        metrics = report.metrics_from_grid(prior_grid())
        assert not metrics.bimodal
        assert len(metrics.mode_locations) == 1
        assert metrics.mode_locations[0] == pytest.approx(0.0, abs=1e-9)


class TestMetrics:
    def test_prior_band_masses(self):
        metrics = report.metrics_from_grid(prior_grid())
        # Phi(0.5) - Phi(-0.5) and 2 * (1 - Phi(0.8)) for a unit normal.
        assert metrics.moderate_band_mass == pytest.approx(0.3829249, abs=2e-4)
        assert metrics.extreme_mass == pytest.approx(0.4237108, abs=2e-4)

    def test_histogram_band_edges(self):
        # Mass at 0.45 sits inside the moderate band, 0.55 outside.
        inside = report.bin_samples(np.full(4, 0.45))
        outside = report.bin_samples(np.full(4, 0.55))
        assert report.metrics_from_histogram(inside).moderate_band_mass == 1.0
        assert report.metrics_from_histogram(outside).moderate_band_mass == 0.0

    def test_dropped_mass_counts_as_extreme(self):
        hist = report.bin_samples(np.array([0.0, 0.0, 4.0, -4.0]))
        metrics = report.metrics_from_histogram(hist)
        assert metrics.extreme_mass == pytest.approx(0.5)

    def test_bands_leave_room_for_the_middle(self):
        rng = np.random.default_rng(14)
        hist = report.bin_samples(rng.normal(0.0, 1.5, size=30_000))
        metrics = report.metrics_from_histogram(hist)
        middle = 1.0 - metrics.moderate_band_mass - metrics.extreme_mass
        assert 0.0 <= middle <= 1.0

    def test_histogram_metrics_match_grid_on_prior_draws(self):
        rng = np.random.default_rng(15)
        hist = report.bin_samples(rng.normal(size=200_000))
        from_hist = report.metrics_from_histogram(hist)
        from_grid = report.metrics_from_grid(prior_grid())
        assert from_hist.moderate_band_mass == pytest.approx(
            from_grid.moderate_band_mass, abs=0.01
        )
        assert from_hist.extreme_mass == pytest.approx(
            from_grid.extreme_mass, abs=0.01
        )
        assert not from_hist.bimodal

    def test_single_environment_posterior_is_unimodal(self):
        metrics = report.metrics_from_grid(oracle.posterior(ME1, PARAMS, 1))
        assert not metrics.bimodal
        assert metrics.mode_locations[0] == pytest.approx(0.0, abs=0.02)
        assert metrics.moderate_band_mass == pytest.approx(0.580653, abs=0.001)

    def test_polarized_posterior_is_bimodal_with_symmetric_modes(self):
        metrics = report.metrics_from_grid(oracle.posterior(ME3, PARAMS, 10))
        assert metrics.bimodal
        assert len(metrics.mode_locations) == 2
        lo, hi = metrics.mode_locations
        assert lo == pytest.approx(-hi, abs=1e-9)
        assert hi == pytest.approx(0.86, abs=0.02)

    def test_two_modes_can_still_fail_the_dip_rule(self):
        # The mixed environment at one observation has two shallow modes:
        # the valley at zero is about 7% of the peak, under the 10% rule.
        metrics = report.metrics_from_grid(oracle.posterior(ME2, PARAMS, 1))
        assert len(metrics.mode_locations) == 2
        lo, hi = metrics.mode_locations
        assert hi == pytest.approx(0.42, abs=0.02)
        assert lo == pytest.approx(-hi, abs=1e-9)
        assert not metrics.bimodal

    def test_grid_and_mcmc_moderate_mass_agree(self):
        config = inference.InferenceConfig(n_chains=256, iterations=1000, seed=21)
        run = inference.sample_posterior(ME1, PARAMS, 1, config)
        hist = report.bin_samples(run.politics)
        grid = oracle.posterior(ME1, PARAMS, 1)
        assert report.tv_distance(hist, grid) < 0.03
        assert report.metrics_from_histogram(hist).moderate_band_mass == pytest.approx(
            report.metrics_from_grid(grid).moderate_band_mass, abs=0.03
        )


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        hist = report.bin_samples(rng.normal(0.0, 1.8, size=10_000))
        path = tmp_path / "hist.csv"
        report.write_histogram_csv(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# total={hist.n_total}"
        assert lines[1] == f"# dropped={hist.dropped}"
        assert lines[2] == "bin_left,bin_right,count,density"
        assert len(lines) == 3 + 60
        lefts, rights, counts, densities = [], [], [], []
        for line in lines[3:]:
            left, right, count, density = line.split(",")
            lefts.append(float(left))
            rights.append(float(right))
            counts.append(int(count))
            densities.append(float(density))
        np.testing.assert_array_equal(lefts, hist.bin_edges[:-1])
        np.testing.assert_array_equal(rights, hist.bin_edges[1:])
        np.testing.assert_array_equal(counts, hist.counts)
        np.testing.assert_array_equal(densities, hist.densities)


class TestMetricsJson:
    def test_exact_key_set_and_round_trip(self, tmp_path):
        metrics = report.PolarizationMetrics(0.4, 0.1, (-0.7, 0.7), True)
        path = tmp_path / "metrics.json"
        report.write_metrics_json(metrics, path)
        loaded = json.loads(path.read_text())
        assert set(loaded) == {
            "moderate_band_mass",
            "extreme_mass",
            "mode_locations",
            "bimodal",
        }
        assert loaded["moderate_band_mass"] == 0.4
        assert loaded["extreme_mass"] == 0.1
        assert loaded["mode_locations"] == [-0.7, 0.7]
        assert loaded["bimodal"] is True


class TestSamplesCsv:
    def test_one_column_with_header(self, tmp_path):
        config = inference.InferenceConfig(n_chains=2, iterations=40, burn_in=20)
        run = inference.sample_posterior(ME1, PARAMS, 1, config)
        path = tmp_path / "samples.csv"
        inference.write_samples_csv(run, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p_a"
        assert len(lines) == 1 + run.politics.size
        np.testing.assert_array_equal(
            np.array([float(v) for v in lines[1:]]), run.politics
        )

    # Runs of one value, so the writer's run-length path is exercised; any
    # float64, subnormals, signed zeros and non-finite values included.
    runs = st.lists(
        st.tuples(st.floats(width=64), st.integers(min_value=1, max_value=300)),
        min_size=1,
        max_size=20,
    )

    @settings(max_examples=200, deadline=None)
    @given(runs)
    @example([(0.5, 1)])
    @example([(0.0, 3), (-0.0, 2), (0.0, 1)])
    @example([(5e-324, 4), (-5e-324, 1), (2.2250738585072009e-308, 2)])
    @example([(0.1, 100_000)])
    def test_writes_one_repr_per_sample(self, runs):
        politics = np.repeat([v for v, _ in runs], [n for _, n in runs])
        # SampleSet.politics is the strided first column of the samples.
        samples = np.column_stack([politics, np.arange(politics.size, dtype=float)])
        sample_set = inference.SampleSet(
            samples=samples, n_proposals=0, n_accepted=0, n_flips=0,
            proposed_by_branch=(0, 0, 0), accepted_by_branch=(0, 0, 0),
        )
        assert sample_set.politics.strides == samples.strides[:1]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.csv"
            inference.write_samples_csv(sample_set, path)
            written = path.read_bytes()
        expected = "p_a\n" + "\n".join(map(repr, sample_set.politics.tolist())) + "\n"
        assert written == expected.encode()


class TestFigure:
    def full_grids(self):
        rng = np.random.default_rng(17)
        hists = [
            [report.bin_samples(rng.normal(0.0, 0.5 + 0.2 * c, 500)) for c in range(3)]
            for _ in range(3)
        ]
        overlays = [
            [toy_grid(np.linspace(-4, 4, 201), np.exp(-0.5 * np.linspace(-4, 4, 201) ** 2), f"E{c}", 10**r) for c in range(3)]
            for r in range(3)
        ]
        return hists, overlays

    def test_well_formed_svg_with_nine_panels(self, tmp_path):
        hists, overlays = self.full_grids()
        path = tmp_path / "figure.svg"
        report.emit_figure(hists, overlays, path)
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 9
        # One baseline axis per panel.
        assert len(root.findall(f"{ns}line")) == 9

    def test_byte_identical_rerun(self, tmp_path):
        hists, overlays = self.full_grids()
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        report.emit_figure(hists, overlays, first)
        report.emit_figure(hists, overlays, second)
        assert first.read_bytes() == second.read_bytes()

    def test_panel_titles_name_environment_and_count(self, tmp_path):
        hists, overlays = self.full_grids()
        path = tmp_path / "figure.svg"
        report.emit_figure(hists, overlays, path)
        text = path.read_text()
        assert "E0 N=1" in text
        assert "E2 N=100" in text

    def test_none_entries_are_allowed(self, tmp_path):
        hists, overlays = self.full_grids()
        hists[0][0] = None
        overlays[2][2] = None
        path = tmp_path / "figure.svg"
        report.emit_figure(hists, overlays, path)
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring(path.read_text())
        assert len(root.findall(f"{ns}polyline")) == 8

    def test_dimension_mismatch_is_an_error(self, tmp_path):
        hists, overlays = self.full_grids()
        with pytest.raises(ValueError):
            report.emit_figure(hists[:2], overlays, tmp_path / "x.svg")
        with pytest.raises(ValueError):
            report.emit_figure(hists, [row[:2] for row in overlays], tmp_path / "y.svg")
