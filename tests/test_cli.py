"""Tests for config resolution, the experiment runner, and exit codes."""

import json
import multiprocessing
import typing

import numpy as np
import pytest

from polarsim import cli
from polarsim.inference import InferenceConfig
from polarsim.model import ModelParams, OutletSpec


def run_cli(*argv):
    return cli.main(list(argv))


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def manifest_without_timing(out_dir):
    manifest = read_manifest(out_dir)
    del manifest["timing_seconds"]
    return manifest


class TestConfigResolution:
    def test_defaults(self):
        args = cli.build_parser().parse_args(["run"])
        config = cli.load_config(args)
        assert [e.name for e in config.environments] == ["ME1", "ME2", "ME3"]
        assert config.observation_counts == (1, 10, 100)
        assert config.mode == "both"
        assert config.grid_points == 801
        assert config.inference.seed == 0
        assert set(config.inference_by_n) == {1, 10, 100}

    def test_flags_override_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 7, "inference": {"iterations": 500}}))
        args = cli.build_parser().parse_args(
            ["run", "--config", str(path), "--seed", "9"]
        )
        config = cli.load_config(args)
        assert config.inference.seed == 9
        assert config.inference.iterations == 500

    def test_budget_flags_discard_per_count_schedule(self):
        args = cli.build_parser().parse_args(["run", "--chains", "8"])
        config = cli.load_config(args)
        assert config.inference_by_n == {}
        assert config.cell_inference(100).n_chains == 8

    def test_per_count_schedule_applies_per_cell(self):
        args = cli.build_parser().parse_args(["run"])
        config = cli.load_config(args)
        assert config.cell_inference(1).n_chains == 256
        assert config.cell_inference(10).thin == 16
        assert config.cell_inference(100).burn_in == 1_000_000
        # The base config is untouched for counts outside the schedule.
        assert config.cell_inference(5) == config.inference

    def test_subcommand_forces_mode(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": "oracle"}))
        args = cli.build_parser().parse_args(["run", "--config", str(path)])
        assert cli.load_config(args).mode == "oracle"
        args = cli.build_parser().parse_args(["mcmc", "--config", str(path)])
        assert cli.load_config(args).mode == "mcmc"

    def test_custom_environment_with_outlet_override(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "environments": [
                        "ME1",
                        {
                            "name": "harsh",
                            "weights": [0.2, 0.2, 0.6],
                            "outlets": {"fake_news_partisan": {"truth_sd": 0.3}},
                        },
                    ]
                }
            )
        )
        args = cli.build_parser().parse_args(["run", "--config", str(path)])
        config = cli.load_config(args)
        assert config.environments[1].name == "harsh"
        assert config.environments[1].weights == (0.2, 0.2, 0.6)
        assert config.environments[1].outlets[2].truth_sd == 0.3
        assert config.environments[1].outlets[2].politics_sd == 0.1

    def test_env_flag_restricts_grid(self):
        args = cli.build_parser().parse_args(["run", "--env", "ME2"])
        config = cli.load_config(args)
        assert [e.name for e in config.environments] == ["ME2"]

    @pytest.mark.parametrize(
        "data",
        [
            {"environments": ["ME9"]},
            {"environments": [{"name": "bad", "weights": [0.5, 0.5, 0.1]}]},
            {"environments": [{"weights": [1.0, 0.0, 0.0]}]},
            {"environments": [{"name": "x", "weights": [1.0, 0.0, 0.0], "outlets": {"tabloid": {}}}]},
            {"inference": {"n_chains": 0}},
            {"inference": {"nchains": 4}},
            {"model": {"likelihood_sd": -1.0}},
            {"observation_counts": [1, 1]},
            {"observation_counts": [-2]},
            {"mode": "bogus"},
            {"grid_points": 1},
            {"bogus_key": 1},
        ],
    )
    def test_bad_config_values_are_usage_errors(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        args = cli.build_parser().parse_args(["run", "--config", str(path)])
        with pytest.raises(cli.UsageError):
            cli.load_config(args)

    def test_malformed_json_is_a_usage_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        args = cli.build_parser().parse_args(["run", "--config", str(path)])
        with pytest.raises(cli.UsageError):
            cli.load_config(args)

    def test_round_trip_through_json(self, tmp_path):
        args = cli.build_parser().parse_args(["run", "--seed", "3"])
        config = cli.load_config(args)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cli.config_to_json(config)))
        again = cli.load_config(
            cli.build_parser().parse_args(["run", "--config", str(path)])
        )
        assert again == config


def float_fields(cls):
    return [name for name, kind in typing.get_type_hints(cls).items() if kind is float]


# Every float a config can set: model and inference fields, one outlet's
# emission fields and one mixture weight.
NON_FINITE_TARGETS = (
    [("model", f) for f in float_fields(ModelParams)]
    + [("inference", f) for f in float_fields(InferenceConfig)]
    + [("outlets", f) for f in float_fields(OutletSpec)]
    + [("weights", 0)]
)


class TestExitCodes:
    def test_unknown_environment_is_usage_error(self, tmp_path, capsys):
        code = run_cli("run", "--env", "ME9", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "ME9" in capsys.readouterr().err

    def test_usage_error_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"inference": {"n_chains": -1}}))
        code = run_cli("run", "--config", str(path))
        assert code == 2
        assert "inference" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"inference_by_n": [1, 2]}, "inference_by_n"),
            ({"inference_by_n": {"1": 5}}, "inference_by_n.1"),
            ({"inference_by_n": {"1": {"iterations": "many"}}}, "inference_by_n.1.iterations"),
            ({"inference": {"iterations": "many"}}, "inference.iterations"),
            (
                {
                    "environments": [
                        {"name": "x", "weights": [1.0, 0.0, 0.0], "outlets": {"premium_centrist": 5}}
                    ]
                },
                "environments.outlets.premium_centrist",
            ),
            ({"observation_counts": "123"}, "observation_counts"),
            ({"seed": 1.7}, "seed"),
            ({"environments": "ME1"}, "environments"),
            ({"model": {"analytic_low": True}}, "model.analytic_low"),
            ({"model": {"likelihood_sd": "0.25"}}, "model.likelihood_sd"),
            ({"inference": {"flip_prob": False}}, "inference.flip_prob"),
            ({"inference": {"disable_likelihood": 1}}, "inference.disable_likelihood"),
            ({"inference": {"n_chains": True}}, "inference.n_chains"),
            ({"inference": {"thin": 2.0}}, "inference.thin"),
            *(
                (
                    {"environments": [{"name": "x", "weights": [1.0, 0.0, 0.0], "outlets": falsy}]},
                    "environments.outlets",
                )
                for falsy in ([], 0, "", None)
            ),
            (
                {
                    "environments": [
                        {"name": "x", "weights": [1.0, 0.0, 0.0], "outlets": {"premium_centrist": {"truth_sd": 10**400}}}
                    ]
                },
                "environments.outlets.premium_centrist",
            ),
            ({"model": {"likelihood_sd": 10**400}}, "model"),
        ],
    )
    def test_malformed_config_exits_2_naming_the_key(self, tmp_path, capsys, data, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        code = run_cli("print-config", "--config", str(path))
        assert code == 2
        assert f"error: {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("section, field", NON_FINITE_TARGETS)
    def test_non_finite_number_exits_2_naming_the_key(
        self, tmp_path, capsys, section, field, bad
    ):
        env = {"name": "x", "weights": [0.4, 0.5, 0.1], "outlets": {}}
        data = {"environments": [env], "observation_counts": [1]}
        if section == "weights":
            env["weights"][field] = float(bad)
        elif section == "outlets":
            env["outlets"]["fake_news_partisan"] = {field: float(bad)}
        else:
            data[section] = {field: float(bad)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))  # json writes NaN and +-Infinity literally
        out = tmp_path / "o"
        code = run_cli(
            "run", "--config", str(path), "--chains", "2", "--iters", "20",
            "--burn-in", "10", "--grid-points", "41", "--out", str(out),
        )
        err = capsys.readouterr().err
        assert code == 2
        prefix = {"weights": "environments[x]", "outlets": "environments.outlets"}
        assert prefix.get(section, section) in err
        assert ("weights" if section == "weights" else field) in err
        assert not (out / "manifest.json").exists()

    def test_validation_tolerance_needs_known_counts(self, tmp_path, capsys):
        code = run_cli("validate", "--observations", "7", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "observation_counts" in capsys.readouterr().err

    def test_budget_that_keeps_no_samples_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        budget = {"n_chains": 4, "iterations": 10, "burn_in": 5, "thin": 10}
        path.write_text(json.dumps({"inference_by_n": {"1": budget}}))
        out = tmp_path / "o"
        code = run_cli(
            "mcmc", "--config", str(path), "--env", "ME1", "--observations", "1",
            "--out", str(out),
        )
        assert code == 2
        assert "inference_by_n.1" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli() == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_runtime_failure_writes_partial_manifest(self, tmp_path, capsys, workers):
        out = tmp_path / "o"
        out.mkdir()
        (out / "ME1_10_samples.csv").mkdir()
        code = run_cli(
            "mcmc", "--env", "ME1", "--observations", "1", "10",
            "--chains", "4", "--iters", "50", "--burn-in", "10",
            "--workers", workers, "--out", str(out),
        )
        assert code == 3
        manifest = read_manifest(out)
        assert manifest["complete"] is False
        assert "ME1_10" in manifest["error"]
        assert list(manifest["cells"]) == ["ME1_1"]
        assert (out / "ME1_1_samples.csv").is_file()
        assert "runtime failure" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


class TestMcmcMode:
    def test_writes_samples_hist_and_metrics(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            "mcmc", "--env", "ME1", "--observations", "1", "10",
            "--chains", "4", "--iters", "200", "--burn-in", "50",
            "--seed", "11", "--out", str(out),
        )
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["complete"] is True
        assert manifest["figure"] is None
        assert set(manifest["cells"]) == {"ME1_1", "ME1_10"}
        cell = manifest["cells"]["ME1_1"]
        assert cell["kept_samples"] == 4 * 150
        # Every iteration is a site proposal or a mirror flip.
        assert cell["proposals"] + cell["flips"] == 4 * 200
        assert 0 < cell["flips"] and 0 < cell["accepted"] <= cell["proposals"]
        assert cell["acceptance_rate"] == cell["accepted"] / cell["proposals"]
        assert "oracle_csv" not in cell
        assert "tv" not in cell
        samples = (out / "ME1_1_samples.csv").read_text().splitlines()
        assert samples[0] == "p_a"
        assert len(samples) == 1 + 600
        metrics = json.loads((out / "ME1_1_metrics.json").read_text())
        assert set(metrics) == {
            "moderate_band_mass",
            "extreme_mass",
            "mode_locations",
            "bimodal",
        }

    def test_full_grid_emits_figure(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            "mcmc", "--chains", "2", "--iters", "60", "--burn-in", "20",
            "--out", str(out),
        )
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["figure"] == "figure2.svg"
        text = (out / "figure2.svg").read_text()
        assert text.count("<rect") >= 9
        assert "ME3 N=100" in text

    def test_seeded_runs_are_byte_identical_across_workers(self, tmp_path):
        outputs = []
        for out_name, workers in (("a", "1"), ("b", "2")):
            out = tmp_path / out_name
            code = run_cli(
                "run", "--env", "ME1", "--env", "ME3", "--observations", "1", "10",
                "--chains", "6", "--iters", "150", "--burn-in", "50",
                "--grid-points", "41", "--seed", "42", "--workers", workers,
                "--out", str(out),
            )
            assert code == 0
            outputs.append(out)
        a, b = outputs
        names = sorted(path.name for path in a.iterdir())
        assert names == sorted(path.name for path in b.iterdir())
        assert len(names) == 1 + 4 * 4
        for name in names:
            if name != "manifest.json":
                assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert manifest_without_timing(a) == manifest_without_timing(b)
        for out in outputs:
            timing = read_manifest(out)["timing_seconds"]
            assert set(timing["phases"]) == set(timing["cells"])
            for phases in timing["phases"].values():
                assert set(phases) == {"oracle", "sampling_wait", "artifacts"}
                assert all(seconds >= 0.0 for seconds in phases.values())

    def test_different_seeds_differ(self, tmp_path):
        outputs = []
        for out_name, seed in (("a", "1"), ("b", "2")):
            out = tmp_path / out_name
            run_cli(
                "mcmc", "--env", "ME1", "--observations", "1",
                "--chains", "2", "--iters", "80", "--burn-in", "20",
                "--seed", seed, "--out", str(out),
            )
            outputs.append(out / "ME1_1_samples.csv")
        assert outputs[0].read_bytes() != outputs[1].read_bytes()


class TestOracleMode:
    def test_writes_grid_and_metrics(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            "oracle", "--env", "ME1", "--observations", "1", "--out", str(out)
        )
        assert code == 0
        manifest = read_manifest(out)
        cell = manifest["cells"]["ME1_1"]
        assert cell["oracle_csv"] == "ME1_1_oracle.csv"
        assert "samples_csv" not in cell
        grid_lines = [
            line
            for line in (out / "ME1_1_oracle.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert grid_lines[0] == "p_a,density"
        assert len(grid_lines) == 1 + 801
        metrics = json.loads((out / "ME1_1_metrics.json").read_text())
        assert metrics["bimodal"] is False
        assert metrics["moderate_band_mass"] == pytest.approx(0.580653, abs=1e-3)

    def test_count_without_validation_tolerance(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            "oracle", "--env", "ME1", "--observations", "2", "--grid-points", "21",
            "--out", str(out),
        )
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["complete"] is True
        assert "error" not in manifest
        assert "validation" not in manifest
        assert set(manifest["cells"]) == {"ME1_2"}
        for key in ("oracle_csv", "metrics_json"):
            assert (out / manifest["cells"]["ME1_2"][key]).is_file()


class TestValidateMode:
    def test_converged_cell_passes_with_default_schedule(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            "validate", "--env", "ME1", "--observations", "1",
            "--seed", "5", "--out", str(out),
        )
        assert code == 0
        manifest = read_manifest(out)
        result = manifest["validation"]["cells"]["ME1_1"]
        assert result["passed"] is True
        assert result["tv"] < result["tolerance"] == 0.03
        assert manifest["cells"]["ME1_1"]["kept_samples"] == 256 * 1000

    def test_underpowered_cell_fails(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "validate", "--env", "ME1", "--observations", "1",
            "--chains", "2", "--iters", "120", "--burn-in", "20",
            "--seed", "5", "--out", str(out),
        )
        assert code == 1
        manifest = read_manifest(out)
        assert manifest["complete"] is True
        assert manifest["validation"]["passed"] is False
        assert "ME1_1" in capsys.readouterr().err


class TestPrintConfig:
    def test_prints_resolved_defaults(self, capsys):
        assert run_cli("print-config") == 0
        config = json.loads(capsys.readouterr().out)
        assert config["environments"] == ["ME1", "ME2", "ME3"]
        assert config["inference_by_n"]["100"]["iterations"] == 3_000_000
        assert config["workers"] == 1
        assert config["out_dir"] == "out"

    def test_reflects_flag_overrides(self, capsys):
        run_cli("print-config", "--seed", "13", "--grid-points", "401")
        config = json.loads(capsys.readouterr().out)
        assert config["seed"] == 13
        assert config["grid_points"] == 401

    def test_flag_form_prints_without_running(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("run", "--print-config", "--seed", "4", "--out", str(out))
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 4
        assert not out.exists()

    def test_custom_environment_round_trips(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        original = {
            "environments": [
                {"name": "mix", "weights": [0.1, 0.8, 0.1]},
            ]
        }
        path.write_text(json.dumps(original))
        run_cli("print-config", "--config", str(path))
        config = json.loads(capsys.readouterr().out)
        entry = config["environments"][0]
        assert entry["name"] == "mix"
        assert entry["weights"] == [0.1, 0.8, 0.1]
        assert entry["outlets"]["premium_centrist"]["politics_sd"] == 0.5

    def test_integers_load_into_float_fields(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "model": {"analytic_high": 2},
                    "inference": {"flip_prob": 0, "disable_likelihood": True},
                }
            )
        )
        assert run_cli("print-config", "--config", str(path)) == 0
        config = json.loads(capsys.readouterr().out)
        assert config["model"]["analytic_high"] == 2
        assert config["inference"]["flip_prob"] == 0
        assert config["inference"]["disable_likelihood"] is True
