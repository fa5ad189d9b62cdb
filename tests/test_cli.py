"""Tests for config resolution, the experiment runner, and exit codes."""

import contextlib
import copy
import io
import json
import multiprocessing
import tempfile
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarsim import cli
from polarsim.inference import InferenceConfig
from polarsim.model import MediaEnvironment, ModelParams, OutletSpec


def run_cli(*argv):
    return cli.main(list(argv))


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def manifest_without_timing(out_dir):
    manifest = read_manifest(out_dir)
    del manifest["timing_seconds"]
    return manifest


def assert_same_artifacts(a, b):
    """Both output directories hold the same files, byte for byte, and the
    same manifest outside ``timing_seconds``."""
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert manifest_without_timing(a) == manifest_without_timing(b)


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
        assert config.cell_inference(100).burn_in == 150_000
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
            *(
                (
                    {
                        "environments": [
                            {"name": "x", "weights": [0.4, 0.5, 0.1], "outlets": {"fake_news_partisan": {key: bad}}}
                        ]
                    },
                    f"environments.outlets.fake_news_partisan.{key}",
                )
                for key, bad in (("truth_sd", "0.3"), ("politics_sd", True))
            ),
            *(
                ({"environments": [{"name": "x", "weights": weights}]}, "environments[x].weights")
                for weights in (["0.4", 0.5, 0.1], [0.4, 0.5, 0.1, True])
            ),
            *(
                ({"inference_by_n": schedule}, "inference_by_n")
                for schedule in (
                    {"1": {"n_chains": 4}, "01": {"n_chains": 8}},
                    {"-5": {"n_chains": 4}},
                    {" 1": {"n_chains": 4}},
                )
            ),
            *(
                # Below the relative sd floor; at truth_sd 1e-17 the
                # quadrature's win probability read 3.11.
                (
                    {
                        "environments": [
                            {"name": "x", "weights": [0.4, 0.5, 0.1], "outlets": {"premium_partisan": {key: 1e-17}}}
                        ]
                    },
                    "environments.outlets.premium_partisan",
                )
                for key in ("truth_sd", "politics_sd")
            ),
            ({"workers": 0}, "workers"),
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

    @pytest.mark.parametrize(
        "name", [5, None, "", "a/b", "../esc/evil", ".hidden", "a b", "x\\y", "caf\u00e9"]
    )
    def test_environment_name_must_be_a_safe_file_stem(self, tmp_path, capsys, name):
        run = tmp_path / "run"
        run.mkdir()
        path = run / "config.json"
        path.write_text(json.dumps({"environments": [{"name": name, "weights": [0.4, 0.5, 0.1]}]}))
        code = run_cli(
            "oracle", "--config", str(path), "--grid-points", "21",
            "--observations", "1", "--out", str(run / "o"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: environments")
        assert sorted(tmp_path.rglob("*")) == [run, path]

    def test_safe_environment_names_load(self, tmp_path):
        names = ["a.b-c_1", "_", "9", "-x"]
        data = {"environments": [{"name": n, "weights": [0.4, 0.5, 0.1]} for n in names]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert [env.name for env in load(path).environments] == names

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

    @pytest.mark.parametrize("mode", ["mcmc", "validate"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_runtime_failure_writes_partial_manifest(
        self, tmp_path, monkeypatch, capsys, workers, mode
    ):
        monkeypatch.setattr(cli, "usable_cores", lambda: 2)
        out = tmp_path / "o"
        out.mkdir()
        (out / "ME1_10_samples.csv").mkdir()
        code = run_cli(
            mode, "--env", "ME1", "--observations", "1", "10",
            "--chains", "4", "--iters", "50", "--burn-in", "10", "--grid-points", "41",
            "--workers", workers, "--out", str(out),
        )
        assert code == 3
        manifest = read_manifest(out)
        assert manifest["complete"] is False
        assert "ME1_10" in manifest["error"]
        assert list(manifest["cells"]) == ["ME1_1"]
        assert (out / "ME1_1_samples.csv").is_file()
        if mode == "validate":
            validation = manifest["validation"]
            assert list(validation["cells"]) == ["ME1_1"]
            assert validation["cells"]["ME1_1"]["tv"] == manifest["cells"]["ME1_1"]["tv"]
            assert validation["tolerances"] == {"1": 0.03, "10": 0.05}
        else:
            assert "validation" not in manifest
        assert "runtime failure" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_figure_failure_writes_partial_manifest(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["oracle", "--observations", "1", "10", "100", "--grid-points", "41"]
        assert run_cli(*argv, "--out", str(out)) == 0
        assert read_manifest(out)["figure"] == "figure2.svg"
        (out / "figure2.svg").unlink()
        (out / "figure2.svg").mkdir()
        capsys.readouterr()
        code = run_cli(*argv, "--seed", "9", "--out", str(out))
        assert code == 3
        manifest = read_manifest(out)
        assert manifest["seed"] == 9
        assert manifest["complete"] is False
        assert manifest["figure"] is None
        assert manifest["error"].startswith("figure2.svg: ")
        assert len(manifest["cells"]) == 9
        assert "runtime failure: figure2.svg" in capsys.readouterr().err

    def test_failed_rerun_leaves_only_listed_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["oracle", "--observations", "1", "10", "100", "--grid-points", "41"]
        assert run_cli(*argv, "--out", str(out)) == 0
        (out / "ME2_10_oracle.csv").unlink()
        (out / "ME2_10_oracle.csv").mkdir()
        assert run_cli(*argv, "--seed", "3", "--out", str(out)) == 3
        manifest = read_manifest(out)
        assert manifest["error"].startswith("ME2_10: ")
        assert manifest["figure"] is None
        assert set(manifest["cells"]) == {"ME1_1", "ME2_1", "ME3_1", "ME1_10"}
        listed = {"manifest.json"} | {
            name
            for cell in manifest["cells"].values()
            for name in cell.values()
            if isinstance(name, str)
        }
        assert {path.name for path in out.iterdir() if path.is_file()} == listed
        # A directory in an artifact's place is not removed; it fails the cell.
        assert (out / "ME2_10_oracle.csv").is_dir()


class TestPoolSize:
    """`run_experiment` opens a pool of min(workers, usable cores, chains)
    processes when that is above 1, and cuts each cell into
    `cli.cell_batches` batches: its share of the processes by scan count,
    at least one."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The size of each pool opened, and of each batch submitted; the
        pools are thread pools."""
        opened = {"sizes": [], "batches": []}

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                opened["sizes"].append(max_workers)
                super().__init__(max_workers)

            def submit(self, fn, *args):
                opened["batches"].append(len(args[-1]))
                return super().submit(fn, *args)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        return opened

    @staticmethod
    def mcmc(out, chains, workers):
        return run_cli(
            "mcmc", "--env", "ME1", "--observations", "1", "--chains", chains,
            "--iters", "50", "--burn-in", "10", "--seed", "5", "--workers", workers,
            "--out", str(out),
        )

    def test_pool_has_no_more_workers_than_chains(self, tmp_path, monkeypatch, pools):
        monkeypatch.setattr(cli, "usable_cores", lambda: 64)
        assert self.mcmc(tmp_path / "o", "2", "8") == 0
        assert pools == {"sizes": [2], "batches": [1, 1]}

    def test_pool_has_no_more_workers_than_cores(self, tmp_path, monkeypatch, pools):
        monkeypatch.setattr(cli, "usable_cores", lambda: 2)
        assert self.mcmc(tmp_path / "o", "16", "8") == 0
        assert pools == {"sizes": [2], "batches": [8, 8]}

    def test_equal_cells_run_as_whole_batches(self, tmp_path, monkeypatch, pools):
        monkeypatch.setattr(cli, "usable_cores", lambda: 2)
        argv = [
            "mcmc", "--env", "ME1", "--env", "ME3", "--observations", "10",
            "--chains", "6", "--iters", "620", "--burn-in", "62", "--seed", "5",
        ]
        assert run_cli(*argv, "--workers", "2", "--out", str(tmp_path / "a")) == 0
        assert pools == {"sizes": [2], "batches": [6, 6]}
        assert run_cli(*argv, "--workers", "1", "--out", str(tmp_path / "b")) == 0
        assert_same_artifacts(tmp_path / "a", tmp_path / "b")

    def test_only_the_long_cell_is_split(self, tmp_path, monkeypatch, pools):
        """ME2 at 1, 10 and 100 observations, with the N = 100 cell at 3M
        iterations: it holds 83% of the scans, so at 2 processes it alone
        is cut in two. Only the chain counts are cut, to keep the test
        short; the split depends on the iterations alone."""
        schedule = {
            1: {"n_chains": 256, "iterations": 3_100, "burn_in": 100, "thin": 3},
            10: {"n_chains": 128, "iterations": 40_000, "burn_in": 8_000, "thin": 16},
            100: {"n_chains": 16, "iterations": 3_000_000, "burn_in": 1_000_000, "thin": 150},
        }
        budgets = [(n, InferenceConfig(**budget)) for n, budget in schedule.items()]
        assert cli.cell_batches(2, budgets) == [1, 1, 2]
        monkeypatch.setattr(cli, "usable_cores", lambda: 2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "environments": ["ME2"],
            "observation_counts": [1, 10, 100],
            "inference_by_n": {
                str(n): {**budget, "n_chains": 2} for n, budget in schedule.items()
            },
        }))
        argv = ["mcmc", "--config", str(config), "--seed", "5"]
        assert run_cli(*argv, "--workers", "2", "--out", str(tmp_path / "a")) == 0
        assert pools == {"sizes": [2], "batches": [2, 2, 1, 1]}
        assert run_cli(*argv, "--workers", "1", "--out", str(tmp_path / "b")) == 0
        assert_same_artifacts(tmp_path / "a", tmp_path / "b")

    def test_one_core_opens_no_pool(self, tmp_path, monkeypatch, pools):
        monkeypatch.setattr(cli, "usable_cores", lambda: 1)
        assert self.mcmc(tmp_path / "a", "4", "2") == 0
        assert self.mcmc(tmp_path / "b", "4", "1") == 0
        assert pools == {"sizes": [], "batches": []}
        assert_same_artifacts(tmp_path / "a", tmp_path / "b")

    def test_usable_cores_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert cli.usable_cores() == 3
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli.usable_cores() == 1


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
        # Every iteration is a proposal; flips follow full scans.
        assert cell["proposals"] == 4 * 200
        assert 0 < cell["flips"] and 0 < cell["accepted"] <= cell["proposals"]
        assert cell["acceptance_rate"] == cell["accepted"] / cell["proposals"]
        # 200 iterations at N = 1 are 25 scans of 8, each proposing at both
        # agent sites and at the step's block, whose six iterations a move
        # accepts.
        branches = cell["acceptance_by_branch"]
        assert list(branches) == ["agent_analytic", "agent_politics", "step_blocks"]
        assert {b["proposed"] for b in branches.values()} == {4 * 25}
        assert all(0 < b["accepted"] < b["proposed"] for b in branches.values())
        assert all(b["rate"] == b["accepted"] / b["proposed"] for b in branches.values())
        assert cell["accepted"] == (
            branches["agent_politics"]["accepted"]
            + branches["agent_analytic"]["accepted"]
            + 6 * branches["step_blocks"]["accepted"]
        )
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

    def test_seeded_runs_are_byte_identical_across_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "usable_cores", lambda: 2)
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
        assert len(list(a.iterdir())) == 1 + 4 * 4
        assert_same_artifacts(a, b)
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
    @pytest.mark.parametrize("likelihood_sd", [0.02, 0.01, 1e-4])
    def test_likelihood_sd_too_small_for_the_quadrature_fails_the_cell(
        self, tmp_path, capsys, likelihood_sd
    ):
        # The per-item weight underflows to 0 on tail rows, which made every
        # density NaN; the cell must fail instead of writing them.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": {"likelihood_sd": likelihood_sd}}))
        out = tmp_path / "o"
        code = run_cli(
            "oracle", "--config", str(path), "--env", "ME2", "--observations", "1",
            "--grid-points", "21", "--out", str(out),
        )
        assert code == 3
        assert "model.likelihood_sd" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads(
            (out / "manifest.json").read_text(), parse_constant=pytest.fail
        )
        assert manifest["complete"] is False
        assert manifest["cells"] == {}
        assert "model.likelihood_sd" in manifest["error"]

    @pytest.mark.parametrize("prior_politics_sd", [0.1, 0.05])
    def test_narrow_prior_writes_finite_grid_and_tail_bound(
        self, tmp_path, prior_politics_sd
    ):
        # The prior mass beyond the grid underflows to 0 from sd 0.1 down,
        # and taking its log exited 3 with a math domain error.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": {"prior_politics_sd": prior_politics_sd}}))
        out = tmp_path / "o"
        code = run_cli(
            "oracle", "--config", str(path), "--env", "ME2", "--observations", "1",
            "--grid-points", "21", "--out", str(out),
        )
        assert code == 0
        lines = (out / "ME2_1_oracle.csv").read_text().splitlines()
        (bound,) = [
            float(line.split("=")[1]) for line in lines if line.startswith("# tail_mass_bound=")
        ]
        assert np.isfinite(bound) and bound >= 0.0
        rows = lines[lines.index("p_a,density") + 1 :]
        assert len(rows) == 21
        assert np.isfinite([float(row.split(",")[1]) for row in rows]).all()

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
        assert config["inference_by_n"]["100"]["iterations"] == 750_000
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


# The README's config file example, which the fuzz test mutates.
README_EXAMPLE = {
    "mode": "both",
    "environments": [
        "ME1",
        {
            "name": "harsh",
            "weights": [0.2, 0.2, 0.6],
            "outlets": {"fake_news_partisan": {"truth_sd": 0.3}},
        },
    ],
    "observation_counts": [1, 10, 100],
    "seed": 0,
    "workers": 1,
    "out_dir": "out",
    "grid_points": 801,
    "model": {"likelihood_sd": 0.25},
    "inference": {"n_chains": 256, "iterations": 1000, "burn_in": 100},
    "inference_by_n": {"1": {"n_chains": 256, "iterations": 3100, "thin": 3}},
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)

# Keys a mutation may add: every key some section accepts, near misses of
# counts and names, and arbitrary text.
mutation_keys = (
    st.sampled_from(
        sorted(
            {*README_EXAMPLE, *typing.get_type_hints(ModelParams)}
            | {*typing.get_type_hints(InferenceConfig), *typing.get_type_hints(OutletSpec)}
            | {"name", "weights", "outlets", "premium_centrist", "premium_partisan"}
            | {"fake_news_partisan", "0", "1", "01", "-5", " 1", "ME2"}
        )
    )
    | st.text(max_size=6)
)


@st.composite
def near_valid_configs(draw):
    """The README example with one to three values replaced, deleted or added."""
    config = copy.deepcopy(README_EXAMPLE)
    for _ in range(draw(st.integers(1, 3))):
        parent = config
        while True:
            keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = parent[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
                break
            parent = child
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" or not keys:
            if isinstance(parent, dict):
                parent[draw(mutation_keys)] = draw(json_values)
            else:
                parent.append(draw(json_values))
        elif action == "delete":
            del parent[key]
        else:
            parent[key] = draw(json_values)
    return config


def print_config(path):
    """Exit code, stdout and stderr of ``print-config --config path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["print-config", "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def load(path):
    return cli.load_config(cli.build_parser().parse_args(["print-config", "--config", str(path)]))


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(near_valid_configs(), json_values))
    def test_print_config_exits_0_or_2_and_round_trips(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(data))
            code, out, err = print_config(path)
            assert code in (0, 2), err
            if code == 2:
                assert err.startswith("error: ")
                return
            echo = Path(tmp) / "echo.json"
            echo.write_text(out)
            assert load(echo) == load(path)


# The keys each section accepts, pinned: the schema is read from the
# dataclasses, so a new field must not widen a section unnoticed.
ACCEPTED_KEYS = {
    "config": {
        "mode", "environments", "observation_counts", "seed", "workers",
        "out_dir", "grid_points", "model", "inference", "inference_by_n",
    },
    "model": {
        "discount_scale", "discount_base", "likelihood_sd",
        "prior_politics_sd", "analytic_low", "analytic_high",
    },
    "inference": {
        "n_chains", "iterations", "burn_in", "thin", "prior_prob",
        "walk_scale", "flip_prob", "disable_likelihood",
    },
    "inference_by_n.1": {"n_chains", "iterations", "burn_in", "thin"},
    "environment": {"name", "weights", "outlets"},
    "outlet": {"politics_mean_magnitude", "politics_sd", "truth_mean", "truth_sd"},
}

# Keys a section might wrongly accept: every field of the config dataclasses.
CANDIDATE_KEYS = set().union(
    *ACCEPTED_KEYS.values(),
    *(
        {f.name for f in fields(cls)}
        for cls in (cli.ExperimentConfig, ModelParams, InferenceConfig, MediaEnvironment, OutletSpec)
    ),
)


def sections(data):
    """Each section's object in a printed config with one custom environment."""
    env = data["environments"][0]
    return {
        "config": data,
        "model": data["model"],
        "inference": data["inference"],
        "inference_by_n.1": data["inference_by_n"]["1"],
        "environment": env,
        "outlet": env["outlets"]["premium_centrist"],
    }


class TestSchema:
    @pytest.fixture
    def printed(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"environments": [{"name": "x", "weights": [0.4, 0.5, 0.1]}]}))
        return cli.config_to_json(load(path))

    def test_every_pinned_key_is_printed_and_loads(self, tmp_path, printed):
        assert {name: set(obj) for name, obj in sections(printed).items()} == ACCEPTED_KEYS
        path = tmp_path / "printed.json"
        path.write_text(json.dumps(printed))
        assert cli.config_to_json(load(path)) == printed

    @pytest.mark.parametrize("section", sorted(ACCEPTED_KEYS))
    def test_no_other_field_is_accepted(self, tmp_path, printed, section):
        path = tmp_path / "config.json"
        for key in sorted(CANDIDATE_KEYS - ACCEPTED_KEYS[section]):
            data = copy.deepcopy(printed)
            sections(data)[section][key] = 1
            path.write_text(json.dumps(data))
            with pytest.raises(cli.UsageError, match=f": unknown keys \\['{key}'\\]"):
                load(path)
