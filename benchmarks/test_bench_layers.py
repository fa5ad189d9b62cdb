"""Per-layer metrics from hand-made spans, and the metric lists against BENCHMARK.json."""

import json
from pathlib import Path

import pytest

import run


def span(name, start, end, parent=None, **attributes):
    return {"name": name, "start": start, "end": end, "parent": parent, **attributes}


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER_UNITS


def test_self_times_rates_and_unreached_layers():
    spans = [
        span("cli.run_experiment", 0.0, 10.0),
        span("oracle.posterior", 1.0, 5.0, parent=0, env="E", n_obs=1),
        span("oracle.expected_weight_matrix", 1.5, 4.5, parent=1, points=600),
        span("inference.sample_posterior", 5.0, 9.0, parent=0, env="E", n_obs=1),
        span("inference.run_chain", 5.0, 7.0, parent=3, n_obs=1, iterations=1000,
             proposals=900, accepted=450),
        span("trace.init_trace", 5.0, 5.5, parent=4),
        span("inference.run_chain", 7.0, 9.0, parent=3, n_obs=1, iterations=3000,
             proposals=2700, accepted=900),
    ]
    metrics = run.layer_metrics(spans, {"E_1": 200.0})
    assert set(metrics) | {"bench.trace_overhead_s"} == set(run.PER_LAYER_UNITS)
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["oracle.table_s"] == pytest.approx(3.0)
    assert metrics["oracle.table_points_per_s"] == pytest.approx(200.0)
    assert metrics["oracle.posterior_s"] == pytest.approx(1.0)
    assert metrics["inference.iters_per_s.n1"] == pytest.approx(1000.0)
    assert metrics["inference.ess_per_s.n1"] == pytest.approx(50.0)
    assert metrics["inference.accept_rate.n1"] == pytest.approx(1350 / 3600)
    assert metrics["trace.init_calls"] == 1
    assert metrics["inference.iters_per_s.n100"] == 0.0
    assert metrics["report.bin_s"] == 0.0
