"""The names and call shapes the benchmark harness (`benchmarks/`) looks up in
the package, the independence of the quadrature route from the sampler, and
the range the sampler's evaluation threshold must stay in.

`benchmarks/traced.py` counts `trace.init_calls` and `trace.pipeline_calls` by
replacing `inference.init_trace` and `inference.pipeline_from_values`, so
`run_chain` must reach both through those module globals.
"""

import ast
from pathlib import Path

import numpy as np

from polarsim import cli, inference, oracle, trace
from polarsim.model import ME2, ModelParams

PARAMS = ModelParams()


def test_benchmark_pinned_names_exist():
    for module, name in [
        (inference, "init_trace"),
        (inference, "pipeline_from_values"),
        (inference, "run_chain"),
        (trace, "address_count"),
        (trace, "normal_site_mask"),
        (trace, "replay_values"),
        (oracle, "expected_weight"),
        (oracle, "expected_weight_matrix"),
        (cli, "_parse_environment"),
    ]:
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"

    n_obs = 3
    values = np.random.default_rng(0).random(trace.address_count(n_obs))
    assert trace.normal_site_mask(n_obs).shape == values.shape
    replayed = trace.replay_values(values, n_obs, ME2, PARAMS)
    assert len(replayed) == 5
    assert replayed[2].shape == (n_obs,)
    assert cli._parse_environment("ME2") is ME2


def test_run_chain_calls_init_and_pipeline_once_through_module_globals(monkeypatch):
    calls = {"init_trace": 0, "pipeline_from_values": 0}

    def counted(name):
        original = getattr(inference, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(inference, name, wrapper)

    for name in calls:
        counted(name)
    config = inference.InferenceConfig(
        n_chains=1, iterations=500, burn_in=100, seed=4, flip_prob=0.0
    )
    # One count per evaluation of the scan: plain floats and NumPy columns.
    for n_obs in (10, inference.SCAN_STEPS):
        calls.update(dict.fromkeys(calls, 0))
        inference.run_chain(ME2, PARAMS, n_obs, config, 0)
        assert calls == {"init_trace": 1, "pipeline_from_values": 1}


def test_oracle_imports_nothing_from_the_sampler():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.startswith("polarsim")} == {"polarsim.model"}


def test_plain_float_scan_sums_within_pairwise_range():
    # Below SCAN_STEPS the scan sums its N log factors with _pairwise_sum,
    # which reproduces NumPy's sum for up to 128 terms only.
    assert inference.SCAN_STEPS - 1 <= 128
