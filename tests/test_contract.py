"""The names and call shapes the benchmark harness (`benchmarks/`) looks up in
the package, and the independence of the quadrature route from the sampler.

`benchmarks/traced.py` counts `trace.init_calls` and `trace.pipeline_calls` by
replacing `inference.init_trace` and `inference.pipeline_from_values`, so
`run_chain` and `run_chains` must reach both through those module globals,
once per chain.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from polarsim import cli, inference, oracle, trace
from polarsim.model import ME2, ModelParams

PARAMS = ModelParams()


def test_benchmark_pinned_names_exist():
    for module, name in [
        (inference, "init_trace"),
        (inference, "pipeline_from_values"),
        (inference, "run_chain"),
        (inference, "run_chains"),
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


@pytest.fixture
def calls(monkeypatch) -> dict:
    """Counts of the calls `inference` makes through its module globals
    `init_trace` and `pipeline_from_values`."""
    counts = {"init_trace": 0, "pipeline_from_values": 0}

    def counted(name):
        original = getattr(inference, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(inference, name, wrapper)

    for name in counts:
        counted(name)
    return counts


CONFIG = inference.InferenceConfig(n_chains=1, iterations=500, burn_in=100, seed=4, flip_prob=0.0)


def test_run_chain_calls_init_and_pipeline_once_through_module_globals(calls):
    inference.run_chain(ME2, PARAMS, 10, CONFIG, 0)
    assert calls == {"init_trace": 1, "pipeline_from_values": 1}


def test_run_chains_calls_init_and_pipeline_once_per_chain_through_module_globals(calls):
    chains = 7
    results = inference.run_chains(ME2, PARAMS, 10, CONFIG, range(chains))
    assert [r.chain_seed for r in results] == [
        inference.derive_chain_seed(CONFIG.seed, i) for i in range(chains)
    ]
    assert calls == {"init_trace": chains, "pipeline_from_values": chains}


def test_oracle_imports_nothing_from_the_sampler():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.startswith("polarsim")} == {"polarsim.model"}

