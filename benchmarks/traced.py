"""Run one `polarsim` command with spans around the public functions.

    python3 benchmarks/traced.py SPANS.json polarsim-arguments...

Each function is replaced, in the module where its caller looks it up, by a
wrapper that records a span (name, start, end, parent span, attributes).
Spans stay in memory and are written to SPANS.json when the command ends,
together with the final state of every chain. The exit code is the
command's. Chain spans are only seen with ``--workers 1``: pool workers
import the package afresh, without the wrappers.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``describe(args, result)`` returns attributes stored on the span.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if describe is not None:
                span.update(describe(args, result))
            return result

        setattr(module, attr, wrapper)


def _chain(args, result) -> dict:
    env, _, n_obs, config, _ = args
    return {
        "env": env.name,
        "n_obs": n_obs,
        "iterations": config.iterations,
        "proposals": result.n_proposals,
        "accepted": result.n_accepted,
        "final_values": result.final_values.tolist(),
        "final_log_weight": result.final_log_weight,
    }


def _cell(args, _) -> dict:
    return {"env": args[0].name, "n_obs": args[2]}


def _table(args, _) -> dict:
    return {"points": len(args[0]) * len(args[1])}


def install(tracer: Tracer) -> None:
    from polarsim import cli, inference, oracle

    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "run_experiment", "cli.run_experiment")
    tracer.wrap(cli, "posterior", "oracle.posterior", _cell)
    tracer.wrap(oracle, "expected_weight_matrix", "oracle.expected_weight_matrix", _table)
    tracer.wrap(cli, "write_grid_csv", "oracle.write_grid_csv")
    tracer.wrap(cli, "sample_posterior", "inference.sample_posterior", _cell)
    tracer.wrap(inference, "run_chain", "inference.run_chain", _chain)
    tracer.wrap(cli, "write_samples_csv", "inference.write_samples_csv")
    tracer.wrap(inference, "init_trace", "trace.init_trace")
    tracer.wrap(inference, "pipeline_from_values", "trace.pipeline_from_values")
    tracer.wrap(cli, "bin_samples", "report.bin_samples")
    tracer.wrap(cli, "tv_distance", "report.tv_distance")
    tracer.wrap(cli, "metrics_from_grid", "report.metrics_from_grid")
    tracer.wrap(cli, "metrics_from_histogram", "report.metrics_from_histogram")
    tracer.wrap(cli, "write_histogram_csv", "report.write_histogram_csv")
    tracer.wrap(cli, "write_metrics_json", "report.write_metrics_json")
    tracer.wrap(cli, "emit_figure", "report.emit_figure")


def main(argv: list[str]) -> int:
    spans_path, command = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    from polarsim import cli

    try:
        return cli.main(command)
    finally:
        spans_path.write_text(json.dumps({"spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
