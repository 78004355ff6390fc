"""Benchmark configuration.

Every benchmark reproduces one figure of the paper.  The experiments are
deterministic simulations (not micro-benchmarks of Python code), so each is
run exactly once per session through ``benchmark.pedantic`` — the interesting
output is the experiment's series, which is printed at the end of the run.
"""

from __future__ import annotations

import pytest

_RESULTS = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: wall-clock perf smoke tests gated against BENCH_pipeline.json",
    )
    config.addinivalue_line(
        "markers",
        "matview: materialized-view serve-vs-recompute gates "
        "(select standalone with -m matview)",
    )


def run_and_record(benchmark, experiment_fn, **kwargs):
    """Run *experiment_fn* once under pytest-benchmark and record its result."""
    result = benchmark.pedantic(lambda: experiment_fn(**kwargs), rounds=1, iterations=1)
    _RESULTS.append(result)
    return result


def pytest_terminal_summary(terminalreporter):
    """Print every reproduced figure after the benchmark table."""
    if not _RESULTS:
        return
    terminalreporter.write_sep("=", "reproduced paper figures")
    for result in _RESULTS:
        terminalreporter.write_line("")
        for line in result.render().splitlines():
            terminalreporter.write_line(line)
