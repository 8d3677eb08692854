"""Shared benchmark configuration.

Each benchmark regenerates one table/figure of the paper via
:mod:`repro.eval.experiments`.  Builds are memoised per process
(`repro.eval.harness`), so benchmarks that share sketches — Figures 3/4/5
and Figures 9/10 — pay for each (dataset, scheme, Delta) build once no
matter the execution order.

Set ``REPRO_BENCH_SCALE`` to scale the workloads (e.g. ``0.25`` for a
quick pass, ``4`` for closer-to-paper sizes).
"""

from __future__ import annotations

import os

import pytest

#: The paper's three workloads (Section 6.1).
DATASETS = ("Zipf_3", "ClientID", "ObjectID")


def cpu_header() -> dict:
    """CPU facts stamped into every ``BENCH_*.json`` header.

    ``cpus`` is the machine's core count; ``cpu_affinity`` is the set of
    cores this process may actually run on (containers and taskset often
    hand out fewer than the machine has), or ``None`` where the platform
    has no affinity API.
    """
    try:
        affinity: list[int] | None = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {"cpus": os.cpu_count(), "cpu_affinity": affinity}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay every experiment table after the benchmark summary.

    The whole point of the benchmark run is the printed series (the rows
    the paper plots); pytest captures test stdout, so the tables are
    recorded during the run and written out here, where output is live.
    """
    from repro.eval.reporting import SESSION_LINES

    if SESSION_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line(
            "================ experiment reports (paper series) ================"
        )
        for line in SESSION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(params=DATASETS)
def dataset(request) -> str:
    """Parametrized dataset name used by the per-dataset figures."""
    return request.param


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are macro-benchmarks (seconds to minutes); re-running
    them for statistical timing would multiply the suite cost for no
    insight, so a single round is recorded.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)
