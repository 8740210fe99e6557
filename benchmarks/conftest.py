"""Shared helpers for the figure-regeneration benchmarks.

Each ``bench_figNN`` module regenerates the data of one paper figure or
table and prints it (with the paper's reported values for comparison);
``pytest benchmarks/ --benchmark-only`` times the regeneration itself.

A session hook also runs the repo's static-analysis suite over the
source tree and records the finding count in the benchmark machine-info
blob, so saved benchmark JSON ties every perf number to the lint state
of the tree that produced it.
"""

import os
from pathlib import Path
from typing import Dict, Iterable, List

import pytest

from repro.analysis import format_table
from repro.perf.bench import statcheck_stamp

_REPO = Path(__file__).resolve().parents[1]

#: Per-test call durations collected this session (test id -> seconds).
_DURATIONS: Dict[str, float] = {}


def statcheck_summary() -> Dict[str, int]:
    """Finding counts of the statcheck suite over the source tree (one
    analysis per tree content, shared with ``python -m repro bench``)."""
    return statcheck_stamp(_REPO / "src" / "repro")


def pytest_benchmark_update_machine_info(config, machine_info):
    """pytest-benchmark hook: stamp lint state into saved benchmark JSON."""
    machine_info.update(statcheck_summary())


def pytest_runtest_logreport(report):
    """Collect each benchmark's call-phase wall time."""
    if report.when == "call" and report.passed:
        _DURATIONS[report.nodeid] = report.duration


@pytest.fixture(scope="session", autouse=True)
def aggregate_bench_json():
    """Funnel the session's per-benchmark wall times into the same
    schema-2 JSON that ``python -m repro bench`` writes (one on-disk
    format for the perf trajectory).  Opt in by pointing the
    ``REPRO_BENCH_JSON`` environment variable at the output path::

        REPRO_BENCH_JSON=bench_figs.json pytest benchmarks/
    """
    yield
    out = os.environ.get("REPRO_BENCH_JSON")
    if not out or not _DURATIONS:
        return
    from repro.perf import write_bench_json

    entries = {
        nodeid: {"wall_s": seconds, "rounds_s": [seconds]}
        for nodeid, seconds in sorted(_DURATIONS.items())
    }
    path = write_bench_json({"benchmarks": entries}, Path(out))
    print(f"\nwrote {path} ({len(entries)} benchmark timings)")


@pytest.fixture(scope="session", autouse=True)
def report_statcheck_state(request):
    """Print the lint state once per benchmark session so interactive
    runs see drift immediately (saved JSON carries it via machine_info)."""
    summary = statcheck_summary()
    yield
    print(
        f"\nstatcheck over src/repro: {summary['statcheck_findings']} findings "
        f"({summary['statcheck_errors']} errors)"
    )


def print_figure(title: str, rows: Iterable[Dict], note: str = "") -> None:
    rows = list(rows)
    print()
    print("=" * 78)
    print(title)
    if note:
        print(note)
    print("=" * 78)
    if not rows:
        print("(no rows)")
        return
    keys: List[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    table_rows = [[row.get(k, "") for k in keys] for row in rows]
    print(format_table(keys, table_rows))
