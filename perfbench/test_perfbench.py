"""Tests of the benchmark itself, run from the repository root with
``python -m pytest perfbench`` (about two minutes: every workload runs
two traced passes)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, spans
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Work counters that must repeat exactly between traced passes of one
#: seed, and the workloads on which each must also be non-zero.
DETERMINISTIC = {
    "netsim.events": ("fault_battery", "tile_replay"),
    "netsim.packet_hops": ("fault_battery", "tile_replay"),
    "netsim.coalesced": ("fault_battery",),
    "memo.misses": ("fault_battery", "plan_sweep"),
    "planner.transition_calls": ("plan_sweep",),
    "winograd.calls": ("winograd_train",),
}


@pytest.fixture(scope="module", autouse=True)
def _process() -> None:
    run.prepare_process()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deterministic_counters_repeat(name: str) -> None:
    workload = WORKLOADS[name]
    inputs, _ = run.setup(workload, 0)
    first, second = (run.trace_pass(workload, inputs) for _ in range(2))
    for (output, _), label in ((first, "first"), (second, "second")):
        assert workload.check(0, output) == 0, f"{label} traced pass failed its checks"
    for counter, exercised_by in DETERMINISTIC.items():
        assert first[1][counter] == second[1][counter], counter
        if name in exercised_by:
            assert first[1][counter][0] > 0, counter
    if workload.work_unit == "simulated packet-hop":
        # The pinned numerator is what a seed-0 pass simulates.
        assert first[1]["netsim.packet_hops"][0] == workload.work_per_pass


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_metric_once(trace: int, section: str) -> None:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_sweep", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_self_times_account_for_the_root() -> None:
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)

    def middle() -> None:
        leaf()
        leaf()

    tracer.wrap(spans.ROOT, tracer.wrap("middle", middle))()
    # root [0, 10], middle [1, 9], leaves [2, 4] and [5, 8].
    times = tracer.self_times()
    assert times["leaf"] == (5.0, 2)
    assert times["middle"] == (3.0, 1)
    assert times[spans.ROOT] == (2.0, 1)
    assert tracer.root_duration() == 10.0


def test_patch_restores_every_reference() -> None:
    import repro.nn.training as training
    from repro.nn import losses

    original = losses.softmax_cross_entropy
    with spans.Patch() as patch:
        patch.function(losses, "softmax_cross_entropy", lambda fn: "patched")
        assert training.softmax_cross_entropy == "patched"
    assert training.softmax_cross_entropy is original
    assert losses.softmax_cross_entropy is original
