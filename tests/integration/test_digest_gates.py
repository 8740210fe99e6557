"""Digest gates: figure sweeps and batteries reproduce their pinned rows.

Each sweep's observable is its row list; its ``result_digest`` is the
sha256 of the rows' canonical JSON.  The pinned digests are read from
the checked-in ``BENCH_PR10.json`` and never copied here, so changing a
pin is an edit to that table that a reviewer sees.

Three contracts ride on the same digests:

* every sweep reproduces its pin from cold sweep caches;
* the netsim fast paths are invisible: the engine rows, and the fault
  battery, digest the same with ``REPRO_NETSIM_REFERENCE=1``;
* process-parallel pre-warming is invisible: after ``run_points`` at
  two workers, the serial replay is all cache hits and matches the pin.

The multi-second batteries are marked ``slow`` (nightly).
"""

import hashlib
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis import (
    fault_degradation_rows,
    fig07_rows,
    fig15_rows,
    fig16_rows,
    fig17_rows,
    planner_rows,
)
from repro.perf.parallel import import_sweep_modules, registered_caches, run_points

PINNED = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCH_PR10.json").read_text()
)["benchmarks"]


def rows_digest(rows: List) -> str:
    payload = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def clear_sweep_caches() -> List:
    import_sweep_modules()
    caches = registered_caches()
    for cache in caches:
        cache.clear()
    return caches


def netsim_battery_rows() -> List:
    """Netsim battery: collectives on the paper grids, raw multi-hop
    flows, and a flit-level worm, returned as canonical rows.

    Every value in the rows is an engine-produced float, so the row
    digest is the collective shortcuts' equivalence observable: running
    it with ``REPRO_NETSIM_REFERENCE=1`` must produce the same digest
    byte for byte.  The raw-flow and worm rows never take a shortcut;
    they pin the batched packet engine and the flit engine's event
    loop."""
    from repro.netsim import Message, NetworkSimulator, all_to_all, ring, ring_allreduce
    from repro.netsim.topology import hybrid
    from repro.netsim.wormhole import WormholeSimulator
    from repro.params import DEFAULT_PARAMS

    rows: List = []

    def record(case: str, op: str, result) -> None:
        rows.append(
            {
                "case": case,
                "op": op,
                "finish_time_s": result.finish_time_s,
                "bytes_on_wire": result.total_bytes_on_wire,
                "messages": result.messages,
                "completed": result.completed,
            }
        )

    # Collectives on the tier-1 paper grids: the group ring carries the
    # all-reduce, the cluster leaders carry the all-to-all.
    for num_groups, num_clusters in ((16, 16), (4, 64)):
        case = f"{num_groups}x{num_clusters}"
        topology, layout = hybrid(num_groups, num_clusters, DEFAULT_PARAMS)
        record(
            case,
            "ring_allreduce",
            ring_allreduce(
                NetworkSimulator(topology), layout.group_members(0), 64 * 1024
            ),
        )
        record(
            case,
            "all_to_all",
            all_to_all(
                NetworkSimulator(topology), layout.cluster_members(0), 10_000
            ),
        )

    # Raw flows on the batched packet engine: two multi-hop flows from
    # t=0, then a one-hop flow that meets the first on link 3->4.
    sim = NetworkSimulator(ring(16))
    completions: List = []
    for index, (src, dst, size, start) in enumerate(
        [(0, 5, 200_000, 0.0), (8, 12, 50_000, 0.0), (3, 4, 1_000, 5e-6)]
    ):
        sim.send(
            Message(
                src=src,
                dst=dst,
                size_bytes=size,
                on_complete=lambda _m, t, i=index: completions.append((i, t)),
            ),
            start_time=start,
        )
    sim.run()
    rows.append(
        {"case": "ring16", "op": "raw_flows",
         "completions": completions, "now": sim.now}
    )

    # Flit level: one single-hop worm on the event loop.
    worm = WormholeSimulator(ring(8))
    finishes: List[float] = []
    worm.send(0, 1, 64 * 1024, on_delivered=finishes.append)
    worm.run()
    rows.append(
        {"case": "ring8", "op": "wormhole_single_worm",
         "finish_time_s": finishes[0], "flits": worm.flits_delivered}
    )
    return rows


def clustering_points(kernels) -> List:
    """Every ``_choose_clustering_cached`` evaluation of the Fig. 15
    sweep (``kernels=(None,)``: the layers as given) or of the Fig. 16
    sweep (``kernels=(3, 5)``), with the figure drivers' operands."""
    from repro.core import table4_configs, w_dp
    from repro.core.comm_model import DEFAULT_FACTORS
    from repro.core.dynamic_clustering import _choose_clustering_cached
    from repro.params import DEFAULT_PARAMS
    from repro.perf.parallel import sweep_point
    from repro.workloads import five_layers

    points = []
    for kernel in kernels:
        for base_layer in five_layers():
            layer = base_layer if kernel is None else base_layer.with_kernel(kernel)
            for config in [w_dp()] + list(table4_configs()):
                points.append(
                    sweep_point(
                        _choose_clustering_cached,
                        layer, 256, config, 256, DEFAULT_PARAMS, DEFAULT_FACTORS,
                    )
                )
    return points


def faults_battery_points() -> List:
    """Every scenario on every paper grid, as ``fault_degradation_rows``
    evaluates them."""
    from repro.core.config import PAPER_GRIDS
    from repro.faults.scenarios import _scenario_grid_row_cached, scenario_names
    from repro.params import DEFAULT_PARAMS
    from repro.perf.parallel import sweep_point

    return [
        sweep_point(
            _scenario_grid_row_cached,
            scenario, num_groups, num_clusters, 0, 64 * 1024, DEFAULT_PARAMS,
        )
        for scenario in scenario_names()
        for num_groups, num_clusters in PAPER_GRIDS
    ]


def planner_battery_points() -> List:
    """Layer spaces, clusterings and chain plans of ``planner_rows``."""
    from repro.analysis.planner import _BATTERY_NETWORKS, _BATTERY_PRESETS
    from repro.core import w_mp_plus_plus
    from repro.core.comm_model import DEFAULT_FACTORS
    from repro.core.dynamic_clustering import _choose_clustering_cached
    from repro.params import DEFAULT_PARAMS
    from repro.perf.parallel import sweep_point
    from repro.planner import preset
    from repro.planner.solver import _plan_network_cached
    from repro.planner.strategy import DEFAULT_KNOBS, _layer_candidates_cached

    config = w_mp_plus_plus()
    points = []
    for _name, build in _BATTERY_NETWORKS:
        net = build()
        layers = tuple(net.conv_layers)
        for layer in layers:
            points.append(
                sweep_point(
                    _layer_candidates_cached,
                    layer, 256, config, 256, DEFAULT_KNOBS,
                    DEFAULT_PARAMS, DEFAULT_FACTORS,
                )
            )
            points.append(
                sweep_point(
                    _choose_clustering_cached,
                    layer, 256, config, 256, DEFAULT_PARAMS, DEFAULT_FACTORS,
                )
            )
        for preset_name in _BATTERY_PRESETS:
            points.append(
                sweep_point(
                    _plan_network_cached,
                    net.name, layers, 256, config, 256, DEFAULT_KNOBS,
                    preset(preset_name), "time", "dp", 4,
                    DEFAULT_PARAMS, DEFAULT_FACTORS,
                )
            )
    return points


SWEEPS: Dict = {
    "fig7": fig07_rows,
    "fig15": fig15_rows,
    "fig16": fig16_rows,
    "fig17": fig17_rows,
    "planner_battery": planner_rows,
    "netsim_battery": netsim_battery_rows,
    "faults_battery": fault_degradation_rows,
}


POINTS: Dict = {
    "fig15": lambda: clustering_points((None,)),
    "fig16": lambda: clustering_points((3, 5)),
    "faults_battery": faults_battery_points,
    "planner_battery": planner_battery_points,
}


def cold_digest(name: str) -> str:
    clear_sweep_caches()
    return rows_digest(SWEEPS[name]())


@pytest.mark.parametrize(
    "name", ["fig7", "fig15", "fig16", "fig17", "planner_battery", "netsim_battery"]
)
def test_sweep_matches_pinned_digest(name):
    assert cold_digest(name) == PINNED[name]["result_digest"]


def test_netsim_battery_reference_engine_matches_fast(monkeypatch):
    fast = cold_digest("netsim_battery")
    monkeypatch.setenv("REPRO_NETSIM_REFERENCE", "1")
    assert cold_digest("netsim_battery") == fast


@pytest.mark.slow
@pytest.mark.parametrize("reference", ["0", "1"], ids=["fast", "reference"])
def test_faults_battery_matches_pinned_digest(reference, monkeypatch):
    monkeypatch.setenv("REPRO_NETSIM_REFERENCE", reference)
    assert cold_digest("faults_battery") == PINNED["faults_battery"]["result_digest"]


@pytest.mark.parametrize(
    "name",
    [
        "fig15",
        pytest.param("faults_battery", marks=pytest.mark.slow),
        pytest.param("planner_battery", marks=pytest.mark.slow),
    ],
)
def test_two_worker_prewarm_matches_pinned_digest(name):
    # The serial run is pinned above, so the pin stands for it here.
    caches = clear_sweep_caches()
    points = POINTS[name]()
    stats = run_points(points, workers=2)
    assert stats["workers"] == 2
    assert stats["points"] == len(points)
    assert stats["unique_points"] <= stats["points"]
    # Each unique point went to exactly one worker, which finished it.
    assert sum(w["points"] for w in stats["worker_stats"]) == stats["unique_points"]
    assert all(worker["completed"] for worker in stats["worker_stats"])
    misses_before = sum(cache.misses for cache in caches)
    assert rows_digest(SWEEPS[name]()) == PINNED[name]["result_digest"]
    # The enumerator covers the sweep: the replay was pure hits.
    assert sum(cache.misses for cache in caches) == misses_before
