"""The benchmark's four workloads.

Each workload names the ``repro`` modules its set-up imports, builds its
inputs from the seed (:meth:`Workload.prepare`), runs one cold pass over
them (:meth:`Workload.run_pass`) and checks that pass's outputs
(:meth:`Workload.check`).  ``work_per_pass`` is the fixed work one pass
does, pinned here with the workload so that no counter inside the
program can move the throughput metric.

``repro`` is imported lazily, inside the methods: the harness puts the
checkout's ``src`` on ``sys.path`` and caps BLAS threads first.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple


def rows_digest(rows: Any) -> str:
    """sha256 of the canonical JSON of ``rows`` (the serialisation the
    repository's own bench runner digests sweep rows with)."""
    payload = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class PassOutput:
    """What one pass produced: its canonical rows plus one flag per
    operation saying whether that operation's own invariants held."""

    rows: Any
    op_ok: List[bool]


class Workload:
    name = ""
    #: What one unit of ``work_per_pass`` is.
    work_unit = ""
    work_per_pass = 0
    #: Operations one pass attempts.
    ops_per_pass = 0
    #: sha256 of the rows of a seed-0 pass.
    seed0_digest = ""
    #: ``repro`` modules imported during set-up.
    modules: Tuple[str, ...] = ()

    def prepare(self, seed: int) -> Any:
        return seed

    def run_pass(self, inputs: Any) -> PassOutput:
        raise NotImplementedError

    def check(self, seed: int, output: PassOutput) -> int:
        """Failed operations of one pass.  At seed 0 a digest mismatch
        fails every operation of the pass; on any seed each operation
        must also satisfy its own invariants, and a pass that ran fewer
        operations than pinned counts the missing ones as failed."""
        if seed == 0 and rows_digest(output.rows) != self.seed0_digest:
            return self.ops_per_pass
        missing = max(0, self.ops_per_pass - len(output.op_ok))
        return missing + sum(1 for ok in output.op_ok if not ok)


class FaultBattery(Workload):
    """Every fault scenario on the three paper grids, 64 KiB ring
    all-reduce: ``analysis.fault_degradation_rows``."""

    name = "fault_battery"
    work_unit = "simulated packet-hop"
    # netsim.packets_served of a seed-0 pass; other seeds place their
    # faults elsewhere and differ by a few tens of hops in a million.
    work_per_pass = 1_072_126
    ops_per_pass = 18
    # The faults_battery result_digest of the repository's bench runner.
    seed0_digest = "68de1293ef12fc34525f69af56b89d91dc111f1b2b1d9792deebdc9b6662c4d8"
    modules = ("repro.analysis", "repro.faults")

    def run_pass(self, seed: int) -> PassOutput:
        from repro.analysis import fault_degradation_rows

        rows = fault_degradation_rows(seed=seed)
        return PassOutput(rows=rows, op_ok=[row["completed"] is True for row in rows])


#: Table II layers, hybrid grids (N_g, N_c) and phases of tile_replay.
TILE_LAYERS = ("Late-1", "Late-2")
TILE_GRIDS = ((4, 4), (16, 1))
TILE_PHASES = ("fprop", "bprop")
TILE_BATCH = 8


class TileReplay(Workload):
    """Contended intra-cluster tile transfer replayed on the hybrid
    topology, against the all-to-all closed form of the perf model."""

    name = "tile_replay"
    work_unit = "simulated packet-hop"
    # netsim.packets_served of one pass; injection order does not change it.
    work_per_pass = 2_296_320
    ops_per_pass = len(TILE_LAYERS) * len(TILE_GRIDS) * len(TILE_PHASES)
    seed0_digest = "3e79e98821a87c51637d7f7d5bddd3cfdbcee307deb70c90a3d563c4910d1784"
    modules = ("repro.core.trace", "repro.netsim.collectives", "repro.netsim.topology",
               "repro.workloads.layers")
    #: Band the simulated/closed-form ratio must stay in (the one
    #: tests/core/test_trace.py holds ``trace_validate_layer`` to).
    ratio_band = (0.8, 1.4)

    def prepare(self, seed: int) -> List[Tuple[Any, Tuple[int, int], str, int]]:
        """One case per layer x grid x phase, each with the seed of its
        message-injection order."""
        from repro.workloads.layers import five_layers

        layers = {layer.name: layer for layer in five_layers()}
        rng = random.Random(seed)
        return [
            (layers[name], grid, phase, rng.getrandbits(64))
            for name in TILE_LAYERS
            for grid in TILE_GRIDS
            for phase in TILE_PHASES
        ]

    def run_pass(self, cases: List[Tuple[Any, Tuple[int, int], str, int]]) -> PassOutput:
        from repro.core.config import GridConfig, w_mp
        from repro.core.trace import build_tile_transfer_trace, replay_on_machine
        from repro.netsim.collectives import all_to_all_time, fbfly_injection_rate
        from repro.netsim.topology import hybrid

        rows, op_ok = [], []
        for layer, (num_groups, num_clusters), phase, order_seed in cases:
            topology, layout = hybrid(num_groups, num_clusters)
            trace = build_tile_transfer_trace(
                layer, TILE_BATCH, w_mp(), GridConfig(num_groups, num_clusters), layout, phase
            )
            random.Random(order_seed).shuffle(trace.messages)
            replay = replay_on_machine(trace, topology)
            closed = all_to_all_time(
                trace.bytes_per_pair, num_groups, fbfly_injection_rate(num_groups)
            )
            ratio = replay.finish_time_s / closed
            rows.append({
                "layer": layer.name,
                "grid": [num_groups, num_clusters],
                "phase": phase,
                "messages": replay.messages,
                "total_bytes": replay.total_bytes,
                "finish_time_s": replay.finish_time_s,
                "closed_form_s": closed,
            })
            op_ok.append(
                math.isfinite(replay.finish_time_s)
                and replay.finish_time_s > 0.0
                and replay.messages == len(trace.messages) > 0
                and replay.total_bytes == replay.messages * trace.bytes_per_pair
                and self.ratio_band[0] < ratio < self.ratio_band[1]
            )
        return PassOutput(rows=rows, op_ok=op_ok)


def model_error_pct(rows: List[Dict[str, Any]]) -> float:
    """max |simulated / closed-form - 1| over tile_replay rows, in %."""
    return 100.0 * max(abs(r["finish_time_s"] / r["closed_form_s"] - 1.0) for r in rows)


PLAN_WORKERS = (16, 64, 256)
PLAN_BATCHES = (128, 256)
PLAN_MODES = ("dp", "beam")
PLAN_SPLITS = (1, 2, 4, 8)


class PlanSweep(Workload):
    """``planner.plan_report`` over networks x workers x batch x
    transition presets, in seed-shuffled order."""

    name = "plan_sweep"
    work_unit = "plan"
    work_per_pass = 3 * len(PLAN_WORKERS) * len(PLAN_BATCHES) * 3
    ops_per_pass = work_per_pass
    seed0_digest = "fd6943f113636ba61171c02eab54f902497882e4a769d679c18f290630c7bef0"
    modules = ("repro.planner",)

    def prepare(self, seed: int) -> List[Tuple[str, int, int, str]]:
        from repro.planner import network_names, preset_names

        points = [
            (network, workers, batch, transition)
            for network in network_names()
            for workers in PLAN_WORKERS
            for batch in PLAN_BATCHES
            for transition in preset_names()
        ]
        random.Random(seed).shuffle(points)
        return points

    def run_pass(self, points: List[Tuple[str, int, int, str]]) -> PassOutput:
        from repro.planner import StrategyKnobs, plan_report

        knobs = StrategyKnobs(search_transforms=True, batch_splits=PLAN_SPLITS)
        reports = {}
        for network, workers, batch, transition in points:
            reports[(network, workers, batch, transition)] = plan_report(
                network, workers=workers, batch=batch, transition=transition,
                modes=PLAN_MODES, knobs=knobs,
            )
        # Canonical order, so the rows do not depend on the visit order.
        rows = [reports[point] for point in sorted(reports)]
        op_ok = []
        for report in rows:
            dp = next(plan for plan in report["plans"] if plan["mode"] == "dp")
            op_ok.append(dp["total_cost"] <= report["greedy"]["total_cost"])
        return PassOutput(rows=rows, op_ok=op_ok)


FIG14_EPOCHS = 6
FIG14_SAMPLES = 256
FIG14_BATCH = 32  # the batch size fig14_rows trains with
FIG14_JOINS = 2


class WinogradTrain(Workload):
    """FractalNet-small trained with spatial and Winograd-domain joins:
    ``analysis.fig14_rows``."""

    name = "winograd_train"
    work_unit = "training sample"
    work_per_pass = FIG14_JOINS * FIG14_EPOCHS * FIG14_SAMPLES
    ops_per_pass = FIG14_JOINS * FIG14_EPOCHS * (FIG14_SAMPLES // FIG14_BATCH)
    seed0_digest = "c82e23cfabf630bf5eaf9b0acab0190d560fcf8e143174deb0eb0891213c448c"
    modules = ("repro.analysis", "repro.nn", "repro.winograd")

    def run_pass(self, seed: int) -> PassOutput:
        from repro.analysis import fig14_rows
        from repro.nn import training

        from .spans import Patch

        losses: List[float] = []

        def record(original):
            def softmax_cross_entropy(logits, labels):
                loss, grad = original(logits, labels)
                losses.append(loss)
                return loss, grad

            return softmax_cross_entropy

        # Observe each step's loss where the training loop takes it.
        with Patch() as patch:
            patch.function(training, "softmax_cross_entropy", record)
            rows = fig14_rows(epochs=FIG14_EPOCHS, samples=FIG14_SAMPLES, seed=seed)
        return PassOutput(rows=rows, op_ok=[math.isfinite(loss) for loss in losses])


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (FaultBattery(), TileReplay(), PlanSweep(), WinogradTrain())
}
