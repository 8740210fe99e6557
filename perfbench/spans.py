"""Spans for the traced pass, recorded by wrapping ``repro`` callables.

Nothing in ``repro`` is edited.  :class:`Patch` swaps a public function
(every reference a ``repro`` module holds to it) or a method for a
wrapper and puts the original back afterwards; :class:`Tracer` makes
the wrappers.  Each call of a wrapped callable records one span -- its
name, start, end and parent -- in flat arrays kept in memory.  A span's
self time is its duration minus the time its child spans cover, so the
self times of all spans, the root included, add up to the root's
duration; the root's self time is the remainder no layer claims.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

ROOT = "pass"


class Patch:
    """Scoped replacement of ``repro`` functions and methods."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(self, module: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace function ``module.attr`` by ``make(original)`` in every
        loaded ``repro`` module that holds it (``from x import f`` copies
        the reference, so patching the defining module alone would miss
        callers)."""
        original = getattr(module, attr)
        replacement = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, replacement)

    def method(self, cls: type, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by ``make(original)``."""
        self._set(cls, attr, make(cls.__dict__[attr]))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = self.clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """Per span name: total self seconds and number of spans."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[index]
        totals: Dict[str, Tuple[float, int]] = {}
        for name, duration, child in zip(self.names, durations, covered):
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + duration - child, calls + 1)
        return totals

    def root_duration(self) -> float:
        """Duration of the outermost spans (the traced pass)."""
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )


#: Layer name -> the ``repro`` callables whose spans it sums, as
#: ``(module, attribute)``; ``Class.method`` names a method.  The planner
#: and dynamic clustering reach the perf model through
#: ``PerfModel._evaluate_layer_impl``, so core.evaluate wraps it too.
LAYER_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "netsim.run": (("repro.netsim.engine", "NetworkSimulator.run"),),
    "netsim.collective": (
        ("repro.netsim.collectives", "ring_allreduce"),
        ("repro.netsim.collectives", "all_to_all"),
    ),
    "faults.recovery": (
        ("repro.faults.resilience", "resilient_ring_allreduce"),
        ("repro.faults.resilience", "baseline_ring_allreduce"),
    ),
    "faults.link_state": (("repro.faults.injector", "FaultInjector.link_state"),),
    "core.trace_build": (("repro.core.trace", "build_tile_transfer_trace"),),
    "core.replay": (("repro.core.trace", "replay_on_machine"),),
    "core.evaluate": (
        ("repro.core.perf_model", "PerfModel.evaluate_layer"),
        ("repro.core.perf_model", "PerfModel._evaluate_layer_impl"),
        ("repro.core.dynamic_clustering", "choose_clustering"),
    ),
    "planner.solve": (("repro.planner.report", "plan_report"),),
    "planner.greedy": (("repro.planner.solver", "greedy_plan"),),
    "planner.transition": (("repro.planner.transition", "transition_cost"),),
    "winograd.forward": (("repro.winograd.conv", "winograd_forward"),),
    "winograd.backward": (("repro.winograd.conv", "winograd_backward"),),
    "winograd.transform": tuple(
        ("repro.winograd.cook_toom", "WinogradTransform." + method)
        for method in (
            "transform_input", "transform_input_transposed",
            "transform_weight", "transform_weight_transposed",
            "inverse_transform", "inverse_transform_transposed",
        )
    ),
    "winograd.tiling": tuple(
        ("repro.winograd.tiling", fn)
        for fn in ("extract_tiles", "extract_tiles_adjoint",
                   "assemble_output", "assemble_output_adjoint")
    ),
    "nn.optim": (("repro.nn.optim", "SGD.step"), ("repro.nn.optim", "SGD.zero_grads")),
    "nn.eval": (("repro.nn.training", "evaluate"),),
}

#: nn.forward / nn.backward wrap these methods on every ``repro.nn``
#: layer class that defines them.
NN_METHODS = {
    "forward": "nn.forward", "forward_tiles": "nn.forward",
    "backward": "nn.backward", "backward_tiles": "nn.backward",
}

#: Counters of ``repro.perf.profiler`` read after the traced pass.
PROFILER_COUNTERS = {
    "netsim.packet_hops": ("netsim.packets_served",),
    "netsim.coalesced": ("netsim.flows_coalesced", "netsim.collectives_coalesced"),
}


def _nn_layer_classes() -> List[type]:
    importlib.import_module("repro.nn")
    from repro.nn.layers import Layer

    found, todo = [], [Layer]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return [cls for cls in found if cls.__module__.startswith("repro.")]


def install(patch: Patch, tracer: Tracer) -> None:
    """Wrap every layer target, counting netsim events and fault
    retransmissions on the way."""

    def counted_run(original: Callable[..., Any]) -> Callable[..., Any]:
        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            before = sim.events_processed
            try:
                return original(sim, *args, **kwargs)
            finally:
                tracer.count("netsim.events", sim.events_processed - before)

        return run

    def counted_recovery(original: Callable[..., Any]) -> Callable[..., Any]:
        def resilient_ring_allreduce(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            tracer.count("faults.retransmits", result.retransmits)
            return result

        return resilient_ring_allreduce

    extra = {
        "NetworkSimulator.run": counted_run,
        "resilient_ring_allreduce": counted_recovery,
    }
    for layer, targets in LAYER_TARGETS.items():
        for module_name, attr in targets:
            inner = extra.get(attr, lambda fn: fn)

            def make(fn: Callable[..., Any], layer: str = layer, inner: Any = inner) -> Any:
                return tracer.wrap(layer, inner(fn))

            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                patch.method(getattr(module, cls_name), method, make)
            else:
                patch.function(module, attr, make)
    for cls in _nn_layer_classes():
        for method, layer in NN_METHODS.items():
            if method in cls.__dict__:
                patch.method(cls, method, lambda fn, layer=layer: tracer.wrap(layer, fn))


def layer_metrics(
    tracer: Tracer, profiler_counters: Dict[str, int], memo_hits: int, memo_misses: int
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).
    Every ``_s`` metric is a self time."""
    times = tracer.self_times()

    def seconds(layer: str) -> float:
        return times.get(layer, (0.0, 0))[0]

    def calls(*layers: str) -> int:
        return sum(times.get(layer, (0.0, 0))[1] for layer in layers)

    def profiled(metric: str) -> int:
        return sum(profiler_counters.get(name, 0) for name in PROFILER_COUNTERS[metric])

    events = tracer.counts.get("netsim.events", 0)
    lookups = memo_hits + memo_misses
    return {
        "netsim.run_s": (seconds("netsim.run"), "s"),
        "netsim.events": (events, "count"),
        "netsim.us_per_event": (1e6 * seconds("netsim.run") / events if events else 0.0, "us"),
        "netsim.packet_hops": (profiled("netsim.packet_hops"), "count"),
        "netsim.coalesced": (profiled("netsim.coalesced"), "count"),
        "netsim.collective_s": (seconds("netsim.collective"), "s"),
        "netsim.collective_calls": (calls("netsim.collective"), "count"),
        "faults.recovery_s": (seconds("faults.recovery"), "s"),
        "faults.link_state_calls": (calls("faults.link_state"), "count"),
        "faults.link_state_s": (seconds("faults.link_state"), "s"),
        "faults.retransmits": (tracer.counts.get("faults.retransmits", 0), "count"),
        "core.trace_build_s": (seconds("core.trace_build"), "s"),
        "core.replay_s": (seconds("core.replay"), "s"),
        "core.evaluate_s": (seconds("core.evaluate"), "s"),
        "core.evaluate_calls": (calls("core.evaluate"), "count"),
        "planner.solve_s": (seconds("planner.solve"), "s"),
        "planner.greedy_s": (seconds("planner.greedy"), "s"),
        "planner.transition_calls": (calls("planner.transition"), "count"),
        "planner.transition_s": (seconds("planner.transition"), "s"),
        "memo.hits": (memo_hits, "count"),
        "memo.misses": (memo_misses, "count"),
        "memo.hit_ratio": (memo_hits / lookups if lookups else 0.0, "ratio"),
        "winograd.forward_s": (seconds("winograd.forward"), "s"),
        "winograd.backward_s": (seconds("winograd.backward"), "s"),
        "winograd.calls": (calls("winograd.forward", "winograd.backward"), "count"),
        "winograd.transform_s": (seconds("winograd.transform"), "s"),
        "winograd.tiling_s": (seconds("winograd.tiling"), "s"),
        "nn.forward_s": (seconds("nn.forward"), "s"),
        "nn.backward_s": (seconds("nn.backward"), "s"),
        "nn.optim_s": (seconds("nn.optim"), "s"),
        "nn.eval_s": (seconds("nn.eval"), "s"),
        "trace.wall_s": (tracer.root_duration(), "s"),
        "trace.remainder_s": (seconds(ROOT), "s"),
    }
