"""Elided final-hop arrivals and bulk injection are unobservable.

On a final hop where no loss is possible the engine gives a message one
completion event — for the packet that empties ``pending_packets`` —
instead of one arrival event per packet, and a multi-packet message
joins its first link's queue with one ``extend`` instead of one
``enqueue`` per packet.  ``_PerPacketSimulator`` below keeps the
per-packet engine (one arrival event per packet-hop, one ``enqueue`` per
injected packet) as the reference; every test runs a workload on both
and compares everything a caller can see, with ``==`` on floats.
"""

import heapq
import math
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GridConfig, w_mp
from repro.core.trace import build_tile_transfer_trace, replay_on_machine
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFault, PacketLoss
from repro.netsim import Message, NetworkSimulator, flattened_butterfly_2d, hybrid, ring
from repro.netsim.engine import _LinkServer, _Packet
from repro.netsim.fastpath import packet_split
from repro.perf import profiling_disabled, profiling_enabled, reset_profile, snapshot_profile
from repro.workloads.layers import five_layers


class _PerPacketServer(_LinkServer):
    """Link server that schedules one arrival event per served packet."""

    def _serve_next(self) -> None:
        if not self.queues:
            self.busy = False
            return
        sim = self.sim
        faults = sim.faults
        if faults is not None and faults.may_block:
            available_at = faults.link_available_at(self.link, sim.now)
            if available_at > sim.now:
                if available_at == float("inf"):
                    self.busy = False
                    return
                self.busy = True
                sim.schedule(available_at, self._serve_next)
                return
        flow_id, queue = self.queues.popitem(last=False)
        batch = [queue.popleft()]
        if not self.queues:
            limit = sim.max_batch_packets - 1
            while queue and limit > 0:
                batch.append(queue.popleft())
                limit -= 1
        if queue:
            self.queues[flow_id] = queue
        self.busy = True
        link = self.link
        done_time = sim.now
        for packet in batch:
            wire = packet.wire_bytes
            done_time += wire / link.bytes_per_s
            link.bytes_carried += wire
            if faults is not None and faults.may_drop and faults.drop_packet(
                link, packet, done_time
            ):
                self._handle_drop(packet, done_time, faults)
            else:
                heapq.heappush(
                    sim._events,
                    (
                        done_time + link.latency_s,
                        next(sim._seq),
                        partial(sim._packet_arrived, packet),
                    ),
                )
        heapq.heappush(sim._events, (done_time, next(sim._seq), self._serve_next))
        sim._packets_served_accum += len(batch)


class _PerPacketSimulator(NetworkSimulator):
    """The engine with one arrival event per packet-hop and one
    ``enqueue`` per injected packet."""

    def _server(self, link):
        key = (link.src, link.dst)
        server = self._servers.get(key)
        if server is None:
            server = _PerPacketServer(link, self)
            self._servers[key] = server
        return server

    def send(self, message, start_time=None):
        start = self.now if start_time is None else start_time
        if message.src == message.dst:
            self.schedule(start, partial(self._complete, message))
            return
        route = self.topology.route(message.src, message.dst)
        flow_id = next(self._flow_ids)
        sizes = packet_split(
            message.size_bytes, self.packet_bytes, self.params.packet_header_bytes
        )
        message.pending_packets = len(sizes)

        def inject():
            server = self._server(route[0])
            for seq, wire_bytes in enumerate(sizes):
                server.enqueue(
                    _Packet(
                        wire_bytes=wire_bytes,
                        flow_id=flow_id,
                        route=route,
                        hop_index=0,
                        message=message,
                        seq=seq,
                    )
                )

        self.schedule(start, inject)


TOPOLOGIES = {
    "ring": lambda: ring(5),
    "flattened_butterfly_2d": lambda: flattened_butterfly_2d(3, 3),
    "hybrid": lambda: hybrid(4, 2)[0],
}


def _observe(simulator_cls, topology_name, flows, plan, batch, cut):
    """Run ``(src, dst, size_bytes, start_s)`` flows, cut at ``cut``
    (if any) and resume; return everything a caller can observe."""
    topology = TOPOLOGIES[topology_name]()
    injector = FaultInjector(plan) if plan is not None else None
    sim = simulator_cls(topology, max_batch_packets=batch, faults=injector)
    done = []
    messages = []
    for index, (src, dst, size, start) in enumerate(flows):
        message = Message(
            src=src, dst=dst, size_bytes=size,
            on_complete=lambda _m, t, i=index: done.append((i, t)),
        )
        messages.append(message)
        sim.send(message, start_time=start)
    runs = []
    for until in ((cut, None) if cut is not None else (None,)):
        returned = sim.run(until=until)
        runs.append((returned, sim.now, sim.is_quiescent(), list(done)))
    observed = {
        "runs": runs,
        "completed_at": [m.completed_at for m in messages],
        "delivered": (sim.messages_delivered, sim.bytes_delivered),
        "links": sorted((l.src, l.dst, l.name, l.bytes_carried) for l in topology.links),
    }
    if injector is not None:
        observed["faults"] = (
            injector.packets_dropped, injector.retransmits, injector.packets_failed,
        )
    return observed, sim.events_processed


def _assert_equivalent(topology_name, flows, plan=None, batch=16, cut=None):
    fast, fast_events = _observe(NetworkSimulator, topology_name, flows, plan, batch, cut)
    ref, ref_events = _observe(_PerPacketSimulator, topology_name, flows, plan, batch, cut)
    assert fast == ref
    assert fast_events <= ref_events
    return fast, fast_events, ref_events


@st.composite
def _scenarios(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topology = TOPOLOGIES[name]()
    nodes = st.integers(0, topology.num_nodes - 1)
    flows = draw(st.lists(
        st.tuples(
            nodes, nodes,
            st.integers(1, 3_000),
            st.sampled_from([0.0, 0.0, 1e-8, 5e-8, 2e-7]),
        ),
        min_size=1, max_size=8,
    ))
    links = sorted((link.src, link.dst) for link in topology.links)
    link_faults = draw(st.lists(
        st.tuples(
            st.sampled_from(links),
            st.floats(0.0, 3e-7),
            st.one_of(st.just(math.inf), st.floats(1e-9, 3e-7)),
        ),
        max_size=3,
    ))
    losses = draw(st.lists(
        st.tuples(
            st.sampled_from([0.2, 0.6, 0.95]),
            st.one_of(st.none(), st.sampled_from(links)),
        ),
        max_size=2,
    ))
    plan = None
    if draw(st.booleans()):
        plan = FaultPlan(
            seed=draw(st.integers(0, 3)),
            link_faults=tuple(
                LinkFault(src=s, dst=d, fail_s=fail, repair_s=fail + length)
                for (s, d), fail, length in link_faults
            ),
            losses=tuple(
                PacketLoss(loss_prob=p, src=None if l is None else l[0],
                           dst=None if l is None else l[1])
                for p, l in losses
            ),
        )
    batch = draw(st.sampled_from([1, 4, 16]))
    cut = draw(st.one_of(st.none(), st.floats(0.0, 1e-6)))
    return name, flows, plan, batch, cut


class TestEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(_scenarios())
    def test_random_flows_match_per_packet_engine(self, scenario):
        _assert_equivalent(*scenario)

    def test_elision_fires(self):
        """Multi-hop multi-packet flows pop fewer events than the
        per-packet engine, with the same observations."""
        flows = [(0, 8, 2_000, 0.0), (2, 6, 1_500, 0.0), (4, 0, 900, 1e-8)]
        _, fast_events, ref_events = _assert_equivalent("flattened_butterfly_2d", flows)
        assert fast_events < ref_events

    def test_single_packet_messages_keep_every_event(self):
        """A one-packet message's final arrival is its completion, so
        nothing is elided."""
        flows = [(0, 2, 32, 0.0), (1, 3, 16, 0.0)]
        _, fast_events, ref_events = _assert_equivalent("ring", flows)
        assert fast_events == ref_events

    def test_lossy_plan_keeps_per_packet_arrivals(self):
        plan = FaultPlan(seed=1, losses=(PacketLoss(loss_prob=0.3),))
        flows = [(0, 2, 2_000, 0.0), (3, 1, 1_200, 5e-8)]
        _, fast_events, ref_events = _assert_equivalent("ring", flows, plan=plan)
        assert fast_events == ref_events

    def test_cut_just_before_completion_then_resume(self):
        """A ``run(until=)`` cut after every elided arrival but just
        before the completion: the clock stops at the cut, the simulator
        is not quiescent, and resuming finishes at the completion."""
        flows = [(0, 1, 1_000, 0.0)]
        ref, _ = _observe(_PerPacketSimulator, "ring", flows, None, 16, None)
        finish = ref["completed_at"][0]
        observed, _, _ = _assert_equivalent("ring", flows, cut=finish * (1 - 1e-9))
        (_, cut_now, cut_quiet, _), (_, end_now, end_quiet, _) = observed["runs"]
        assert not cut_quiet and cut_now < finish
        assert end_quiet and end_now == finish


class TestStrandedMessage:
    """A single-hop message whose link dies mid-message: the packets
    served before the failure arrive (their arrivals are elided), the
    rest strand in the queue, and the message never completes."""

    FLOWS = [(0, 1, 4_000, 0.0)]
    PLAN = FaultPlan(link_faults=(LinkFault(src=0, dst=1, fail_s=2e-8),))

    def test_clock_reaches_last_arrival(self):
        observed, _, _ = _assert_equivalent("ring", self.FLOWS, plan=self.PLAN)
        (returned, now, quiescent, done), = observed["runs"]
        assert observed["completed_at"] == [None] and done == []
        assert not quiescent  # stranded packets stay queued
        # The clock ran past the failure, to the last delivered arrival.
        assert returned == now > 2e-8

    def test_cut_between_last_event_and_last_arrival(self):
        """The heap drains before the cut, but the last elided arrival
        lies after it: the clock stops at the cut, and resuming moves
        it on to that arrival."""
        uncut, _ = _observe(_PerPacketSimulator, "ring", self.FLOWS, self.PLAN, 16, None)
        last_arrival = uncut["runs"][0][1]
        cut = last_arrival - ring(5).links[0].latency_s / 2
        observed, _, _ = _assert_equivalent("ring", self.FLOWS, plan=self.PLAN, cut=cut)
        (_, cut_now, _, _), (_, end_now, _, _) = observed["runs"]
        assert cut_now == cut and end_now == last_arrival


def test_bulk_injection_rejoins_round_robin_at_the_back():
    """Two messages injected together onto one idle link: the first
    starts a one-packet burst, its remaining packets rejoin the
    round-robin order ahead of the second message, and the two then
    alternate packet by packet."""
    flows = [(0, 1, 640, 0.0), (0, 1, 640, 0.0)]
    observed, _, _ = _assert_equivalent("ring", flows, batch=1)
    first, second = observed["completed_at"]
    assert first < second


def test_queue_of_a_stranded_first_packet_is_extended():
    """Injection onto a dead link: the first packet strands in a fresh
    queue, and the rest of the message joins that queue in order."""
    plan = FaultPlan(link_faults=(LinkFault(src=0, dst=1, fail_s=0.0),))
    sim = NetworkSimulator(ring(4), faults=FaultInjector(plan))
    sim.send(Message(src=0, dst=1, size_bytes=640))
    sim.run()
    (queue,) = sim._servers[(0, 1)].queues.values()
    assert [p.seq for p in queue] == list(range(10))


def test_tile_replay_event_budget(monkeypatch):
    """Deterministic counter gate: Late-2's fprop tile transfer at batch
    1 on ``hybrid(16, 1)`` (240 messages) replays to a pinned finish
    time and packet count within an event budget.  The per-packet engine
    pops 48,672 events here; an engine change that brings per-packet
    final-hop events back fails this whatever the wall time does."""
    sims = []
    run = NetworkSimulator.run

    def recorded_run(sim, *args, **kwargs):
        sims.append(sim)
        return run(sim, *args, **kwargs)

    monkeypatch.setattr(NetworkSimulator, "run", recorded_run)
    layer = {spec.name: spec for spec in five_layers()}["Late-2"]
    topology, layout = hybrid(16, 1)
    trace = build_tile_transfer_trace(layer, 1, w_mp(), GridConfig(16, 1), layout, "fprop")
    reset_profile()
    profiling_enabled()
    try:
        replay = replay_on_machine(trace, topology)
        counters = snapshot_profile()["counters"]
    finally:
        profiling_disabled()
        reset_profile()
    assert replay.messages == 240
    assert replay.finish_time_s == 1.8807999999999893e-06
    assert counters["netsim.packets_served"] == 24_576
    (sim,) = sims
    assert sim.events_processed <= 33_552
