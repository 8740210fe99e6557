"""Event-driven network simulation kernel.

Packets traverse their minimal route hop by hop.  Each unidirectional link
serialises one packet at a time at its byte rate and arbitrates among
competing *flows* (messages) round-robin — emulating the fair virtual-
channel arbitration of a wormhole router — so concurrent messages
interleave at packet granularity instead of queueing whole messages.
Messages are split into packets with a fixed header overhead, and
completion callbacks let higher layers express dependencies (as the
paper's update-counter task model does).

Only observable work becomes an event.  A packet served on its final hop
where no loss is possible arrives for certain, and its arrival would
only count it off its message; so the engine counts it off when it is
served and schedules one completion event, for the packet that brings
the message to zero — the last to arrive, since a flow's packets leave a
link in FIFO order over one route.  ``run`` advances the clock to the
latest such skipped arrival once the queue drains.  A multi-packet
message joins its first link's queue in one ``extend`` after its first
packet.  Completion times, the clock and every counter match an engine
with one arrival event per packet-hop
(``tests/netsim/test_engine_elision.py``).

An optional fault injector (:mod:`repro.faults`) can be attached at
construction: links then honour availability windows (failures delay or
permanently strand queued packets) and packets can be dropped on a hop,
triggering sender-side retransmission with exponential backoff.  With no
injector attached every branch below short-circuits on ``faults is
None``, so fault support is zero-cost — and bit-identical — for the
existing simulations.

This is the Booksim substitute described in DESIGN.md: it models the
quantities the evaluation depends on — serialisation bandwidth, hop
latency, link contention and arbitration — at packet granularity, which
keeps Python runtimes tractable while matching the steady-state bandwidth
behaviour of a wormhole network.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..params import DEFAULT_PARAMS, HardwareParams
from ..perf import counter_add, phase
from .fastpath import fastpath_enabled, packet_split
from .topology import Link, Topology

Callback = Callable[["Message", float], None]


@dataclass(slots=True)
class Message:
    """An application-level transfer of ``size_bytes`` from src to dst."""

    src: int
    dst: int
    size_bytes: int
    tag: str = ""
    on_complete: Optional[Callback] = None
    completed_at: Optional[float] = None
    #: Packets still in flight (engine bookkeeping; replaces the
    #: per-message completion closure).
    pending_packets: int = field(default=0, init=False, repr=False)


@dataclass(slots=True)
class _Packet:
    wire_bytes: int
    flow_id: int
    route: List[Link]
    hop_index: int
    message: Message
    #: Position of this packet within its message (stable across
    #: retransmissions; keys the injector's per-packet loss decision).
    seq: int = 0
    #: Transmission attempts of the *current* hop so far.
    attempt: int = 0


# Queue entries are plain ``(time, seq, action)`` tuples: ``heapq``
# then orders with C-level tuple comparison (``seq`` breaks time ties,
# so the ``action`` callables are never compared), which profiles
# measurably faster than a dataclass ``__lt__`` at netsim event volumes.
_Event = Tuple[float, int, Callable[[], None]]


class _LinkServer:
    """Round-robin flow arbitration and serialisation for one link."""

    def __init__(self, link: Link, sim: "NetworkSimulator") -> None:
        self.link = link
        self.sim = sim
        self.queues: "OrderedDict[int, Deque[_Packet]]" = OrderedDict()
        self.busy = False

    def enqueue(self, packet: _Packet) -> None:
        queue = self.queues.get(packet.flow_id)
        if queue is None:
            queue = deque()
            self.queues[packet.flow_id] = queue
        queue.append(packet)
        if not self.busy:
            self._serve_next()

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
                    # Permanently dead link: queued packets are stranded.
                    # The event queue drains around them, so ``run()``
                    # returns with their messages incomplete — that is
                    # how higher layers detect the failure.
                    self.busy = False
                    return
                self.busy = True
                sim.schedule(available_at, self._serve_next)
                return
        # Round-robin: pop the front flow, rotate it to the back (or
        # drop it) after serving.
        flow_id, queue = self.queues.popitem(last=False)
        # Uncontended batching: with a single flow queued there is no
        # arbitration to perform, so a run of back-to-back packets is
        # serialised under one completion event instead of one per
        # packet; under contention the batch is one packet.  The burst
        # is committed when it starts, so timestamps match
        # ``max_batch_packets=1`` only if every competing flow is already
        # queued by then: a mid-burst arrival waits for the whole burst,
        # and fault windows, losses and ``bytes_carried`` see the burst's
        # schedule (``tests/netsim/test_engine_batching.py``).
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
        arrived = sim._packet_arrived
        rate = link.bytes_per_s
        latency = link.latency_s
        done_time = sim.now
        # Inline the ``schedule`` heap push: ``done_time`` only ever
        # advances from ``sim.now``, so the cannot-schedule-in-the-past
        # check is vacuous here, and drawing seq numbers in the same
        # order keeps the event ordering unchanged.
        events = sim._events
        push = heapq.heappush
        seq = sim._seq
        if faults is None or not faults.may_drop:
            head = batch[0]
            final = head.hop_index + 1 == len(head.route)
            for packet in batch:
                wire = packet.wire_bytes
                done_time += wire / rate
                link.bytes_carried += wire
                if not final:
                    push(events, (done_time + latency, next(seq), partial(arrived, packet)))
            if final:
                # No loss is possible, so every packet here arrives, and
                # nothing observes an arrival except the one that
                # completes the message.  The flow's packets leave this
                # link in FIFO order over one route, so the packet that
                # empties ``pending_packets`` arrives last; only its
                # completion becomes an event.  ``run`` still advances
                # ``now`` to the latest skipped arrival.
                message = head.message
                message.pending_packets -= len(batch)
                arrival = done_time + latency
                if message.pending_packets == 0:
                    push(events, (arrival, next(seq), partial(sim._complete, message)))
                elif arrival > sim._skipped_until:
                    sim._skipped_until = arrival
        else:
            for packet in batch:
                wire = packet.wire_bytes
                done_time += wire / rate
                link.bytes_carried += wire
                if faults.drop_packet(link, packet, done_time):
                    self._handle_drop(packet, done_time, faults)
                else:
                    push(events, (done_time + latency, next(seq), partial(arrived, packet)))
        push(events, (done_time, next(seq), self._serve_next))
        sim._packets_served_accum += len(batch)

    def _handle_drop(self, packet: _Packet, done_time: float, faults) -> None:
        """Sender-side recovery for a packet lost on this hop: retransmit
        after a timeout with exponential backoff, up to the injector's
        retry budget (exhaustion strands the message, like a dead link)."""
        packet.attempt += 1
        if packet.attempt > faults.max_retransmits:
            faults.packets_failed += 1
            return
        faults.retransmits += 1
        delay = faults.retransmit_timeout_s * (
            faults.backoff_factor ** (packet.attempt - 1)
        )
        self.sim.schedule(done_time + delay, partial(self.enqueue, packet))


class FaultHooks:
    """Interface the engine expects from a fault injector.

    :mod:`repro.faults` provides the real implementation; the engine only
    depends on this duck-typed surface so netsim never imports the faults
    package (no import cycle, and importing ``repro.faults`` cannot
    change engine behaviour).
    """

    #: Sender-side retransmission policy for dropped packets.
    retransmit_timeout_s: float = 1e-6
    backoff_factor: float = 2.0
    max_retransmits: int = 10
    #: Counters the engine bumps (reported by the scenario runner).
    retransmits: int = 0
    packets_failed: int = 0
    #: Static capability flags: whether ``drop_packet`` can ever answer
    #: True, and whether ``link_available_at`` can ever exceed ``now``.
    #: The engine skips the corresponding per-packet/per-serve hook call
    #: when a flag is False; the conservative defaults keep both calls
    #: for injectors that do not opt in.
    may_drop: bool = True
    may_block: bool = True

    def bind(self, topology: Topology) -> None:
        """Compile the plan against a concrete topology (worker faults
        expand to the links touching the worker)."""
        raise NotImplementedError

    def link_available_at(self, link: Link, now: float) -> float:
        """Earliest time >= ``now`` the link can serialise a packet
        (``inf`` = dead forever)."""
        raise NotImplementedError

    def drop_packet(self, link: Link, packet: "_Packet", time: float) -> bool:
        """Whether this transmission of ``packet`` is lost on ``link``."""
        raise NotImplementedError

    def link_state(self, link: Link, t0: float, t1: float) -> str:
        """Classify ``link`` over the horizon ``[t0, t1]`` for the fast
        paths: ``"clean"`` (behaves exactly as with no injector —
        always available, never drops), ``"dead"`` (unavailable for the
        whole horizon, i.e. a permanent failure no later than ``t0``)
        or ``"dirty"`` (anything time-dependent).  The conservative
        default keeps the collective shortcuts off for injectors that do
        not opt in — an unknown hook can observe per-packet traffic the
        closed-form schedule never generates.
        """
        return "dirty"


class NetworkSimulator:
    """Event-driven simulator over a :class:`Topology`."""

    def __init__(
        self,
        topology: Topology,
        params: HardwareParams = DEFAULT_PARAMS,
        packet_bytes: Optional[int] = None,
        max_batch_packets: int = 16,
        faults: Optional["FaultHooks"] = None,
        fastpath: Optional[bool] = None,
    ) -> None:
        if max_batch_packets < 1:
            raise ValueError(f"max_batch_packets must be >= 1, got {max_batch_packets}")
        self.topology = topology
        self.params = params
        self.packet_bytes = packet_bytes or params.data_packet_bytes
        #: Upper bound on packets serialised per uncontended link event;
        #: 1 is the strict one-event-per-packet engine.  Larger limits
        #: give the same timestamps only while no flow arrives mid-burst
        #: and no fault window, loss or ``run(until=)`` cut lands inside
        #: one (see ``_LinkServer._serve_next``).
        self.max_batch_packets = max_batch_packets
        #: Optional fault injector (duck-typed: see :class:`FaultHooks`).
        #: ``None`` keeps every fault branch off the hot path.
        self.faults = faults
        #: Whether the bit-identical collective shortcuts of
        #: :mod:`repro.netsim.fastpath` may fire; ``None`` reads
        #: ``REPRO_NETSIM_REFERENCE``.
        self.fastpath = fastpath_enabled() if fastpath is None else bool(fastpath)
        if faults is not None:
            faults.bind(topology)
        self.now = 0.0
        #: The event queue: a ``heapq`` list of ``_Event`` tuples.
        self._events: List[_Event] = []
        #: Wire-size splits by message size (splits repeat massively in
        #: collectives; the lists are shared and read-only).
        self._split_cache: Dict[int, List[int]] = {}
        self._seq = itertools.count()
        self._flow_ids = itertools.count()
        self._servers: Dict[Tuple[int, int], _LinkServer] = {}
        self.messages_delivered = 0
        self.bytes_delivered = 0
        #: Engine events popped so far — the quantity packet batching
        #: exists to reduce (see ``_LinkServer._serve_next``).
        self.events_processed = 0
        #: Deferred ``netsim.packets_served`` counter delta (published
        #: once per ``run`` by ``_flush_counters``).
        self._packets_served_accum = 0
        #: Latest arrival time of a final-hop packet that got no event
        #: (see ``_LinkServer._serve_next``); ``run`` advances ``now`` to
        #: it once the heap drains.
        self._skipped_until = 0.0

    # ---- event machinery ---------------------------------------------------
    def schedule(self, time: float, action: Callable[[], None]) -> None:
        if time < self.now - 1e-15:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        heapq.heappush(self._events, (time, next(self._seq), action))

    def is_quiescent(self) -> bool:
        """No pending events and every link server idle and empty — the
        precondition under which a collective shortcut cannot contend
        with (or be observed by) anything else in flight.  A final-hop
        arrival that got no event needs no check of its own: until its
        message completes, the message still has a queued packet or its
        completion event pending."""
        if self._events:
            return False
        for server in self._servers.values():
            if server.busy or server.queues:
                return False
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue; returns the final simulated time.

        Once the queue is empty, ``now`` also covers the final-hop
        arrivals that got no event (``_skipped_until``), capped at
        ``until``: the clock and the return value are those of an engine
        that pops one event per arrival."""
        with phase("netsim"):
            processed = 0
            try:
                events = self._events
                pop = heapq.heappop
                while events:
                    event = pop(events)
                    time = event[0]
                    if until is not None and time > until:
                        heapq.heappush(events, event)
                        self.now = until
                        return self.now
                    self.now = time
                    processed += 1
                    event[2]()
            finally:
                self.events_processed += processed
                self._flush_counters()
        skipped = self._skipped_until
        if skipped > self.now:
            self.now = skipped if until is None or skipped <= until else until
        return self.now

    def _flush_counters(self) -> None:
        """Publish per-run profiler counter accumulations (kept in plain
        attributes during the event loop; ``counter_add`` per serve is
        measurable at battery volumes)."""
        if self._packets_served_accum:
            counter_add("netsim.packets_served", self._packets_served_accum)
            self._packets_served_accum = 0

    def _server(self, link: Link) -> _LinkServer:
        key = (link.src, link.dst)
        server = self._servers.get(key)
        if server is None:
            server = _LinkServer(link, self)
            self._servers[key] = server
        return server

    # ---- transfers -----------------------------------------------------------
    def send(self, message: Message, start_time: Optional[float] = None) -> None:
        """Inject a message; its packets interleave fairly with other
        flows at every link."""
        start = self.now if start_time is None else start_time
        if message.size_bytes <= 0:
            raise ValueError(f"message size must be positive, got {message.size_bytes}")
        if message.src == message.dst:
            # Local: completes immediately (DRAM time is modelled elsewhere).
            self.schedule(start, partial(self._complete, message))
            return
        route = self.topology.route(message.src, message.dst)
        flow_id = next(self._flow_ids)
        # Pre-split into wire sizes: full packets plus an optional tail.
        sizes = self._split_cache.get(message.size_bytes)
        if sizes is None:
            sizes = packet_split(
                message.size_bytes, self.packet_bytes, self.params.packet_header_bytes
            )
            self._split_cache[message.size_bytes] = sizes
        message.pending_packets = len(sizes)
        servers = self._servers

        def inject() -> None:
            link = route[0]
            server = servers.get((link.src, link.dst))
            if server is None:
                server = self._server(link)
            if len(sizes) == 1:
                # Fused single-packet enqueue: the flow id is fresh, so
                # no queue can exist for it yet.
                server.queues[flow_id] = deque(
                    (
                        _Packet(
                            wire_bytes=sizes[0],
                            flow_id=flow_id,
                            route=route,
                            hop_index=0,
                            message=message,
                        ),
                    )
                )
                if not server.busy:
                    server._serve_next()
                return
            packets = [
                _Packet(
                    wire_bytes=wire_bytes,
                    flow_id=flow_id,
                    route=route,
                    hop_index=0,
                    message=message,
                    seq=seq,
                )
                for seq, wire_bytes in enumerate(sizes)
            ]
            # The first packet may start a one-packet burst on an idle
            # link; the rest only join the flow's queue, so they go in
            # with one ``extend`` instead of one ``enqueue`` each.  A
            # burst that emptied the queue dropped the flow, which then
            # rejoins at the back of the round-robin order.
            server.enqueue(packets[0])
            queue = server.queues.get(flow_id)
            if queue is None:
                server.queues[flow_id] = deque(packets[1:])
            else:
                queue.extend(packets[1:])

        self.schedule(start, inject)

    def _packet_arrived(self, packet: _Packet) -> None:
        packet.hop_index += 1
        packet.attempt = 0
        if packet.hop_index == len(packet.route):
            message = packet.message
            message.pending_packets -= 1
            if message.pending_packets == 0:
                self._complete(message)
        else:
            self._server(packet.route[packet.hop_index]).enqueue(packet)

    def _complete(self, message: Message) -> None:
        message.completed_at = self.now
        self.messages_delivered += 1
        self.bytes_delivered += message.size_bytes
        if message.on_complete:
            message.on_complete(message, self.now)

    def reset(self) -> None:
        self.topology.reset()
        self._events.clear()
        self._servers.clear()
        self.now = 0.0
        # Restart the tie-break and flow counters too, so a reset
        # simulator replays a workload with bit-identical event ordering
        # (the sequence numbers feed both heap tie-breaks and, under
        # faults, the per-packet loss decisions).
        self._seq = itertools.count()
        self._flow_ids = itertools.count()
        self.messages_delivered = 0
        self.bytes_delivered = 0
        self.events_processed = 0
        self._packets_served_accum = 0
        self._skipped_until = 0.0
