"""Closed-form collective shortcuts over the packet engine —
bit-identical by construction.

This module lifts the link server's uncontended batch
(``engine._LinkServer._serve_next``) from one link to a whole
collective: a symmetric ring all-reduce (:func:`ring_allreduce_shortcut`)
or a fully-connected all-to-all (:func:`all_to_all_shortcut`) on an idle
simulator is priced without creating a single packet, including
per-link wire-byte accounting that matches the COST004 closed forms
(``2*(N-1)*MB`` ring wire bytes, ``N*(N-1)*BPP`` all-to-all wire bytes).

The equivalence contract — the reason these are *fast paths* and not
*approximations* — is that every produced timestamp is the bit-exact
IEEE-754 value the packet engine would compute.  The engine's
arithmetic is a left-to-right fold: a link serialising packet ``i``
computes ``done = fl(done + wire_i/rate)`` and delivers at
``fl(done + latency)``.  The kernels below replay exactly that fold —
they never algebraically simplify ``k`` additions of ``s/r`` into
``k*s/r``, which would differ in the last ulp.

Fallback is always safe and always total: every precondition failure
returns ``None`` and the caller runs the packet engine.  The
preconditions are:

* the fast path is enabled (``REPRO_NETSIM_REFERENCE=1`` disables it);
* the simulator is quiescent (no pending events, no busy or queued
  link server) so nothing can contend with the collective;
* any attached fault injector classifies every involved link as
  ``"clean"`` over the whole horizon (ring shortcuts also accept
  ``"dead"`` links — stranding is deterministic); the default
  :meth:`FaultHooks.link_state`, or any finite fault window or
  packet-loss rule touching the horizon, disables the fast path
  (``"dirty"``);
* a collective deadline would not truncate the work mid-flight.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..perf import counter_add, effect_free
from ..perf.profiler import phase

#: Tolerance the engine's ``schedule`` applies to "in the past" checks;
#: start times earlier than ``now`` by more than this are engine errors
#: and must take the reference path (which raises).
_PAST_SLACK = 1e-15


# Vouched effect-free: the environment flag selects *how* results are
# computed, never *what* they are (the bit-identity contract above), so
# memoized kernels that construct simulators stay statically pure
# (EFF001) — the same argument as the profiler's phase/counter vouch.
@effect_free
def fastpath_enabled() -> bool:
    """Whether the netsim fast paths are on (the default).

    ``REPRO_NETSIM_REFERENCE=1`` forces the reference per-packet engine
    everywhere — the switch CI uses to assert digest parity.
    """
    return os.environ.get("REPRO_NETSIM_REFERENCE", "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


def packet_split(size_bytes: int, payload_bytes: int, header_bytes: int) -> List[int]:
    """Wire sizes of a message's packets: full packets plus an optional
    tail, each carrying the fixed header (the engine's ``send`` split)."""
    full_packets, tail = divmod(size_bytes, payload_bytes)
    sizes = [payload_bytes + header_bytes] * full_packets
    if tail:
        sizes.append(tail + header_bytes)
    return sizes


def _serialise_step(start: float, sizes: Sequence[int], rate: float) -> float:
    """Serialisation-finish time of a back-to-back packet run that
    begins at ``start`` on an idle link (the engine's per-batch fold)."""
    done = start
    for wire in sizes:
        done = done + wire / rate
    return done


def ring_allreduce_shortcut(
    sim,
    nodes: Sequence[int],
    slice_sizes: Sequence[int],
    start_time: float,
    deadline_s: Optional[float],
) -> Optional[Dict[str, object]]:
    """Closed-form schedule of a pipelined ring all-reduce, or ``None``.

    The ring all-reduce runs ``n`` independent slice chains; chain ``i``
    forwards its slice ``2*(n-1)`` times, using ring link ``(i+k) mod n``
    at step ``k``.  When every consecutive node pair is one hop apart
    and each chain's serialisation windows never overlap another chain's
    on any link (guaranteed for equal slices on uniform links, verified
    explicitly otherwise), no arbitration ever happens and each chain's
    trajectory is the plain store-and-forward fold — which this kernel
    replays without touching the event queue.

    Permanently-dead links (state ``"dead"``) are allowed: a chain
    reaching one strands deterministically, exactly as its queued
    packets would (the watchdog-detection signal the resilience layer
    consumes).  Any ``"dirty"`` link falls back to the reference
    engine.

    Returns ``None`` to fall back, else a dict with the
    :class:`~repro.netsim.collectives.CollectiveResult` fields; the
    simulator state (clock, per-link wire bytes, delivery counters) is
    committed before returning.
    """
    if not sim.fastpath or not sim.is_quiescent():
        return None
    n = len(nodes)
    if n < 2 or len(set(nodes)) != n:
        return None
    if start_time < sim.now - _PAST_SLACK:
        return None  # reference path raises the "past" error
    with phase("netsim"):
        return _ring_shortcut_locked(sim, nodes, slice_sizes, start_time, deadline_s)


def _ring_shortcut_locked(
    sim, nodes, slice_sizes, start_time, deadline_s
) -> Optional[Dict[str, object]]:
    n = len(nodes)
    try:
        links = []
        for i in range(n):
            route = sim.topology.route(nodes[i], nodes[(i + 1) % n])
            if len(route) != 1:
                return None
            links.append(route[0])
    except Exception:
        return None  # unreachable pair: the reference path raises it
    payload = sim.packet_bytes
    header = sim.params.packet_header_bytes
    splits = {b: packet_split(b, payload, header) for b in sorted(set(slice_sizes)) if b}
    if not splits:
        return None  # all-zero slices: reference path is already trivial
    rates = [link.bytes_per_s for link in links]
    lats = [link.latency_s for link in links]
    steps = 2 * (n - 1)
    uniform = len(set(rates)) == 1 and len(set(lats)) == 1
    equal = len(set(slice_sizes)) == 1

    # ---- clean-run trajectories (faults, if any, only remove suffixes)
    if equal and uniform:
        # All chains share one trajectory and use disjoint links at every
        # step, so windows can never overlap — one fold covers the ring.
        sizes = splits[slice_sizes[0]]
        rate, lat = rates[0], lats[0]
        traj: List[float] = []
        t = start_time
        for _ in range(steps):
            t = _serialise_step(t, sizes, rate) + lat
            traj.append(t)
        trajectories: List[Optional[List[float]]] = [traj] * n
    else:
        # Ragged slices / non-uniform links: fold every chain, recording
        # each serialisation window, then verify no link ever serves two
        # chains at once (back-to-back with equal boundaries is fine —
        # the engine's restart value at an exact handoff is the same
        # accumulated float either way).
        trajectories = []
        windows: List[List[Tuple[float, float]]] = [[] for _ in range(n)]
        for i in range(n):
            b = slice_sizes[i]
            if not b:
                trajectories.append(None)
                continue
            sizes = splits[b]
            t = start_time
            traj = []
            for k in range(steps):
                li = (i + k) % n
                done = _serialise_step(t, sizes, rates[li])
                windows[li].append((t, done))
                t = done + lats[li]
                traj.append(t)
            trajectories.append(traj)
        for wins in windows:
            wins.sort()
            for (_s0, e0), (s1, _e1) in zip(wins, wins[1:]):
                if s1 < e0:
                    return None  # genuine contention: reference engine
    finish_bound = max(
        traj[-1] for traj in trajectories if traj is not None
    )

    # ---- fault gate over the whole horizon --------------------------------
    faults = sim.faults
    dead = [False] * n
    if faults is not None:
        for li, link in enumerate(links):
            state = faults.link_state(link, start_time, finish_bound)
            if state == "dead":
                dead[li] = True
            elif state != "clean":
                return None

    # ---- per-chain completed steps (strand at the first dead link) --------
    strand = [steps] * n
    if any(dead):
        for i in range(n):
            if trajectories[i] is None:
                continue
            for k in range(steps):
                if dead[(i + k) % n]:
                    strand[i] = k
                    break

    # ---- deadline gate ----------------------------------------------------
    # ``last_delivery`` is the engine clock after the run (time of the
    # final delivery event); ``finish`` is what the collective reports —
    # the reference collector only advances it when a chain completes
    # *all* steps, so a fully-stranded run reports ``start_time``.
    last_delivery = start_time
    finish = start_time
    for i in range(n):
        traj = trajectories[i]
        if traj is None or not strand[i]:
            continue
        last = traj[strand[i] - 1]
        if last > last_delivery:
            last_delivery = last
        if strand[i] == steps and last > finish:
            finish = last
    if deadline_s is not None and last_delivery > deadline_s:
        return None  # would be cut off mid-flight: reference semantics

    # ---- commit -----------------------------------------------------------
    chains_expected = 0
    messages = 0
    payload_bytes = 0
    packets_served = 0
    for i in range(n):
        b = slice_sizes[i]
        if trajectories[i] is None:
            continue
        chains_expected += 1
        done_steps = strand[i]
        messages += done_steps
        payload_bytes += done_steps * b
        wire = sum(splits[b])
        packets = len(splits[b])
        packets_served += done_steps * packets
        if any(dead) or not (equal and uniform):
            for k in range(done_steps):
                links[(i + k) % n].bytes_carried += wire
    if equal and uniform and not any(dead):
        wire = sum(splits[slice_sizes[0]])
        for link in links:
            link.bytes_carried += steps * wire
    completed = all(
        strand[i] == steps for i in range(n) if trajectories[i] is not None
    )
    if last_delivery > sim.now:
        sim.now = last_delivery
    sim.messages_delivered += messages
    sim.bytes_delivered += payload_bytes
    counter_add("netsim.packets_served", packets_served)
    counter_add("netsim.collectives_coalesced", 1)
    return {
        "finish": finish,
        "messages": messages,
        "bytes": float(payload_bytes),
        "completed": completed,
    }


def all_to_all_shortcut(
    sim,
    nodes: Sequence[int],
    pair_bytes: int,
    start_time: float,
    deadline_s: Optional[float],
) -> Optional[Dict[str, object]]:
    """Closed-form schedule of a fully-connected all-to-all, or ``None``.

    Applies when every ordered pair of ``nodes`` is one (uniform) hop
    apart: each of the ``n*(n-1)`` messages then owns its link outright,
    so all of them serialise in parallel and finish at the same fold —
    the paper's "four fully connected workers constitute a cluster"
    case.  Multi-hop FBFLY grids (where dimension-order routes share
    links) fall back to the reference engine.
    """
    if not sim.fastpath or not sim.is_quiescent():
        return None
    n = len(nodes)
    if n < 2 or len(set(nodes)) != n or pair_bytes <= 0:
        return None
    if start_time < sim.now - _PAST_SLACK:
        return None
    with phase("netsim"):
        try:
            links = []
            for src in nodes:
                for dst in nodes:
                    if src == dst:
                        continue
                    route = sim.topology.route(src, dst)
                    if len(route) != 1:
                        return None
                    links.append(route[0])
        except Exception:
            return None
        if len(set(link.bytes_per_s for link in links)) != 1:
            return None
        if len(set(link.latency_s for link in links)) != 1:
            return None
        rate = links[0].bytes_per_s
        lat = links[0].latency_s
        sizes = packet_split(
            pair_bytes, sim.packet_bytes, sim.params.packet_header_bytes
        )
        finish = _serialise_step(start_time, sizes, rate) + lat
        if deadline_s is not None and finish > deadline_s:
            return None
        faults = sim.faults
        if faults is not None:
            for link in links:
                if faults.link_state(link, start_time, finish) != "clean":
                    return None
        wire = sum(sizes)
        for link in links:
            link.bytes_carried += wire
        count = n * (n - 1)
        if finish > sim.now:
            sim.now = finish
        sim.messages_delivered += count
        sim.bytes_delivered += count * pair_bytes
        counter_add("netsim.packets_served", count * len(sizes))
        counter_add("netsim.collectives_coalesced", 1)
        return {
            "finish": finish,
            "messages": count,
            "bytes": float(count * pair_bytes),
            "completed": True,
        }
