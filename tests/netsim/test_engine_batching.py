"""Event batching: where it is exact and where it is not.

The link server serialises back-to-back packets of an uncontended flow
under one scheduling batch (up to ``max_batch_packets``); with
``max_batch_packets=1`` it is the strict one-event-per-packet engine.
Batching is exact — delivered timestamps *identical*, not just close,
across batch limits — when every flow that will compete for a link is
already queued there when a burst starts: single flows, flows contending
from t=0 on one hop, and the collectives.  The first classes pin that
regime.

The burst is committed when it starts, so batching is *not* exact
otherwise.  ``TestBatchingDivergence`` characterises the known cases
(mid-burst arrivals, finite fault windows, packet loss, a
``run(until=)`` cut) so any change to them is deliberate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFault, PacketLoss
from repro.netsim import (
    Message,
    NetworkSimulator,
    all_to_all,
    flattened_butterfly_2d,
    ring,
    ring_allreduce,
)
from repro.params import DEFAULT_PARAMS


def _sim(batch, nodes=8):
    return NetworkSimulator(
        ring(nodes),
        DEFAULT_PARAMS,
        packet_bytes=DEFAULT_PARAMS.collective_packet_bytes,
        max_batch_packets=batch,
    )


def _run_flows(flows, batch, nodes=6, faults=None, until=None):
    """Send ``(src, dst, size_bytes, start_s)`` flows on a fresh ring
    and observe completions (in completion order), the clock and the
    per-link wire bytes."""
    topology = ring(nodes)
    sim = NetworkSimulator(topology, max_batch_packets=batch, faults=faults)
    done = []
    for index, (src, dst, size, start) in enumerate(flows):
        sim.send(
            Message(src=src, dst=dst, size_bytes=size,
                    on_complete=lambda _m, t, i=index: done.append((i, t))),
            start_time=start,
        )
    sim.run(until=until)
    links = sorted((link.src, link.dst, link.bytes_carried) for link in topology.links)
    return {"done": done, "now": sim.now, "links": links}


class TestBatchLimitInvariance:
    def test_invalid_batch_limit_rejected(self):
        with pytest.raises(ValueError):
            _sim(0)

    @pytest.mark.parametrize("batch", [1, 2, 16, 1000])
    def test_single_flow_timestamps_identical(self, batch):
        strict = _sim(1)
        msg_strict = Message(src=0, dst=2, size_bytes=10_000)
        strict.send(msg_strict)
        strict.run()

        batched = _sim(batch)
        msg = Message(src=0, dst=2, size_bytes=10_000)
        batched.send(msg)
        batched.run()
        # Bit-identical, not approx: batching only coalesces scheduling,
        # the per-packet serialisation arithmetic is unchanged.
        assert msg.completed_at == msg_strict.completed_at

    @pytest.mark.parametrize("batch", [2, 16])
    def test_contended_link_timestamps_identical(self, batch):
        def run(limit):
            sim = _sim(limit)
            msgs = [
                Message(src=0, dst=1, size_bytes=5_000),
                Message(src=7, dst=1, size_bytes=5_000),  # rides 7->0->1
                Message(src=0, dst=1, size_bytes=3_000),
            ]
            for m in msgs:
                sim.send(m)
            sim.run()
            return [m.completed_at for m in msgs]

        assert run(batch) == run(1)

    def test_ring_allreduce_identical(self):
        def finish(limit):
            sim = NetworkSimulator(
                ring(8),
                DEFAULT_PARAMS,
                packet_bytes=DEFAULT_PARAMS.collective_packet_bytes,
                max_batch_packets=limit,
                fastpath=False,  # price it on the engine, not in closed form
            )
            return ring_allreduce(sim, list(range(8)), 100_000).finish_time_s

        assert finish(16) == finish(1)

    def test_all_to_all_identical(self):
        def finish(limit):
            sim = NetworkSimulator(
                flattened_butterfly_2d(4, 4),
                DEFAULT_PARAMS,
                max_batch_packets=limit,
                fastpath=False,  # price it on the engine, not in closed form
            )
            return all_to_all(sim, list(range(16)), 2_000).finish_time_s

        assert finish(16) == finish(1)

    def test_batching_reduces_events(self):
        """The optimisation actually fires: fewer engine events with a
        higher batch limit on an uncontended bulk flow."""
        counts = {}
        for limit in (1, 16):
            sim = _sim(limit)
            sim.send(Message(src=0, dst=1, size_bytes=100_000))
            sim.run()
            counts[limit] = sim.events_processed
        assert counts[16] < counts[1]


class TestExactRegimeProperty:
    """Flows that all start at t=0 and each cross one hop are queued on
    their only link before any burst there can start, so no arrival is
    ever mid-burst.  (Multi-hop flows are not in the regime: a flow's
    later hops see it arrive mid-burst —
    ``TestBatchingDivergence.test_multi_hop_flow_from_t0_waits_for_burst``.)
    """

    @settings(max_examples=40, deadline=None)
    @given(
        flows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.sampled_from([1, -1]),
                st.integers(min_value=1, max_value=20_000),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_one_hop_flows_from_t0_identical(self, flows):
        flows = [(src, (src + step) % 6, size, 0.0) for src, step, size in flows]
        assert _run_flows(flows, 16) == _run_flows(flows, 1)


class TestBatchingDivergence:
    """Characterisation: batched (16) versus strict per-packet (1)
    serving differ in these cases.  The figures are the engine's current
    output; a change to any of them changes the benchmark digests."""

    def test_flow_arriving_mid_burst_waits_for_burst(self):
        """The 1-byte flow arrives while the 2817-byte flow's burst is
        on the link: batched, it waits for the whole burst; per packet,
        it is served next.  The completion order flips."""
        flows = [(0, 1, 2817, 3.3742e-6), (0, 1, 1, 3.4753e-6)]
        batched = _run_flows(flows, 16)["done"]
        strict = _run_flows(flows, 1)["done"]
        assert [i for i, _ in batched] == [0, 1]
        assert [i for i, _ in strict] == [1, 0]
        assert batched == [(0, 3.4881000000000077e-06), (1, 3.4884000000000075e-06)]
        assert strict == [(1, 3.4881000000000077e-06), (0, 3.4884000000000075e-06)]

    def test_multi_hop_flow_from_t0_waits_for_burst(self):
        """Both flows start at t=0, but the 0->2 packet reaches link
        1->2 while the 1->2 flow's burst holds it."""
        flows = [(0, 2, 1, 0.0), (1, 2, 500, 0.0)]
        batched = dict(_run_flows(flows, 16)["done"])
        strict = dict(_run_flows(flows, 1)["done"])
        assert batched[0] == 2.7099999999999998e-08
        assert strict[0] == 2.03e-08
        assert batched[0] > strict[0]

    def test_burst_rides_through_finite_fault_window(self):
        """Link availability is checked once per burst: a burst that
        starts before a repairable outage keeps serialising through it,
        so the batched flow finishes earlier."""

        def finish(batch):
            plan = FaultPlan(
                link_faults=(LinkFault(src=0, dst=1, fail_s=10e-9, repair_s=50e-9),)
            )
            return _run_flows([(0, 1, 4096, 0.0)], batch, faults=FaultInjector(plan))

        batched, strict = finish(16), finish(1)
        assert batched["done"] == [(0, 1.7079999999999978e-07)]
        assert strict["done"] == [(0, 1.9959999999999972e-07)]
        assert batched["links"] == strict["links"]

    def test_packet_loss_counts_differ(self):
        """Under loss, retransmits re-enter the link at batch-dependent
        times, so the ring's later messages draw different flow ids and
        loss decisions."""

        def observe(batch):
            plan = FaultPlan(seed=2, losses=(PacketLoss(loss_prob=0.05),))
            injector = FaultInjector(plan)
            sim = NetworkSimulator(
                ring(4), max_batch_packets=batch, faults=injector, fastpath=False
            )
            result = ring_allreduce(sim, list(range(4)), 4096, deadline_s=1.0)
            assert result.completed
            return result.finish_time_s, injector.packets_dropped, injector.retransmits

        assert observe(16) == (4.22560000000001e-06, 15, 15)
        assert observe(1) == (6.245600000000004e-06, 18, 18)

    def test_run_until_counts_uncommitted_burst_bytes(self):
        """``bytes_carried`` is charged when a burst starts.  Cut at
        10 ns, the 30 GB/s link has serialised about 300 bytes: per
        packet it has charged the five packets begun (360 wire bytes),
        batched the first packet plus a whole 16-packet burst."""

        def carried(batch):
            observed = _run_flows([(0, 1, 4096, 0.0)], batch, until=10e-9)
            assert observed["done"] == [] and observed["now"] == 10e-9
            return next(b for src, dst, b in observed["links"] if (src, dst) == (0, 1))

        assert carried(1) == 5 * 72
        assert carried(16) == 17 * 72
