"""Tests for host-bridged dynamic-clustering reconfiguration."""

import pytest

from repro.netsim import NetworkSimulator, ring_allreduce, ring_allreduce_time
from repro.netsim.reconfiguration import paper_configurations, reconfigure
from repro.params import DEFAULT_PARAMS


class TestSplicePlan:
    def test_paper_three_configurations(self):
        configs = paper_configurations()
        names = [name for name, _ in configs]
        assert names == ["16Ng-16Nc", "4Ng-64Nc", "1Ng-256Nc"]
        sizes = [m.logical_group_count for _, m in configs]
        assert sizes == [16, 4, 1]

    def test_ring_lengths(self):
        machine = reconfigure(16, 16, 4)
        assert all(len(r) == 64 for r in machine.logical_rings)
        machine1 = reconfigure(16, 16, 1)
        assert len(machine1.logical_rings[0]) == 256

    def test_rings_partition_workers(self):
        machine = reconfigure(16, 16, 4)
        seen = [w for ring_ in machine.logical_rings for w in ring_]
        assert sorted(seen) == list(range(256))

    def test_uneven_merge_rejected(self):
        with pytest.raises(ValueError):
            reconfigure(16, 16, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            reconfigure(16, 16, 32)


class TestRingConnectivity:
    @pytest.mark.parametrize("logical", [1, 4, 16])
    def test_logical_ring_neighbours_directly_linked(self, logical):
        """Every consecutive pair on a logical ring (including the wrap)
        has a direct link — physical or host bridge."""
        machine = reconfigure(8, 4, logical if logical <= 8 else 8)
        for ring_order in machine.logical_rings:
            for a, b in zip(ring_order, ring_order[1:] + ring_order[:1]):
                assert b in machine.topology.neighbors(a)

    def test_16_16_needs_no_bridges(self):
        machine = reconfigure(16, 16, 16)
        bridges = [l for l in machine.topology.links if l.name == "host-bridge"]
        assert not bridges

    def test_merged_configs_add_bridges(self):
        machine = reconfigure(16, 16, 4)
        bridges = [l for l in machine.topology.links if l.name == "host-bridge"]
        assert bridges


class TestSplicePairRoutingDefect:
    def test_same_cluster_splice_pairs_route_over_the_fbfly(self):
        """Known defect, pinned so a fix is deliberate: in the one
        256-worker ring, the four splice pairs whose endpoints share
        cluster 0 get host bridges, but ``Topology.route`` asks the
        hybrid's cluster router first, which sends each pair over two
        narrow ``cluster0-fbfly`` hops.  That ring is not the
        full-bandwidth cycle ``bridge_ring`` promises, and the collective
        ring shortcut declines it.  Fixing the routing changes the
        ``fault_battery`` benchmark digest."""
        topology = reconfigure(16, 16, 1).topology
        routes = {
            (a, b): [(link.src, link.dst, link.name) for link in topology.route(a, b)]
            for a, b in ((48, 64), (112, 128), (176, 192), (240, 0))
        }
        assert routes == {
            (48, 64): [(48, 0, "cluster0-fbfly"), (0, 64, "cluster0-fbfly")],
            (112, 128): [(112, 64, "cluster0-fbfly"), (64, 128, "cluster0-fbfly")],
            (176, 192): [(176, 128, "cluster0-fbfly"), (128, 192, "cluster0-fbfly")],
            (240, 0): [(240, 192, "cluster0-fbfly"), (192, 0, "cluster0-fbfly")],
        }
        for a, b in routes:
            assert topology.neighbors(a)[b].name == "host-bridge"


class TestCollectivesOnLogicalRings:
    def test_allreduce_on_spliced_ring_matches_closed_form(self):
        """A collective on a 16-worker spliced logical ring (4 physical
        groups of 4) performs like a plain 16-ring — reconfiguration
        costs no bandwidth, as Section IV claims."""
        machine = reconfigure(4, 4, 1)
        ring_order = machine.logical_rings[0]
        assert len(ring_order) == 16
        sim = NetworkSimulator(
            machine.topology, packet_bytes=DEFAULT_PARAMS.collective_packet_bytes
        )
        size = 400_000
        result = ring_allreduce(sim, ring_order, size)
        closed = ring_allreduce_time(
            size, 16, DEFAULT_PARAMS.full_link_bytes_per_s
        )
        assert result.finish_time_s == pytest.approx(closed, rel=0.08)

    def test_four_spliced_rings_concurrently_independent(self):
        machine = reconfigure(8, 4, 4)
        sim = NetworkSimulator(
            machine.topology, packet_bytes=DEFAULT_PARAMS.collective_packet_bytes
        )
        durations = []
        for ring_order in machine.logical_rings:
            start = sim.now
            result = ring_allreduce(sim, ring_order, 100_000, start_time=start)
            durations.append(result.finish_time_s - start)
        assert max(durations) == pytest.approx(min(durations), rel=0.05)


class TestSpliceOut:
    """Degraded-ring reconstruction edge cases (used by repro.faults)."""

    def _ring_is_closed(self, topology, ring_order):
        full = DEFAULT_PARAMS.full_link_bytes_per_s
        for a, b in zip(ring_order, ring_order[1:] + ring_order[:1]):
            link = topology.neighbors(a).get(b)
            assert link is not None, (a, b)
            assert link.bytes_per_s >= full, (a, b)

    def test_splice_out_middle_worker(self):
        from repro.netsim import splice_out

        machine = reconfigure(16, 16, 16)
        ring_order = machine.logical_rings[0]
        dead = ring_order[8]
        survivors, bridges = splice_out(machine.topology, ring_order, [dead])
        assert dead not in survivors
        assert len(survivors) == 15
        assert bridges == 1
        self._ring_is_closed(machine.topology, survivors)

    def test_head_splice(self):
        from repro.netsim import splice_out

        machine = reconfigure(16, 16, 16)
        ring_order = machine.logical_rings[0]
        survivors, bridges = splice_out(
            machine.topology, ring_order, [ring_order[0]]
        )
        assert survivors == ring_order[1:]
        # The gap spans the old wrap-around: tail -> new head.
        assert bridges == 1
        self._ring_is_closed(machine.topology, survivors)

    def test_tail_splice(self):
        from repro.netsim import splice_out

        machine = reconfigure(16, 16, 16)
        ring_order = machine.logical_rings[0]
        survivors, bridges = splice_out(
            machine.topology, ring_order, [ring_order[-1]]
        )
        assert survivors == ring_order[:-1]
        assert bridges == 1
        self._ring_is_closed(machine.topology, survivors)

    def test_adjacent_double_splice_collapses_to_one_gap(self):
        from repro.netsim import splice_out

        machine = reconfigure(16, 16, 16)
        ring_order = machine.logical_rings[0]
        dead = [ring_order[5], ring_order[6]]
        survivors, bridges = splice_out(machine.topology, ring_order, dead)
        assert len(survivors) == 14
        assert bridges == 1  # one bridge closes the double gap
        self._ring_is_closed(machine.topology, survivors)

    def test_splice_down_to_single_worker(self):
        from repro.netsim import splice_out

        machine = reconfigure(16, 16, 16)
        ring_order = machine.logical_rings[0]
        survivors, bridges = splice_out(
            machine.topology, ring_order, ring_order[1:]
        )
        assert survivors == [ring_order[0]]
        assert bridges == 0  # a one-worker ring needs no links

    def test_splicing_everyone_out_is_rejected(self):
        from repro.netsim import splice_out

        machine = reconfigure(16, 16, 16)
        ring_order = machine.logical_rings[0]
        with pytest.raises(ValueError):
            splice_out(machine.topology, ring_order, list(ring_order))

    def test_spliced_ring_still_runs_the_collective(self):
        from repro.netsim import splice_out

        machine = reconfigure(16, 16, 16)
        ring_order = machine.logical_rings[0]
        survivors, _ = splice_out(machine.topology, ring_order, [ring_order[3]])
        sim = NetworkSimulator(
            machine.topology, packet_bytes=DEFAULT_PARAMS.collective_packet_bytes
        )
        result = ring_allreduce(sim, survivors, 100_000)
        closed = ring_allreduce_time(
            100_000, len(survivors), DEFAULT_PARAMS.full_link_bytes_per_s
        )
        assert result.completed
        assert result.finish_time_s == pytest.approx(closed, rel=0.08)
