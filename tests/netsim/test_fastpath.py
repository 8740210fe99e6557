"""Golden bit-identity tests for the netsim collective shortcuts.

The contract: with the shortcuts on (the default), every timestamp,
byte count and completion flag is the bit-exact value the packet engine
computes (``fastpath=False``, or process wide
``REPRO_NETSIM_REFERENCE=1``).  These tests run each workload
twice — fast and reference — on freshly built topologies and compare
*everything observable*: the collective result dataclass, the final
simulated time, per-link wire bytes, delivery counts and fault
counters.  Equality is ``==`` on floats throughout; ``approx`` would
hide exactly the class of bug this contract exists to exclude.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    LinkFault,
    PacketLoss,
    WorkerFault,
)
from repro.netsim import (
    NetworkSimulator,
    all_to_all,
    flattened_butterfly_2d,
    hybrid,
    ring,
    ring_allreduce,
)

#: The paper's machine grids (num_groups x num_clusters); (1, 256) is
#: one 256-node hybrid ring and takes whole seconds on the reference
#: engine, so it rides in the nightly `-m slow` lane.
PAPER_GRIDS = [(16, 16), (4, 64)]
PAPER_GRIDS_SLOW = [(1, 256)]


def _topo_snapshot(topology):
    return sorted(
        (link.src, link.dst, link.name, link.bytes_carried)
        for link in topology.links
    )


def _run_collective(fastpath, build, plan=None):
    """Build a fresh topology, run ``build`` on it, observe everything."""
    injector = FaultInjector(plan) if plan is not None else None
    observation = build(fastpath, injector)
    if injector is not None:
        observation["faults"] = (
            injector.packets_dropped,
            injector.retransmits,
            injector.packets_failed,
        )
    return observation


def _assert_identical(build, plan=None):
    fast = _run_collective(True, build, plan)
    ref = _run_collective(False, build, plan)
    assert fast == ref
    return fast


class TestRingAllreduceIdentity:
    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    @pytest.mark.parametrize("message_bytes", [1, 999, 64 * 1024])
    def test_symmetric_ring(self, n, message_bytes):
        def build(fastpath, injector):
            topo = ring(n)
            sim = NetworkSimulator(topo, faults=injector, fastpath=fastpath)
            result = ring_allreduce(sim, list(range(n)), message_bytes)
            return {
                "result": result,
                "now": sim.now,
                "delivered": sim.messages_delivered,
                "bytes": sim.bytes_delivered,
                "links": _topo_snapshot(topo),
            }

        fast = _assert_identical(build)
        assert fast["result"].completed

    def test_subset_ring_nodes(self):
        """A collective over a node subset (ring order 0-2-4-6) rides
        multi-hop routes — the shortcut declines, results still match."""

        def build(fastpath, injector):
            topo = ring(8)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            result = ring_allreduce(sim, [0, 2, 4, 6], 4096)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(topo)}

        _assert_identical(build)


class TestAllToAllIdentity:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("bytes_per_pair", [1, 4096])
    def test_fully_connected(self, n, bytes_per_pair):
        def build(fastpath, injector):
            topo = flattened_butterfly_2d(1, n)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            result = all_to_all(sim, list(range(n)), bytes_per_pair)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(topo)}

        fast = _assert_identical(build)
        assert fast["result"].completed

    def test_two_hop_fbfly(self):
        """Diagonal pairs need two hops: the closed form declines and
        the engine must still match the reference."""

        def build(fastpath, injector):
            topo = flattened_butterfly_2d(2, 2)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            result = all_to_all(sim, [0, 1, 2, 3], 2048)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(topo)}

        _assert_identical(build)


class TestPaperGridIdentity:
    @staticmethod
    def _build_grid(num_groups, num_clusters, message_bytes):
        def build(fastpath, injector):
            topo, layout = hybrid(num_groups, num_clusters)
            sim = NetworkSimulator(topo, faults=injector, fastpath=fastpath)
            ar = ring_allreduce(sim, layout.group_members(0), message_bytes)
            observation = {"ar": ar, "now_ar": sim.now}
            if num_groups >= 2:
                sim2 = NetworkSimulator(topo, fastpath=fastpath)
                a2a = all_to_all(sim2, layout.cluster_members(0),
                                 message_bytes // 16)
                observation["a2a"] = a2a
                observation["now_a2a"] = sim2.now
            observation["links"] = _topo_snapshot(topo)
            return observation

        return build

    @pytest.mark.parametrize("num_groups,num_clusters", PAPER_GRIDS)
    def test_grid_collectives(self, num_groups, num_clusters):
        _assert_identical(self._build_grid(num_groups, num_clusters, 8192))

    @pytest.mark.slow
    @pytest.mark.parametrize("num_groups,num_clusters", PAPER_GRIDS_SLOW)
    def test_grid_collectives_slow(self, num_groups, num_clusters):
        _assert_identical(self._build_grid(num_groups, num_clusters, 8192))


class TestFaultScenarioIdentity:
    """Every fault class from the scenario battery, fast vs reference.

    The fast paths must either prove the horizon fault-clean (or
    deterministically dead) or decline; in both cases results and fault
    counters are bit-identical.
    """

    @staticmethod
    def _build_faulted_ring(plan_placeholder=None, deadline_s=None,
                            message_bytes=16 * 1024):
        def build(fastpath, injector):
            topo = ring(8)
            sim = NetworkSimulator(topo, faults=injector, fastpath=fastpath)
            result = ring_allreduce(sim, list(range(8)), message_bytes,
                                    deadline_s=deadline_s)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(topo)}

        return build

    def test_baseline_clean_plan(self):
        _assert_identical(self._build_faulted_ring(), FaultPlan())

    def test_dead_link_strands_identically(self):
        fast = _assert_identical(
            self._build_faulted_ring(deadline_s=1.0),
            FaultPlan(link_faults=(LinkFault(src=2, dst=3),)),
        )
        assert not fast["result"].completed

    def test_finite_fault_window(self):
        """A repairable outage is 'dirty': both modes take the
        reference path and agree trivially — the point is the fast
        path *declines* rather than mispricing the stall."""
        _assert_identical(
            self._build_faulted_ring(),
            FaultPlan(link_faults=(
                LinkFault(src=1, dst=2, fail_s=0.0, repair_s=5e-5),
            )),
        )

    def test_dead_worker(self):
        fast = _assert_identical(
            self._build_faulted_ring(deadline_s=1.0),
            FaultPlan(worker_faults=(WorkerFault(worker=5),)),
        )
        assert not fast["result"].completed

    def test_packet_loss_with_retransmits(self):
        fast = _assert_identical(
            self._build_faulted_ring(),
            FaultPlan(seed=7, losses=(PacketLoss(loss_prob=0.05),)),
        )
        dropped, retransmits, _failed = fast["faults"]
        assert dropped > 0 and retransmits > 0

    def test_deadline_mid_collective(self):
        """A deadline that truncates the collective mid-flight: the
        shortcut must not commit past it."""

        def build(fastpath, injector):
            topo = ring(8)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            full = ring_allreduce(sim, list(range(8)), 64 * 1024)
            # Rebuild and cut at 40% of the clean finish time.
            topo2 = ring(8)
            sim2 = NetworkSimulator(topo2, fastpath=fastpath)
            cut = ring_allreduce(sim2, list(range(8)), 64 * 1024,
                                 deadline_s=full.finish_time_s * 0.4)
            return {"full": full, "cut": cut, "now": sim2.now,
                    "links": _topo_snapshot(topo2)}

        fast = _assert_identical(build)
        assert fast["full"].completed and not fast["cut"].completed


class TestEnvironmentToggle:
    def test_reference_env_var_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NETSIM_REFERENCE", "1")
        assert NetworkSimulator(ring(4)).fastpath is False
        monkeypatch.setenv("REPRO_NETSIM_REFERENCE", "0")
        assert NetworkSimulator(ring(4)).fastpath is True
        monkeypatch.delenv("REPRO_NETSIM_REFERENCE")
        assert NetworkSimulator(ring(4)).fastpath is True

    def test_ctor_flag_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_NETSIM_REFERENCE", "1")
        assert NetworkSimulator(ring(4), fastpath=True).fastpath is True


class TestPropertyIdentity:
    """Randomised equivalence: any ring collective, clean or lossy,
    must agree between the fast and reference engines."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10),
        message_bytes=st.integers(min_value=1, max_value=100_000),
    )
    def test_random_ring_allreduce(self, n, message_bytes):
        def build(fastpath, injector):
            topo = ring(n)
            sim = NetworkSimulator(topo, fastpath=fastpath)
            result = ring_allreduce(sim, list(range(n)), message_bytes)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(topo)}

        _assert_identical(build)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        message_bytes=st.integers(min_value=1, max_value=50_000),
        seed=st.integers(min_value=0, max_value=3),
        loss=st.floats(min_value=0.0, max_value=0.2,
                       allow_nan=False, allow_infinity=False),
    )
    def test_random_lossy_ring(self, n, message_bytes, seed, loss):
        plan = FaultPlan(seed=seed, losses=(PacketLoss(loss_prob=loss),))

        def build(fastpath, injector):
            topo = ring(n)
            sim = NetworkSimulator(topo, faults=injector, fastpath=fastpath)
            result = ring_allreduce(sim, list(range(n)), message_bytes,
                                    deadline_s=1.0)
            return {"result": result, "now": sim.now,
                    "links": _topo_snapshot(topo)}

        _assert_identical(build, plan)


def test_finish_times_are_finite_sanity():
    """Guard against silent inf/nan from closed forms."""
    sim = NetworkSimulator(ring(8))
    result = ring_allreduce(sim, list(range(8)), 64 * 1024)
    assert math.isfinite(result.finish_time_s) and result.finish_time_s > 0
