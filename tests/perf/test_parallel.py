"""Process-parallel sweep executor: determinism, safety gate, recovery.

The contract under test (see :mod:`repro.perf.parallel`): a sweep run
through ``run_points`` at any worker count produces *byte-identical*
figure rows to the serial run — parallelism may change when a value is
computed, never what the sweep emits — and a worker killed mid-sweep
costs only its unfinished points.
"""

import json
import multiprocessing
import os

import pytest

from repro.core.config import PAPER_GRIDS
from repro.params import DEFAULT_PARAMS
from repro.perf import memoize_sweep
from repro.perf.parallel import (
    SweepPoint,
    import_sweep_modules,
    registered_caches,
    run_points,
    sweep_point,
)
from tests.integration.test_digest_gates import POINTS, SWEEPS

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

_PARENT_PID = os.getpid()


@memoize_sweep
def _square_kernel(n):
    return n * n


@memoize_sweep
def _bomb_kernel(n):
    # Dies abruptly in any *worker* process asked for point 13; the
    # parent (original pid) computes it fine — the recovery scenario.
    if n == 13 and os.getpid() != _PARENT_PID:
        os._exit(1)
    return n * n


def _clear_all():
    import_sweep_modules()
    caches = registered_caches()
    for cache in caches:
        cache.clear()
    return caches


def _figure_sweep(name):
    """``(row builder, point enumerator)`` of one figure sweep."""
    return SWEEPS[name], POINTS[name]()


# ---- dispatch gate ----------------------------------------------------------


class TestSweepPointGate:
    def test_registered_wrapper_is_packaged(self):
        point = sweep_point(_square_kernel, 3)
        assert isinstance(point, SweepPoint)
        assert point.args == (3,)
        assert point.qualname == _square_kernel.__wrapped__.__qualname__

    def test_plain_function_is_refused(self):
        def unregistered(n):
            return n

        with pytest.raises(TypeError, match="refuses"):
            sweep_point(unregistered, 3)

    def test_inner_function_is_refused(self):
        # The *wrapper* is the registered object; dispatching the bare
        # inner function would bypass the cache entirely.
        with pytest.raises(TypeError, match="refuses"):
            sweep_point(_square_kernel.__wrapped__, 3)

    def test_kwargs_are_canonically_sorted(self):
        point = sweep_point(_square_kernel, n=5)
        assert point.kwargs == (("n", 5),)

    def test_unknown_qualname_rejected_at_run(self):
        bogus = SweepPoint("no_such_kernel", (1,))
        with pytest.raises(KeyError, match="no_such_kernel"):
            run_points([bogus])

    def test_worker_count_validated(self):
        with pytest.raises(ValueError, match="workers"):
            run_points([sweep_point(_square_kernel, 1)], workers=0)


# ---- serial semantics -------------------------------------------------------


class TestRunPointsSerial:
    def test_values_land_in_parent_cache(self):
        _square_kernel.cache.clear()
        stats = run_points([sweep_point(_square_kernel, n) for n in range(5)])
        assert stats["unique_points"] == 5
        hits_before = _square_kernel.cache.hits
        assert [_square_kernel(n) for n in range(5)] == [0, 1, 4, 9, 16]
        assert _square_kernel.cache.hits - hits_before == 5

    def test_duplicate_points_deduped(self):
        _square_kernel.cache.clear()
        points = [sweep_point(_square_kernel, 7)] * 4
        stats = run_points(points)
        assert stats["points"] == 4
        assert stats["unique_points"] == 1

    def test_disk_state_restored_after_run(self):
        _square_kernel.cache.clear()
        assert _square_kernel.cache.disk_dir is None
        run_points([sweep_point(_square_kernel, 2)])
        assert _square_kernel.cache.disk_dir is None

    @pytest.mark.parametrize("sweep", ["fig15", "fig16"])
    def test_enumerators_cover_their_sweeps(self, sweep):
        """Every enumerated sweep replays with zero misses after a serial
        pre-warm: the coverage property the bit-identity rests on, checked
        where the fork start method is unavailable too."""
        rows, points = _figure_sweep(sweep)
        caches = _clear_all()
        run_points(points)
        misses_before = sum(c.misses for c in caches)
        rows()
        assert sum(c.misses for c in caches) == misses_before


# ---- parallel determinism ---------------------------------------------------


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
class TestParallelDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fig15_rows_bit_identical(self, workers):
        self._assert_rows_bit_identical("fig15", workers)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fig16_rows_bit_identical(self, workers):
        self._assert_rows_bit_identical("fig16", workers)

    @staticmethod
    def _assert_rows_bit_identical(sweep, workers):
        rows, points = _figure_sweep(sweep)
        _clear_all()
        serial = json.dumps(rows(), sort_keys=True, default=repr)

        caches = _clear_all()
        stats = run_points(points, workers=workers)
        misses_before = sum(c.misses for c in caches)
        parallel = json.dumps(rows(), sort_keys=True, default=repr)
        assert parallel == serial
        # The merge seeded every point: the replay was pure hits.
        assert sum(c.misses for c in caches) == misses_before
        assert stats["workers"] == workers

    @pytest.mark.parametrize("workers", [2, 4])
    def test_faults_grid_rows_bit_identical(self, workers):
        from repro.faults.scenarios import (
            _scenario_grid_row_cached,
            run_scenario_on_grid,
        )

        cache = _scenario_grid_row_cached.cache
        cache.clear()
        serial = [
            run_scenario_on_grid("dead-worker", ng, nc) for ng, nc in PAPER_GRIDS
        ]
        serial_json = json.dumps(serial, sort_keys=True)

        cache.clear()
        points = [
            sweep_point(
                _scenario_grid_row_cached,
                "dead-worker", ng, nc, 0, 64 * 1024, DEFAULT_PARAMS,
            )
            for ng, nc in PAPER_GRIDS
        ]
        run_points(points, workers=workers)
        parallel = [
            run_scenario_on_grid("dead-worker", ng, nc) for ng, nc in PAPER_GRIDS
        ]
        assert json.dumps(parallel, sort_keys=True) == serial_json

    def test_worker_stats_account_for_every_point(self):
        _square_kernel.cache.clear()
        points = [sweep_point(_square_kernel, n) for n in range(10)]
        stats = run_points(points, workers=2)
        assert len(stats["worker_stats"]) == 2
        assert sum(w["points"] for w in stats["worker_stats"]) == 10
        assert all(w["completed"] for w in stats["worker_stats"])
        assert sum(w["misses"] for w in stats["worker_stats"]) == 10
        assert stats["recovered"] == 0


# ---- shared disk cache ------------------------------------------------------


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
class TestSharedCacheDir:
    def test_warm_start_across_runs(self, tmp_path):
        _square_kernel.cache.clear()
        points = [sweep_point(_square_kernel, n) for n in range(6)]
        run_points(points, workers=2, cache_dir=tmp_path)

        # A fresh "process" (cleared memory) warm-starts from disk.
        _square_kernel.cache.clear()
        stats = run_points(points, workers=2, cache_dir=tmp_path)
        assert sum(w["misses"] for w in stats["worker_stats"]) == 0
        assert sum(w["hits"] for w in stats["worker_stats"]) == 6

    def test_private_directory_cleaned_up(self, tmp_path):
        import tempfile

        _square_kernel.cache.clear()
        before = set(os.listdir(tempfile.gettempdir()))
        run_points([sweep_point(_square_kernel, n) for n in range(4)], workers=2)
        leftovers = [
            name
            for name in set(os.listdir(tempfile.gettempdir())) - before
            if name.startswith("repro-sweep-")
        ]
        assert leftovers == []


# ---- killed-worker recovery -------------------------------------------------


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
class TestKilledWorkerRecovery:
    def test_surviving_run_completes_from_shared_cache(self):
        _bomb_kernel.cache.clear()
        points = [sweep_point(_bomb_kernel, n) for n in range(1, 15)]
        stats = run_points(points, workers=2)

        # The pool broke: at least one shard never reported back.
        assert any(not w["completed"] for w in stats["worker_stats"])
        # ...but the sweep still completed: every point is in the
        # parent cache (the dead worker's published points came off
        # disk; the rest were recomputed in-parent).
        assert stats["recovered"] >= 1
        hits_before = _bomb_kernel.cache.hits
        values = [_bomb_kernel(n) for n in range(1, 15)]
        assert values == [n * n for n in range(1, 15)]
        assert _bomb_kernel.cache.hits - hits_before == 14
