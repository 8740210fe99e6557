"""Process-parallel sweep execution over the memoized sweep registry.

The figure sweeps, paper grids and fault-scenario batteries are built
from *independent* evaluations of pure kernels — exactly the functions
registered in :data:`~repro.perf.memoize.MEMOIZED_SWEEPS` and proven
pure by the interprocedural effect analysis (EFF001).  That proof is
the dispatch license: a pure kernel's result depends only on its
content key, so any process may compute any point and the results can
be merged without coordination.

The executor is a *pre-warmer*: callers enumerate the
:class:`SweepPoint`\\ s a sweep will evaluate, :func:`run_points` shards
them across worker processes, and every worker publishes its results
into one crash-safe shared disk cache (atomic per-digest files, see
:class:`~repro.perf.memoize.SweepCache`).  The parent then merges the
values into its in-memory caches **in canonical key-digest order** and
replays the sweep serially against warm caches — so serial and parallel
runs produce byte-identical output by construction, and a worker killed
mid-sweep costs only its unfinished points (the survivors' results are
already on disk; the merge loop recomputes the rest in-parent).

Safety is gated twice:

* at runtime — :func:`sweep_point` and the worker loop refuse any
  callable not registered in ``MEMOIZED_SWEEPS``;
* statically — statcheck rule ``PAR001`` flags any ``sweep_point``
  dispatch whose target has a non-empty impure effect summary.
"""

from __future__ import annotations

import importlib
import multiprocessing
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .memoize import MEMOIZED_SWEEPS, SweepCache, build_key, key_digest

#: Modules whose import registers every dispatchable sweep kernel.
#: Workers import these before touching the registry, so dispatch by
#: qualified name works under both ``fork`` and ``spawn`` start methods.
SWEEP_MODULES: Tuple[str, ...] = (
    "repro.core.perf_model",
    "repro.core.dynamic_clustering",
    "repro.faults.scenarios",
    "repro.planner.strategy",
    "repro.planner.solver",
)


def import_sweep_modules() -> None:
    """Populate ``MEMOIZED_SWEEPS`` with every kernel defined on the tree."""
    for name in SWEEP_MODULES:
        importlib.import_module(name)


@dataclass(frozen=True)
class SweepPoint:
    """One dispatchable evaluation: a registered kernel's qualified name
    plus the exact call operands (keywords canonically sorted)."""

    qualname: str
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()


def sweep_point(fn: Callable, *args: Any, **kwargs: Any) -> SweepPoint:
    """Package one evaluation of ``fn`` for parallel dispatch.

    ``fn`` must be the registered ``memoize_sweep`` wrapper itself —
    the runtime half of the safety gate (PAR001 is the static half):
    only functions in the registry, which EFF001 proves pure, may cross
    a process boundary, because a worker's result is merged back purely
    by content key.
    """
    inner = getattr(fn, "__wrapped__", fn)
    qualname = getattr(inner, "__qualname__", "<anonymous>")
    if MEMOIZED_SWEEPS.get(qualname) is not fn:
        raise TypeError(
            f"sweep_point refuses {qualname!r}: only the registered "
            "memoize_sweep wrappers in MEMOIZED_SWEEPS (statically "
            "proven pure) may be dispatched to worker processes"
        )
    return SweepPoint(qualname, tuple(args), tuple(sorted(kwargs.items())))


def _registered_kernel(qualname: str) -> Callable:
    wrapper = MEMOIZED_SWEEPS.get(qualname)
    if wrapper is None:
        raise KeyError(
            f"sweep kernel {qualname!r} is not in MEMOIZED_SWEEPS; only "
            "registered pure kernels may be executed for a SweepPoint"
        )
    return wrapper


def registered_caches() -> List[SweepCache]:
    """Every registered sweep cache, in deterministic qualname order."""
    return [wrapper.cache for _, wrapper in sorted(MEMOIZED_SWEEPS.items())]


def _point_key(point: SweepPoint) -> Tuple[Any, Any]:
    return build_key(point.args, dict(point.kwargs))


# ---- worker side ------------------------------------------------------------


def _worker_run_chunk(
    worker_id: int,
    cache_dir: str,
    points: List[SweepPoint],
) -> Dict[str, Any]:
    """Evaluate one shard of points against the shared disk cache.

    Runs in a worker process (or inline for the 1-worker path).  Every
    registered cache is attached to ``cache_dir``, so each computed
    value is atomically published for the parent and for every other
    worker; the return value carries only *statistics* — result data
    travels through the shared cache, which is what makes a dead
    worker's completed points recoverable.
    """
    import_sweep_modules()
    caches = registered_caches()
    for cache in caches:
        cache.attach_disk(Path(cache_dir))
    hits_before = sum(cache.hits for cache in caches)
    misses_before = sum(cache.misses for cache in caches)
    start = time.perf_counter()
    for point in points:
        wrapper = _registered_kernel(point.qualname)
        wrapper(*point.args, **dict(point.kwargs))
    wall_s = time.perf_counter() - start
    return {
        "worker": worker_id,
        "points": len(points),
        "hits": sum(cache.hits for cache in caches) - hits_before,
        "misses": sum(cache.misses for cache in caches) - misses_before,
        "wall_s": wall_s,
        "completed": True,
    }


# ---- parent side ------------------------------------------------------------


def _mp_context():
    """Prefer ``fork`` (shares the already-imported tree and any
    test-registered kernels); fall back to the platform default."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_points(
    points: Iterable[SweepPoint],
    workers: int = 1,
    cache_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Evaluate sweep points across ``workers`` processes; return stats.

    After this call every point's value sits in the owning kernel's
    in-memory cache of *this* process, seeded in canonical key-digest
    order — a serial replay of the sweep then hits every point, which
    is the determinism contract: parallel execution can only change
    *when* a value is computed, never *what* the sweep produces.

    ``cache_dir`` names the shared disk cache; by default a private
    directory is created and removed after merging.  Pass an explicit
    directory to persist results across runs/processes (warm starts in
    any process count hit it).

    Worker loss is tolerated: a killed worker's completed points are
    already on disk, and the merge loop recomputes whatever is missing
    in-parent (reported as ``recovered``).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    point_list = list(points)
    for point in point_list:
        _registered_kernel(point.qualname)
    start = time.perf_counter()

    # Key every point up front; dedupe repeats (sweeps share baselines).
    by_digest: Dict[str, SweepPoint] = {}
    for point in point_list:
        digest = key_digest(_point_key(point))
        if digest not in by_digest:
            by_digest[digest] = point
    order = sorted(by_digest)

    owns_dir = cache_dir is None
    shared_dir = (
        Path(tempfile.mkdtemp(prefix="repro-sweep-")) if owns_dir
        else Path(cache_dir)
    )
    worker_stats: List[Dict[str, Any]] = []
    recovered = 0
    caches = registered_caches()
    prior_disk = [cache.disk_dir for cache in caches]
    try:
        if workers == 1 or len(order) <= 1:
            stats = _worker_run_chunk(0, str(shared_dir), [by_digest[d] for d in order])
            worker_stats.append(stats)
        else:
            shards: List[List[SweepPoint]] = [
                [] for _ in range(min(workers, len(order)))
            ]
            for index, digest in enumerate(order):
                shards[index % len(shards)].append(by_digest[digest])
            with ProcessPoolExecutor(
                max_workers=len(shards), mp_context=_mp_context()
            ) as pool:
                futures = [
                    pool.submit(_worker_run_chunk, index, str(shared_dir), shard)
                    for index, shard in enumerate(shards)
                ]
                for index, future in enumerate(futures):
                    try:
                        worker_stats.append(future.result())
                    except BrokenProcessPool:
                        # This shard's process (or a pool peer) died;
                        # whatever it finished is on disk already.
                        worker_stats.append(
                            {
                                "worker": index,
                                "points": len(shards[index]),
                                "completed": False,
                            }
                        )

        # Deterministic merge: seed this process's in-memory caches in
        # digest order, reading through the shared disk cache and
        # recomputing in-parent anything a lost worker never published
        # (the wrapper recomputes-and-stores on a miss, so a bumped
        # miss counter is exactly the recovery signal).
        for cache in caches:
            cache.attach_disk(shared_dir)
        for digest in order:
            point = by_digest[digest]
            wrapper = _registered_kernel(point.qualname)
            misses_before = wrapper.cache.misses
            wrapper(*point.args, **dict(point.kwargs))
            if wrapper.cache.misses > misses_before:
                recovered += 1
    finally:
        for cache, disk_dir in zip(caches, prior_disk):
            if disk_dir is None:
                cache.detach_disk()
            else:
                cache.attach_disk(disk_dir)
        if owns_dir:
            shutil.rmtree(shared_dir, ignore_errors=True)

    return {
        "workers": workers,
        "points": len(point_list),
        "unique_points": len(order),
        "recovered": recovered,
        "wall_s": time.perf_counter() - start,
        "worker_stats": worker_stats,
    }
