"""Cross-cutting performance layer: sweep memoization, wall-time
attribution and process-parallel sweep execution.

Three pieces, used together by the figure/ablation sweeps:

* :mod:`repro.perf.memoize` — a content-hash keyed cache for pure
  evaluations over (frozen) config dataclasses, so repeated
  ``(layer, grid, batch)`` points in a sweep are computed once per
  process (and optionally persisted to disk).
* :mod:`repro.perf.profiler` — a zero-dependency ``Timer`` plus a
  global phase/counter registry that attributes wall time to kernel /
  netsim / model phases.
* :mod:`repro.perf.parallel` — the process-parallel sweep executor:
  shards registered pure-kernel evaluations across worker processes
  through a crash-safe shared disk cache and merges deterministically,
  so a sweep pre-warmed at N workers is byte-identical to a serial one.

The repository's benchmark lives outside the package, in ``perfbench/``.
"""

from .memoize import (
    MEMOIZED_SWEEPS,
    SweepCache,
    build_key,
    canonicalize,
    effect_free,
    key_digest,
    memoize_sweep,
    register_canonical,
    sweep_key,
)
from .parallel import (
    SWEEP_MODULES,
    SweepPoint,
    import_sweep_modules,
    registered_caches,
    run_points,
    sweep_point,
)
from .profiler import (
    Timer,
    counter_add,
    phase,
    profiling_disabled,
    profiling_enabled,
    reset_profile,
    snapshot_profile,
)

__all__ = [
    "MEMOIZED_SWEEPS",
    "SWEEP_MODULES",
    "SweepCache",
    "SweepPoint",
    "Timer",
    "build_key",
    "canonicalize",
    "counter_add",
    "effect_free",
    "import_sweep_modules",
    "key_digest",
    "memoize_sweep",
    "phase",
    "profiling_disabled",
    "profiling_enabled",
    "register_canonical",
    "registered_caches",
    "reset_profile",
    "run_points",
    "snapshot_profile",
    "sweep_key",
    "sweep_point",
]
