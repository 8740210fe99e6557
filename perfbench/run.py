"""Benchmark entry point, run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload of :mod:`perfbench.workloads` in this process, cold:
the ``repro`` sweep caches are cleared before every pass and no disk
cache is used.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
  this process's set-up and several set-ups in fresh interpreters),
  ``work_per_s`` (the workload's pinned work per pass over the median
  pass time, passes repeated for about ``--seconds``) and
  ``peak_rss_mb``.
* ``--trace 1`` runs one untraced pass, then one pass with spans around
  the ``repro`` layers (:mod:`perfbench.spans`), and reports the
  per-layer metrics of the traced pass and its overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: BLAS thread pools capped to one thread: steadier than one per core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-ups measured in fresh interpreters, besides this process's own.
SETUP_PROBES = 2

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402
from perfbench.workloads import WORKLOADS, PassOutput, Workload, model_error_pct  # noqa: E402


def prepare_process() -> None:
    """Cap BLAS threads (before numpy loads) and put the checkout's
    ``src`` first on the import path."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def clear_caches() -> None:
    """Empty every registered sweep cache and the Winograd transform cache."""
    from repro.perf.parallel import registered_caches
    from repro.winograd import make_transform

    for cache in registered_caches():
        cache.clear()
    make_transform.cache_clear()


def memo_stats() -> Tuple[int, int]:
    from repro.perf.parallel import registered_caches

    caches = registered_caches()
    return sum(c.hits for c in caches), sum(c.misses for c in caches)


def setup(workload: Workload, seed: int) -> Tuple[Any, float]:
    """Import the workload's modules, clear the caches and build the
    inputs; returns the inputs and the seconds that took."""
    import importlib

    start = time.perf_counter()
    from repro.perf.parallel import import_sweep_modules

    for module in workload.modules:
        importlib.import_module(module)
    import_sweep_modules()
    clear_caches()
    inputs = workload.prepare(seed)
    return inputs, time.perf_counter() - start


def probe_setup(workload: Workload, seed: int) -> float:
    """Set-up seconds of a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(workload: Workload, inputs: Any) -> Tuple[float, PassOutput]:
    clear_caches()
    start = time.perf_counter()
    output = workload.run_pass(inputs)
    return time.perf_counter() - start, output


def measure(workload: Workload, inputs: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """Cold passes while at least half of the next one fits in ``seconds``,
    so the measured time lands within half a pass of ``seconds``."""
    deadline = time.perf_counter() + seconds
    times: List[float] = []
    passes = failed = 0
    while True:
        elapsed, output = run_pass(workload, inputs)
        times.append(elapsed)
        passes += 1
        failed += workload.check(seed, output)
        if time.perf_counter() + statistics.median(times) / 2 > deadline:
            break
    print(f"# passes={passes} pass_s={[round(t, 3) for t in times]}")
    return {
        "attempted": passes * workload.ops_per_pass,
        "failed": failed,
        "metrics": {"work_per_s": (workload.work_per_pass / statistics.median(times), "1/s")},
    }


def trace_pass(workload: Workload, inputs: Any) -> Tuple[PassOutput, Dict[str, Tuple[float, str]]]:
    """One cold pass with spans around the ``repro`` layers and the
    profiler's counters on; returns its output and per-layer metrics."""
    from repro.perf import profiler

    tracer = spans.Tracer()
    clear_caches()
    profiler.reset_profile()
    profiler.profiling_enabled()
    try:
        with spans.Patch() as patch:
            spans.install(patch, tracer)
            output = tracer.wrap(spans.ROOT, workload.run_pass)(inputs)
    finally:
        profiler.profiling_disabled()
    counters = profiler.snapshot_profile()["counters"]
    profiler.reset_profile()

    metrics = spans.layer_metrics(tracer, counters, *memo_stats())
    wall = metrics["trace.wall_s"][0]
    accounted = sum(seconds for seconds, _ in tracer.self_times().values())
    if abs(accounted - wall) > 1e-9 * max(wall, 1.0):
        raise RuntimeError(f"span self times sum to {accounted} s, traced wall is {wall} s")
    error = model_error_pct(output.rows) if workload.name == "tile_replay" else 0.0
    metrics["core.model_error_pct"] = (error, "%")
    print(f"# traced_pass_s={wall:.3f} spans={len(tracer.names)}")
    return output, metrics


def traced(workload: Workload, inputs: Any, seed: int) -> Dict[str, Any]:
    """One untraced pass, then one traced pass; per-layer metrics and
    the tracing overhead."""
    untraced_s, output = run_pass(workload, inputs)
    failed = workload.check(seed, output)
    output, metrics = trace_pass(workload, inputs)
    failed += workload.check(seed, output)
    overhead = 100.0 * (metrics["trace.wall_s"][0] / untraced_s - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    print(f"# untraced_pass_s={untraced_s:.3f}")
    return {"attempted": 2 * workload.ops_per_pass, "failed": failed, "metrics": metrics}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the untraced run repeats passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SOURCE}", file=sys.stderr)
        return 2
    prepare_process()
    workload = WORKLOADS[args.workload]

    inputs, setup_s = setup(workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    import numpy

    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"blas_threads=1 nproc={os.cpu_count()}")
    if args.trace:
        result = traced(workload, inputs, args.seed)
    else:
        setups = [setup_s] + [probe_setup(workload, args.seed) for _ in range(SETUP_PROBES)]
        print(f"# setup_s={[round(s, 3) for s in setups]}")
        result = measure(workload, inputs, args.seed, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"].update(
            setup_s=(statistics.median(setups), "s"), peak_rss_mb=(peak_mb, "MB")
        )

    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"{name:28s} {value!r} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(result["metrics"].items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
