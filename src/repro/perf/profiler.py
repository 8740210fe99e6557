"""Zero-dependency wall-time attribution for the benchmark suite.

A module-global registry accumulates wall seconds per *phase*
(``kernel``, ``netsim``, ``model``, ...) plus integer counters (cache
hits, events popped, ...).  Instrumentation points in the hot paths are
``with phase("kernel"):`` blocks; when profiling is disabled — the
default — ``phase`` returns a shared no-op context manager so the hot
paths pay a dictionary lookup and nothing else.

The registry is process-global on purpose: the benchmark runner owns
the enable/reset lifecycle and the instrumented code stays oblivious.
Nested or overlapping phases each accumulate their own wall time, so
the per-phase numbers attribute *inclusive* time and may sum to more
than the end-to-end wall clock.
"""

from __future__ import annotations

import time
from typing import Dict

from .memoize import effect_free


class Timer:
    """Context-manager stopwatch: ``with Timer() as t: ...; t.elapsed_s``."""

    def __init__(self) -> None:
        self.elapsed_s = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed_s = time.perf_counter() - self._start


_enabled = False
_phase_seconds: Dict[str, float] = {}
_phase_calls: Dict[str, int] = {}
_counters: Dict[str, int] = {}


class _PhaseTimer:
    """Reusable-per-call phase accumulator (cheaper than a generator)."""

    __slots__ = ("name", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        _phase_seconds[self.name] = _phase_seconds.get(self.name, 0.0) + elapsed
        _phase_calls[self.name] = _phase_calls.get(self.name, 0) + 1


class _Noop:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP_CTX = _Noop()


# Vouched effect-free: the phase/counter registry is observability-only
# state that never feeds back into any computed value, so memoized
# callers may use it without poisoning their cache keys (EFF001).
@effect_free
def phase(name: str):
    """Attribute the wall time of a ``with`` block to ``name``."""
    if not _enabled:
        return _NOOP_CTX
    return _PhaseTimer(name)


@effect_free
def counter_add(name: str, amount: int = 1) -> None:
    """Bump a named counter (no-op while profiling is disabled)."""
    if not _enabled:
        return
    _counters[name] = _counters.get(name, 0) + amount


def profiling_enabled() -> None:
    """Turn the registry on (benchmark runner entry)."""
    global _enabled
    _enabled = True


def profiling_disabled() -> None:
    global _enabled
    _enabled = False


def reset_profile() -> None:
    """Zero all phases and counters (enable state is unchanged)."""
    _phase_seconds.clear()
    _phase_calls.clear()
    _counters.clear()


def snapshot_profile() -> Dict[str, Dict]:
    """Copy of the registry: per-phase seconds/calls plus counters."""
    return {
        "phases": {
            name: {"seconds": seconds, "calls": _phase_calls.get(name, 0)}
            for name, seconds in sorted(_phase_seconds.items())
        },
        "counters": dict(sorted(_counters.items())),
    }
