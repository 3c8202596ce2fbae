"""Zero-dependency instrumentation core: spans, counters, gauges.

One :class:`Instrumentation` object is the telemetry registry for one
simplification run.  Hot paths record into it through three primitives:

* ``span(name)`` -- a context manager timing a (possibly nested) phase.
  Nested spans accumulate under a ``/``-joined hierarchical path, so
  ``greedy/rank`` and ``greedy/commit/atpg`` line up into a call-tree
  breakdown without any explicit parent bookkeeping;
* ``incr(name, n)`` -- monotonic counters (vectors simulated, faults
  dropped, cache hits, PODEM backtracks, ...);
* ``gauge(name, value)`` / ``gauge_max(name, value)`` -- last-value and
  high-watermark readings (cone sizes, shortlist lengths).

Instrumented code never checks an "am I enabled" flag: it records into
whichever instance it was handed, and the disabled path is the shared
:data:`NULL` instance -- a :class:`NullInstrumentation` whose primitives
are no-ops and whose ``span`` hands back one reusable do-nothing context
manager.  A handful of no-op method calls per candidate fault is the
entire disabled-mode overhead, which keeps the hot candidate-ranking
loop within noise of the uninstrumented baseline (pinned by the
``bench_candidate_ranking`` acceptance threshold).

A module-level *active* instance (:func:`get_active` / :func:`use`)
lets entry points like the CLI switch instrumentation on for everything
constructed inside a ``with use(instr):`` block without threading the
object through every constructor by hand; library classes still accept
an explicit ``obs=`` override.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Instrumentation",
    "NullInstrumentation",
    "NULL",
    "TimerStat",
    "get_active",
    "set_active",
    "use",
]


class TimerStat:
    """Accumulated wall time and call count of one span path."""

    __slots__ = ("total_s", "count")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"total_s": self.total_s, "count": self.count}


class _SpanContext:
    """Reusable timing context for one instrumentation instance.

    Spans nest: entering pushes the name onto the instrumentation's
    path stack (forming the hierarchical key), exiting pops it and adds
    the elapsed wall time to that path's :class:`TimerStat`.  When a
    :class:`~repro.obs.trace.TraceRecorder` is attached to the
    instrumentation (``obs.tracer``), every span additionally becomes
    one trace event with an explicit parent id; the ``tracer is None``
    fast path keeps the untraced overhead at one attribute check.
    """

    __slots__ = ("_obs", "_name", "_path", "_t0")

    def __init__(self, obs: "Instrumentation", name: str) -> None:
        self._obs = obs
        self._name = name

    def __enter__(self) -> "_SpanContext":
        stack = self._obs._stack
        stack.append(self._name)
        self._path = "/".join(stack)
        tracer = self._obs.tracer
        if tracer is not None:
            tracer.begin(self._path)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        elapsed = t1 - self._t0
        path = self._path
        self._obs._stack.pop()
        stat = self._obs.timers.get(path)
        if stat is None:
            stat = self._obs.timers[path] = TimerStat()
        stat.total_s += elapsed
        stat.count += 1
        tracer = self._obs.tracer
        if tracer is not None:
            tracer.end(path, self._t0, t1)


class Instrumentation:
    """Per-run telemetry registry: hierarchical timers, counters, gauges."""

    enabled = True

    #: Optional :class:`~repro.obs.trace.TraceRecorder`.  A class-level
    #: default (rather than per-instance in ``__init__``) so
    #: :class:`NullInstrumentation` shares it without an ``__init__``
    #: of its own.
    tracer = None

    def __init__(self) -> None:
        self.timers: Dict[str, TimerStat] = {}
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._stack: List[str] = []

    # -- recording primitives -----------------------------------------
    def span(self, name: str) -> _SpanContext:
        """Time a phase; nested spans build ``/``-joined paths."""
        return _SpanContext(self, name)

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a monotonic counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record a last-value gauge."""
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Record a high-watermark gauge."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # -- reading ------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict view of everything recorded so far (JSON-ready)."""
        return {
            "timers": {k: v.as_dict() for k, v in self.timers.items()},
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    def counters_since(self, baseline: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas against an earlier ``dict(self.counters)`` copy."""
        return {
            k: v - baseline.get(k, 0)
            for k, v in self.counters.items()
            if v != baseline.get(k, 0)
        }

    def reset(self) -> None:
        self.timers.clear()
        self.counters.clear()
        self.gauges.clear()
        self._stack.clear()


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullInstrumentation(Instrumentation):
    """Disabled instrumentation: every primitive is a no-op."""

    enabled = False

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def incr(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass


#: The process-wide disabled instance.  Instrumented code holds a
#: reference to this when no registry is active, so the hot paths pay
#: only no-op method calls.
NULL = NullInstrumentation()

_active: Instrumentation = NULL


def get_active() -> Instrumentation:
    """The currently active registry (:data:`NULL` when none)."""
    return _active


def set_active(instr: Optional[Instrumentation]) -> Instrumentation:
    """Install ``instr`` as the active registry; returns the previous one."""
    global _active
    previous = _active
    _active = instr if instr is not None else NULL
    return previous


@contextmanager
def use(instr: Optional[Instrumentation]) -> Iterator[Instrumentation]:
    """Activate ``instr`` for the duration of a ``with`` block."""
    previous = set_active(instr)
    try:
        yield get_active()
    finally:
        set_active(previous)
