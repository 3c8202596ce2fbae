"""Background resource telemetry: sampled RSS, CPU and throughput.

A :class:`TelemetryMonitor` is a daemon sampling thread reading one
:class:`~repro.obs.core.Instrumentation` registry.  On a configurable
interval -- plus once at start and once at stop, so even sub-interval
runs record a usable series -- it reads, with stdlib primitives only:

* **RSS bytes** from ``/proc/self/statm`` (pages x page size), falling
  back to ``resource.getrusage(...).ru_maxrss`` where procfs is absent
  (that fallback reports the process-lifetime *peak*, which is still a
  correct high-watermark);
* **CPU seconds** from ``os.times()`` (user + system of this process);
* **throughput gauges** derived from counter deltas between samples:
  ``patterns_per_s`` (vectors through the good/fault simulators),
  ``faults_per_s`` (candidate faults scored by batch fault simulation)
  and ``candidates_per_s`` (shortlist entries ranked by the greedy
  loop).

Each sample lands in three places at once: the instrumentation gauges
(``telemetry.rss_bytes``, high-watermark ``telemetry.rss_peak_bytes``,
and one gauge per rate -- so the journal summary and ``repro report``
see the final readings), a journal-v4 ``telemetry`` event emitted
through the run's sink tee (so ``repro profile`` can render the RSS
timeline of a dead run from its journal alone), and -- when a
:class:`~repro.obs.trace.TraceRecorder` is attached -- Chrome-trace
counter tracks (``"ph": "C"``), so Perfetto draws RSS/throughput under
the run's span lane.

The monitor emits journal events from its thread while the greedy loop
emits from the main thread; :class:`~repro.obs.journal.RunJournal` and
:class:`~repro.obs.progress.ProgressReporter` serialize concurrent
emitters internally, so the sink tee needs no extra locking here.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "TelemetryMonitor",
    "cpu_seconds",
    "sample_rss_bytes",
]

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover - non-POSIX
    _PAGE_SIZE = 4096


def sample_rss_bytes() -> int:
    """Current resident-set size of this process in bytes.

    ``/proc/self/statm`` field 1 is resident pages; where procfs is
    unavailable the ``ru_maxrss`` fallback reports the lifetime peak
    (kilobytes on Linux), and a platform with neither reads 0 rather
    than failing the run.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    except Exception:  # pragma: no cover - resource always importable on POSIX
        return 0


def peak_rss_bytes() -> int:
    """Process-lifetime peak RSS in bytes (``ru_maxrss``; 0 if unknown)."""
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    except Exception:  # pragma: no cover
        return 0


def cpu_seconds() -> float:
    """Cumulative CPU seconds (user + system) of this process."""
    t = os.times()
    return t.user + t.system


#: rate gauge -> the monotonic counters whose summed delta feeds it.
THROUGHPUT_SOURCES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "patterns_per_s",
        ("estimator.vectors_simulated", "faultsim.vectors_simulated"),
    ),
    ("faults_per_s", ("batchsim.faults_evaluated",)),
    ("candidates_per_s", ("greedy.candidates_scored",)),
)


class TelemetryMonitor:
    """Interval sampler feeding gauges, journal events and trace counters.

    Parameters
    ----------
    obs:
        The instrumentation registry to read counters from and record
        gauges into (also consulted for an attached tracer).
    sink:
        Anything with ``emit(event)`` -- usually the greedy loop's
        journal tee; ``None`` keeps the samples in ``self.samples``
        (and the gauges/trace) only.
    interval_s:
        Seconds between samples (clamped to >= 10 ms).
    trace_id:
        Optional correlation id stamped into every emitted telemetry
        event, linking the samples to the service submission that
        started this run.
    """

    def __init__(
        self,
        obs,
        sink=None,
        interval_s: float = 1.0,
        trace_id: Optional[str] = None,
    ) -> None:
        self.obs = obs
        self.sink = sink
        self.trace_id = trace_id
        self.interval_s = max(float(interval_s), 0.01)
        self.pid = os.getpid()
        self.samples: List[Dict] = []
        self.epoch: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._prev_t: Optional[float] = None
        self._prev_counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def start(self) -> "TelemetryMonitor":
        """Take the first sample and launch the daemon sampling thread."""
        if self._thread is not None:
            return self
        self.epoch = time.perf_counter()
        self._stop.clear()
        self.sample()
        self._thread = threading.Thread(
            target=self._loop, name="repro-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample (so short runs
        still record a start/end pair)."""
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join(timeout=max(5.0, 4 * self.interval_s))
            self._thread = None
        if self.epoch is not None:
            self.sample()

    def __enter__(self) -> "TelemetryMonitor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.sample()
            except Exception:  # pragma: no cover - never kill the run
                self.obs.incr("telemetry.sample_errors")

    # ------------------------------------------------------------------
    def sample(self) -> Dict:
        """Take one sample; record, journal and trace it."""
        now = time.perf_counter()
        rss = sample_rss_bytes()
        cpu = cpu_seconds()
        with self._lock:
            if self.epoch is None:
                self.epoch = now
            t_s = now - self.epoch
            counters = dict(self.obs.counters)
            rates = self._rates(t_s, counters)
            self._prev_t = t_s
            self._prev_counters = counters
            event = {
                "event": "telemetry",
                "t_s": round(t_s, 6),
                "pid": self.pid,
                "lane": "coordinator",
                "rss_bytes": rss,
                "cpu_s": round(cpu, 6),
                "gauges": rates,
            }
            if self.trace_id is not None:
                event["trace_id"] = self.trace_id
            self.samples.append(event)
            self.obs.gauge("telemetry.rss_bytes", rss)
            self.obs.gauge_max("telemetry.rss_peak_bytes", rss)
            self.obs.gauge("telemetry.cpu_s", cpu)
            self.obs.gauge_max("telemetry.samples", len(self.samples))
            for name, rate in rates.items():
                self.obs.gauge(f"telemetry.{name}", rate)
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.add_counter("rss_mb", now, rss / 1e6)
                for name, rate in rates.items():
                    tracer.add_counter(name, now, rate)
            if self.sink is not None:
                self.sink.emit(event)
        return event

    def _rates(self, t_s: float, counters: Dict[str, int]) -> Dict[str, float]:
        """Throughput gauges from counter deltas since the last sample."""
        rates: Dict[str, float] = {}
        if self._prev_t is None:
            return {name: 0.0 for name, _src in THROUGHPUT_SOURCES}
        dt = t_s - self._prev_t
        if dt <= 0:
            return {name: 0.0 for name, _src in THROUGHPUT_SOURCES}
        for name, sources in THROUGHPUT_SOURCES:
            delta = sum(
                counters.get(c, 0) - self._prev_counters.get(c, 0)
                for c in sources
            )
            rates[name] = round(delta / dt, 3)
        return rates
