"""Chrome-trace export of span activity: ``repro simplify --trace out.json``.

A :class:`TraceRecorder` attached to an
:class:`~repro.obs.core.Instrumentation` (``obs.tracer = recorder``)
turns every span into one *trace event*: the span's hierarchical path,
its begin/end :func:`time.perf_counter` readings, and an explicit
parent id derived from the recorder's open-span stack (spans are
context managers, so they close strictly LIFO and the stack *is* the
parent chain).

On export, :func:`to_chrome_trace` rebases the readings against the
recorder's epoch and hands them to :func:`chrome_trace_from_spans`, the
one renderer of the Chrome trace event format (the ``traceEvents``
array of ``"ph": "X"`` complete events that ``chrome://tracing``,
Perfetto and catapult load directly), which the job server's
``/trace`` route uses too.  A run is one ``repro coordinator`` lane;
span ids are namespaced by pid (``"<pid>:<n>"``).

Besides spans, a recorder carries **counter events** (``add_counter``):
sampled series -- RSS, CPU, throughput rates from
:mod:`repro.obs.telemetry` -- exported as Chrome-trace counter records
(``"ph": "C"``), which Perfetto renders as one counter track per name
under the span lane.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "SpanEvent",
    "CounterEvent",
    "TraceRecorder",
    "chrome_trace_from_spans",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: One completed span: (span id, parent id or None, hierarchical path,
#: begin perf_counter, end perf_counter).
SpanEvent = Tuple[int, Optional[int], str, float, float]

#: One sampled counter reading: (track name, perf_counter instant, value).
CounterEvent = Tuple[str, float, float]


class TraceRecorder:
    """Buffer of one process's completed span events.

    ``pid`` names the exported lane and namespaces span ids; the
    ``epoch`` -- the construction instant -- is the zero point of the
    exported timeline.
    """

    def __init__(self, pid: Optional[int] = None) -> None:
        self.pid = os.getpid() if pid is None else int(pid)
        self.epoch = time.perf_counter()
        self.events: List[SpanEvent] = []
        self.counter_events: List[CounterEvent] = []
        self._open: List[Tuple[int, Optional[int]]] = []  # (id, parent)
        self._next_id = 0

    # -- recording (called from the span fast path) --------------------
    def begin(self, path: str) -> None:
        """Open a span: assign its id, remember its parent."""
        parent = self._open[-1][0] if self._open else None
        self._open.append((self._next_id, parent))
        self._next_id += 1

    def end(self, path: str, t0: float, t1: float) -> None:
        """Close the innermost open span into a completed event."""
        span_id, parent = self._open.pop()
        self.events.append((span_id, parent, path, t0, t1))

    def add_counter(self, name: str, instant: float, value: float) -> None:
        """Record one sampled counter reading (a ``"ph": "C"`` track
        point on export)."""
        self.counter_events.append((name, float(instant), float(value)))


def to_chrome_trace(recorder: TraceRecorder) -> Dict:
    """Render a recorder's events as a Chrome trace-format object.

    Every span becomes a complete (``"ph": "X"``) slice with
    microsecond timestamps relative to the recorder's epoch, in
    begin-time order (a parent before the children it contains);
    ``args`` carries the full span path and the explicit
    ``id``/``parent`` pair (ids namespaced ``"<pid>:<n>"``).  Sampled
    counter readings become ``"ph": "C"`` records.  The one lane is
    named ``repro coordinator`` by a ``process_name`` metadata record.
    """
    pid, epoch = recorder.pid, recorder.epoch
    spans = sorted(recorder.events, key=lambda ev: (ev[3], -(ev[4] - ev[3]), ev[0]))
    return chrome_trace_from_spans(
        (
            {
                "pid": pid,
                "name": path.rsplit("/", 1)[-1],
                "t0_s": t0 - epoch,
                "t1_s": t1 - epoch,
                "args": {
                    "path": path,
                    "id": f"{pid}:{span_id}",
                    "parent": None if parent is None else f"{pid}:{parent}",
                },
            }
            for span_id, parent, path, t0, t1 in spans
        ),
        counters=(
            {"pid": pid, "name": name, "t_s": instant - epoch, "value": value}
            for name, instant, value in recorder.counter_events
        ),
        lane_names={pid: "repro coordinator"},
    )


def chrome_trace_from_spans(
    spans: Iterable[Dict],
    counters: Iterable[Dict] = (),
    lane_names: Optional[Dict[int, str]] = None,
    metadata: Optional[Dict] = None,
) -> Dict:
    """Build a Chrome trace object from explicit span/counter dicts.

    The one Chrome-trace renderer: :func:`to_chrome_trace` feeds it a
    recorder's spans, and the job server's ``GET /v1/jobs/<id>/trace``
    assembles queue-wait and attempt spans from service-side timestamps
    and runner spans from the job's journal, all on one shared
    zero-based clock.

    * ``spans``: ``{"pid", "name", "t0_s", "t1_s", "args"?}`` -- one
      complete (``"ph": "X"``) slice each, times in seconds;
    * ``counters``: ``{"pid", "name", "t_s", "value"}`` -- sampled
      ``"ph": "C"`` track points;
    * ``lane_names``: ``{pid: label}`` rendered as ``process_name``
      metadata records;
    * ``metadata``: extra args attached to every lane's metadata record
      (e.g. the trace id).
    """
    spans = list(spans)
    counters = list(counters)
    lane_names = dict(lane_names or {})
    pids = sorted(
        {s["pid"] for s in spans}
        | {c["pid"] for c in counters}
        | set(lane_names)
    )
    trace_events: List[Dict] = []
    for pid in pids:
        args: Dict = {"name": lane_names.get(pid, f"lane {pid}")}
        if metadata:
            args.update(metadata)
        trace_events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": args}
        )
    for span in sorted(spans, key=lambda s: (s["pid"], s["t0_s"])):
        trace_events.append(
            {
                "name": span["name"],
                "cat": "span",
                "ph": "X",
                "ts": span["t0_s"] * 1e6,
                "dur": max(span["t1_s"] - span["t0_s"], 0.0) * 1e6,
                "pid": span["pid"],
                "tid": 0,
                "args": dict(span.get("args") or {}),
            }
        )
    for point in sorted(counters, key=lambda c: (c["pid"], c["name"], c["t_s"])):
        trace_events.append(
            {
                "name": point["name"],
                "cat": "telemetry",
                "ph": "C",
                "ts": point["t_s"] * 1e6,
                "pid": point["pid"],
                "tid": 0,
                "args": {"value": point["value"]},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Union[str, os.PathLike], recorder: TraceRecorder
) -> int:
    """Write the Chrome trace JSON for ``recorder``; returns the number
    of span events exported."""
    payload = to_chrome_trace(recorder)
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    return sum(1 for ev in payload["traceEvents"] if ev.get("ph") == "X")
