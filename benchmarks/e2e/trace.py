"""Outside-in layer tracer for the end-to-end benchmark.

:class:`Tracer` wraps each layer's public function at the name its
caller looks it up -- a module attribute, or a method on its class --
so the program itself is unchanged.  Every call becomes an in-memory
span (name, start, end, parent span, run id); argument and return
values feed the per-layer counts the ratios are made of.  ``uninstall``
puts every original back, and :func:`surviving_wrappers` proves it.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import threading
import time
from typing import Dict, List, Tuple

# (boundary, module, attribute) -- a boundary may be bound at several
# names: greedy binds the fault enumerators and the area preview at
# import, and the service runner binds ``simplify`` the same way.
BINDINGS = (
    ("core.api.simplify", "repro.core.api", "simplify"),
    ("core.api.simplify", "repro.service.runner", "simplify"),
    ("service.runner.run_job", "repro.service.runner", "run_job"),
    ("circuit.bench.loads_bench", "repro.service.runner", "loads_bench"),
    ("faults.enumerate", "repro.simplify.greedy", "datapath_faults"),
    ("faults.enumerate", "repro.simplify.greedy", "enumerate_faults"),
    ("faults.collapse", "repro.faults.collapse", "collapse_faults"),
    ("simplify.engine.preview", "repro.simplify.greedy", "preview_area_reduction"),
    ("simplify.engine.materialize", "repro.simplify.engine", "Overlay.materialize"),
    ("atpg.podem.run", "repro.atpg.podem", "Podem.run"),
    ("atpg.es_atpg.decide", "repro.atpg.es_atpg", "EsAtpg.decide"),
    ("simulation.faultsim.differential", "repro.simulation.faultsim",
     "FaultSimulator.differential"),
    ("simulation.batchfaultsim.evaluate", "repro.simulation.batchfaultsim",
     "BatchFaultSimulator.evaluate"),
    ("metrics.estimate.simulate_faults", "repro.metrics.estimate",
     "MetricsEstimator.simulate_faults"),
    ("metrics.estimate.check_rs", "repro.metrics.estimate", "MetricsEstimator.check_rs"),
    ("metrics.estimate.simulate", "repro.metrics.estimate", "MetricsEstimator.simulate"),
    ("simulation.compiled.compile", "repro.simulation.compiled", "compile_program"),
    ("simulation.compiled.run_packed", "repro.simulation.compiled",
     "CompiledSimulator.run_packed"),
    ("obs.journal.emit", "repro.obs.journal", "RunJournal.emit"),
    ("obs.progress.emit", "repro.obs.progress", "ProgressReporter.emit"),
    ("parallel.checkpoint.replay", "repro.parallel.checkpoint", "replay_checkpoint"),
)

BOUNDARIES = tuple(dict.fromkeys(name for name, _module, _attr in BINDINGS))

_MARK = "__e2e_boundary__"


def _observe_podem(counts, args, result):
    counts["podem.redundant"] += result.status.value == "redundant"


def _observe_decide(counts, args, result):
    counts["es_atpg.unsat"] += result.status.value == "unsat"
    counts["es_atpg.aborted"] += result.status.value == "aborted"


def _observe_check_rs(counts, args, result):
    counts["check_rs.accepted"] += bool(result[0])


def _observe_evaluate(counts, args, result):
    counts["batch.faults"] += len(result)
    counts["batch.dropped"] += sum(st.dropped for st in result)
    counts["batch.words"] += sum(st.words_simulated for st in result)


def _observe_run_packed(counts, args, result):
    simulator, input_words = args[0], args[1]
    counts["run_packed.bytes"] += simulator.program.num_rows * input_words.shape[1] * 8


_OBSERVERS = {
    "atpg.podem.run": _observe_podem,
    "atpg.es_atpg.decide": _observe_decide,
    "metrics.estimate.check_rs": _observe_check_rs,
    "simulation.batchfaultsim.evaluate": _observe_evaluate,
    "simulation.compiled.run_packed": _observe_run_packed,
}


def _owner(module: str, attr: str):
    """The object holding the binding, and the binding's key on it."""
    owner = importlib.import_module(module)
    *path, key = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, key


def surviving_wrappers() -> List[str]:
    """Bindings that still hold a tracer wrapper (empty after uninstall)."""
    left = []
    for _name, module, attr in BINDINGS:
        owner, key = _owner(module, attr)
        if hasattr(getattr(owner, key), _MARK):
            left.append(f"{module}.{attr}")
    return left


class Tracer:
    """Spans and counts of one traced repetition.

    Only the main thread is traced: the run is serial, and a span stack
    shared with another thread would misattribute self time.
    """

    def __init__(self) -> None:
        # [boundary, start, end, parent span index or None, run id]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = collections.Counter()
        self.run_id = ""
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    def install(self) -> None:
        for name, module, attr in BINDINGS:
            owner, key = _owner(module, attr)
            original = vars(owner)[key] if isinstance(owner, type) else getattr(owner, key)
            setattr(owner, key, self._wrap(name, original, _OBSERVERS.get(name)))
            self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _wrap(self, name: str, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    # ------------------------------------------------------------------
    def self_times(self) -> Tuple[Dict[str, Tuple[int, float]], float]:
        """Per boundary ``(calls, self seconds)``, and the summed wall time
        of the root spans (the calls under test).  Self time is a span's
        duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _run in self.spans:
            if parent is not None:
                covered[parent] += end - start
        per: Dict[str, Tuple[int, float]] = {}
        wall = 0.0
        for (name, start, end, parent, _run), child in zip(self.spans, covered):
            calls, self_s = per.get(name, (0, 0.0))
            per[name] = (calls + 1, self_s + (end - start) - child)
            if parent is None:
                wall += end - start
        return per, wall

    def layer_metrics(self) -> Dict[str, Dict[str, object]]:
        """Every per-layer metric, as ``{name: {"value", "unit"}}``."""
        per, wall = self.self_times()
        calls = {name: per.get(name, (0, 0.0))[0] for name in BOUNDARIES}
        self_s = {name: per.get(name, (0, 0.0))[1] for name in BOUNDARIES}
        c = self.counts
        out: Dict[str, Dict[str, object]] = {}

        def put(name: str, value, unit: str) -> None:
            out[name] = {"value": value, "unit": unit}

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        for name in BOUNDARIES:
            put(f"{name}.calls", calls[name], "count")
            put(f"{name}.self_s", self_s[name], "s")
            put(f"{name}.share", ratio(self_s[name], wall), "ratio")
        put("atpg.podem.redundant_ratio",
            ratio(c["podem.redundant"], calls["atpg.podem.run"]), "ratio")
        put("atpg.es_atpg.unsat_ratio",
            ratio(c["es_atpg.unsat"], calls["atpg.es_atpg.decide"]), "ratio")
        put("atpg.es_atpg.aborted", c["es_atpg.aborted"], "count")
        put("metrics.estimate.check_rs.accept_ratio",
            ratio(c["check_rs.accepted"], calls["metrics.estimate.check_rs"]), "ratio")
        put("simulation.batchfaultsim.faults", c["batch.faults"], "count")
        put("simulation.batchfaultsim.drop_ratio",
            ratio(c["batch.dropped"], c["batch.faults"]), "ratio")
        put("simulation.batchfaultsim.words_simulated", c["batch.words"], "count")
        # rows x words x 8 bytes of value matrix per self second, the
        # basis of the 200 MB/s kernel target in ROADMAP.md
        put("simulation.compiled.run_packed.mb_per_s",
            ratio(c["run_packed.bytes"] / 1e6, self_s["simulation.compiled.run_packed"]),
            "MB/s")
        put("traced_wall_s", wall, "s")
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as a Chrome-trace JSON file, one lane per run id."""
        base = min((span[1] for span in self.spans), default=0.0)
        lanes: Dict[str, int] = {}
        events = []
        for name, start, end, parent, run in self.spans:
            tid = lanes.setdefault(run, len(lanes) + 1)
            events.append({
                "name": name, "cat": "layer", "ph": "X", "pid": os.getpid(), "tid": tid,
                "ts": (start - base) * 1e6, "dur": (end - start) * 1e6,
                "args": {"run": run,
                         "parent": None if parent is None else self.spans[parent][0]},
            })
        for run, tid in lanes.items():
            events.append({"name": "thread_name", "ph": "M", "pid": os.getpid(),
                           "tid": tid, "args": {"name": run}})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
