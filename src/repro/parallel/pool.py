"""Process-parallel phase-2 candidate scoring.

The greedy loop spends nearly all wall-clock scoring the per-iteration
candidate shortlist (ER fault simulation per candidate), and every
candidate is independent of every other: classic embarrassing
parallelism.  :class:`ScoringPool` shards the shortlist across worker
processes, each of which holds a private :class:`MetricsEstimator`
bound to the *original* circuit and the coordinator's exact vector
batch, and merges the per-fault ``(ER, observed-ES, dropped)`` stats
back in shortlist order.

Design points:

* **Ship the base once per worker.**  The original circuit and the
  vector batch travel in the pool initializer: with the ``fork`` start
  method (the default where available) the workers inherit both by
  copy-on-write without any pickling; under ``spawn`` the vector batch
  rides in a :mod:`multiprocessing.shared_memory` buffer where
  available (falling back to a one-time pickle) and only the circuit is
  pickled once per worker.  Each worker then pays the fault-free
  baseline simulation once, exactly like the coordinator did.
* **Per-iteration state is tiny.**  A scoring call ships only the
  current simplified netlist (~tens of KB pickled) and the fault shard;
  workers cache the netlist per generation so the cone-plan and
  batch-simulator caches stay warm when a worker scores several shards
  of one iteration.
* **Determinism.**  Shards are contiguous slices of the shortlist and
  results are concatenated in shard order, so the merged stats list is
  element-for-element identical to the serial
  :meth:`MetricsEstimator.simulate_faults` call -- parallel runs select
  the *same* fault sequence as serial runs (pinned by
  ``tests/parallel/test_pool.py``).
* **Graceful degradation.**  A crashed or timed-out worker never kills
  the run: the affected shard is re-scored in-process via the
  coordinator's own estimator, a ``parallel.shard_fallbacks`` counter
  is emitted to :mod:`repro.obs`, and the pool is rebuilt lazily for
  the next call.

``resolve_workers`` centralizes the worker-count policy: an explicit
count wins, ``None`` consults the ``REPRO_WORKERS`` environment
variable (the ops knob CI uses to run the whole suite under parallel
scoring), and ``0`` or a negative count means "one per CPU".
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..faults.model import StuckAtFault
from ..metrics.estimate import MetricsEstimator
from ..obs.core import Instrumentation, get_active
from ..simulation.batchfaultsim import FaultBatchStats

__all__ = ["ScoringPool", "resolve_workers"]

#: Environment override for the default worker count (see
#: :func:`resolve_workers`).  CI sets ``REPRO_WORKERS=2`` in a second
#: job so the tier-1 suite exercises the parallel scoring path.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int]) -> int:
    """Resolve a worker-count request to a concrete positive count.

    ``None`` reads :data:`WORKERS_ENV` (default 1 -- serial);
    ``0`` or negative means one worker per CPU.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        workers = int(env)
    workers = int(workers)
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


# ----------------------------------------------------------------------
# worker-process side
# ----------------------------------------------------------------------
# One module-global estimator per worker process, installed by the pool
# initializer.  ``_WORKER_GEN``/``_WORKER_CURRENT`` cache the latest
# scored netlist so several shards of one iteration reuse the compiled
# batch simulator.  ``_WORKER_OBS`` exists only when the coordinator is
# tracing: its :class:`~repro.obs.trace.TraceRecorder` buffers this
# worker's span events, drained into every shard result.
_WORKER_EST: Optional[MetricsEstimator] = None
_WORKER_SHM = None  # keeps an attached SharedMemory segment alive
_WORKER_GEN: int = -1
_WORKER_CURRENT: Optional[Circuit] = None
_WORKER_OBS: Optional[Instrumentation] = None
_WORKER_TELEMETRY: bool = False


#: How often a worker checks that its coordinator is still alive.
_PARENT_POLL_S = 0.5


def _watch_coordinator(coordinator: int) -> None:
    """Exit this worker once its coordinator has died.

    A worker blocks reading the executor's call queue, and it holds a
    write end of that pipe itself, so a SIGKILLed coordinator never
    gives it EOF.  A daemon thread notices the reparenting instead.
    ``coordinator`` is the PID the coordinator passed in, not this
    process's parent at start-up: a coordinator killed before the
    initializer ran has already been replaced as parent, so the worker
    exits at once.
    """
    import threading

    def watch() -> None:
        while os.getppid() == coordinator:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="coordinator-watch", daemon=True).start()


def _init_worker(
    coordinator: int,
    circuit: Circuit,
    vectors: Optional[np.ndarray],
    shm_spec: Optional[Tuple[str, Tuple[int, int]]],
    value_outputs: Optional[Tuple[str, ...]],
    trace: bool = False,
    telemetry: bool = False,
) -> None:
    """Build the per-worker estimator once (the pickle-once shipment)."""
    global _WORKER_EST, _WORKER_SHM, _WORKER_OBS, _WORKER_TELEMETRY
    _watch_coordinator(coordinator)
    _WORKER_TELEMETRY = bool(telemetry)
    if shm_spec is not None:
        from multiprocessing import shared_memory

        name, shape = shm_spec
        shm = shared_memory.SharedMemory(name=name)
        try:
            # The coordinator owns the segment's lifetime; stop this
            # process's resource tracker from unlinking it at exit.
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        _WORKER_SHM = shm
        vectors = np.ndarray(shape, dtype=np.bool_, buffer=shm.buf)
    _WORKER_OBS = None
    if trace:
        from ..obs.trace import TraceRecorder

        _WORKER_OBS = Instrumentation()
        _WORKER_OBS.tracer = TraceRecorder()
    _WORKER_EST = MetricsEstimator(
        circuit,
        vectors=vectors,
        value_outputs=value_outputs,
        obs=_WORKER_OBS,
    )


def _score_shard(
    gen: int,
    approx_blob: Optional[bytes],
    faults: Sequence[StuckAtFault],
    rs_drop_threshold: Optional[float],
) -> Tuple[
    List[Tuple[int, int, int, bool, int]], Optional[list], Optional[list]
]:
    """Score one fault shard against the cached-or-shipped netlist.

    Returns compact per-fault rows (the fault objects stay on the
    coordinator) in shard order, plus this worker's drained span-trace
    buffer when the coordinator is tracing, plus one RSS/CPU telemetry
    reading when the coordinator runs a telemetry monitor (``None``
    each otherwise).  Workers run no sampler threads: one reading per
    scored shard is enough for a utilization series, and shard results
    are the channel that already exists.
    """
    global _WORKER_GEN, _WORKER_CURRENT
    if _WORKER_EST is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("scoring worker used before initialization")
    if gen != _WORKER_GEN:
        _WORKER_CURRENT = (
            pickle.loads(approx_blob) if approx_blob is not None else None
        )
        _WORKER_GEN = gen
    obs = _WORKER_OBS if _WORKER_OBS is not None else get_active()
    with obs.span("shard"):
        stats = _WORKER_EST.simulate_faults(
            faults, approx=_WORKER_CURRENT, rs_drop_threshold=rs_drop_threshold
        )
    rows = [
        (
            st.detected_count,
            st.max_abs_deviation,
            st.sum_abs_deviation,
            st.dropped,
            st.words_simulated,
        )
        for st in stats
    ]
    trace_events = (
        _WORKER_OBS.tracer.drain()
        if _WORKER_OBS is not None and _WORKER_OBS.tracer is not None
        else None
    )
    telemetry_samples = None
    if _WORKER_TELEMETRY:
        from ..obs.telemetry import worker_sample

        telemetry_samples = [worker_sample()]
    return rows, trace_events, telemetry_samples


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
class ScoringPool:
    """Deterministic process-pool front end for candidate scoring.

    Bound to one coordinator :class:`MetricsEstimator` (which doubles as
    the in-process fallback) and a worker count.  ``simulate_faults``
    mirrors :meth:`MetricsEstimator.simulate_faults` exactly -- same
    arguments, same stats, same order -- so the greedy loop swaps it in
    without touching the ranking logic.

    ``timeout_s`` bounds each shard's remote execution; on timeout the
    shard falls back in-process and the pool restarts.  ``start_method``
    overrides the multiprocessing start method (tests exercise the
    ``spawn`` + shared-memory path explicitly; the default prefers
    ``fork``).
    """

    def __init__(
        self,
        estimator: MetricsEstimator,
        workers: Optional[int] = None,
        obs: Optional[Instrumentation] = None,
        timeout_s: Optional[float] = None,
        start_method: Optional[str] = None,
    ) -> None:
        import multiprocessing as mp

        self.estimator = estimator
        self.workers = resolve_workers(workers)
        self.obs = obs if obs is not None else get_active()
        self.timeout_s = timeout_s
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = mp.get_context(start_method)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._shm = None
        self._gen = 0
        self.obs.gauge("parallel.workers", self.workers)

    # ------------------------------------------------------------------
    def simulate_faults(
        self,
        faults: Sequence[StuckAtFault],
        approx: Optional[Circuit] = None,
        rs_drop_threshold: Optional[float] = None,
    ) -> List[FaultBatchStats]:
        """Per-fault differential stats, sharded across the pool.

        Bit-identical to the serial
        :meth:`MetricsEstimator.simulate_faults`; any worker failure
        degrades the affected shard to in-process scoring.
        """
        faults = list(faults)
        if not faults:
            return []
        if self.workers <= 1:
            return self._score_local(faults, approx, rs_drop_threshold)
        self._gen += 1
        shards = self._shard(faults)
        try:
            executor = self._ensure_executor()
            approx_blob = (
                pickle.dumps(approx, protocol=pickle.HIGHEST_PROTOCOL)
                if approx is not None
                else None
            )
            futures = [
                executor.submit(
                    _score_shard, self._gen, approx_blob, shard, rs_drop_threshold
                )
                for shard in shards
            ]
        except Exception:
            # Pool construction/submission failed outright (e.g. fork
            # refused under memory pressure): score everything locally.
            self.obs.incr("parallel.pool_failures")
            self._restart()
            return self._score_local(faults, approx, rs_drop_threshold)
        self.obs.incr("parallel.shards_dispatched", len(shards))

        merged: List[FaultBatchStats] = []
        broken = False
        for shard, future in zip(shards, futures):
            try:
                rows, worker_trace, worker_telemetry = future.result(
                    timeout=self.timeout_s
                )
                merged.extend(self._rebuild(shard, rows))
                self.obs.incr("parallel.faults_scored_remote", len(shard))
                # Worker span buffers merge in shard order -- the same
                # deterministic order the stats merge uses -- so a trace
                # is reproducible for a fixed shard-to-worker assignment.
                if worker_trace and self.obs.tracer is not None:
                    self.obs.tracer.add_remote(worker_trace)
                    self.obs.incr("parallel.trace_events_merged", len(worker_trace))
                if worker_telemetry and self.obs.telemetry is not None:
                    self.obs.telemetry.add_worker_samples(worker_telemetry)
            except Exception:
                # Crash, timeout, or a poisoned pool: this shard (and
                # any later one that also fails) is scored in-process.
                broken = True
                self.obs.incr("parallel.shard_fallbacks")
                merged.extend(self._score_local(shard, approx, rs_drop_threshold))
        if broken:
            self._restart()
        return merged

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the executor down and release the shared vector buffer."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._shm is not None:
            try:
                self._shm.close()
                self._shm.unlink()
            except Exception:
                pass
            self._shm = None

    def __enter__(self) -> "ScoringPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _shard(self, faults: List[StuckAtFault]) -> List[List[StuckAtFault]]:
        """Contiguous near-equal slices, one per worker (order-preserving)."""
        n = len(faults)
        k = min(self.workers, n)
        size, extra = divmod(n, k)
        shards = []
        lo = 0
        for i in range(k):
            hi = lo + size + (1 if i < extra else 0)
            shards.append(faults[lo:hi])
            lo = hi
        return shards

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            est = self.estimator
            vectors: Optional[np.ndarray] = est.vectors
            shm_spec = None
            if self._ctx.get_start_method() != "fork":
                shm_spec = self._share_vectors(est.vectors)
                if shm_spec is not None:
                    vectors = None
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._ctx,
                initializer=_init_worker,
                initargs=(
                    os.getpid(),
                    est.circuit,
                    vectors,
                    shm_spec,
                    est.value_outputs,
                    self.obs.tracer is not None,
                    self.obs.telemetry is not None,
                ),
            )
        return self._executor

    def _share_vectors(self, vectors: np.ndarray):
        """Place the vector batch in shared memory (non-fork platforms)."""
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(
                create=True, size=max(1, vectors.nbytes)
            )
        except Exception:
            return None  # fall back to pickling the batch per worker
        view = np.ndarray(vectors.shape, dtype=np.bool_, buffer=shm.buf)
        view[:] = vectors
        self._shm = shm
        self.obs.incr("parallel.shm_bytes", int(vectors.nbytes))
        return (shm.name, tuple(vectors.shape))

    def _restart(self) -> None:
        self.obs.incr("parallel.pool_restarts")
        self.close()

    def _score_local(
        self,
        faults: Sequence[StuckAtFault],
        approx: Optional[Circuit],
        rs_drop_threshold: Optional[float],
    ) -> List[FaultBatchStats]:
        self.obs.incr("parallel.faults_scored_local", len(faults))
        return self.estimator.simulate_faults(
            faults, approx=approx, rs_drop_threshold=rs_drop_threshold
        )

    def _rebuild(
        self,
        shard: Sequence[StuckAtFault],
        rows: Sequence[Tuple[int, int, int, bool, int]],
    ) -> List[FaultBatchStats]:
        if len(rows) != len(shard):
            raise RuntimeError(
                f"worker returned {len(rows)} rows for a {len(shard)}-fault shard"
            )
        n = self.estimator.num_vectors
        return [
            FaultBatchStats(
                fault=fault,
                num_vectors=n,
                detected_count=detected,
                max_abs_deviation=max_dev,
                sum_abs_deviation=sum_dev,
                dropped=dropped,
                words_simulated=words,
            )
            for fault, (detected, max_dev, sum_dev, dropped, words) in zip(
                shard, rows
            )
        ]
