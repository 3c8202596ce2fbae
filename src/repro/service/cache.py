"""Content-addressed result cache: ``(circuit, request) -> outcome``.

The cache key is the pair of content digests
``sha256(circuit_fingerprint + ":" + request.fingerprint())``:

* :func:`~repro.simulation.compiled.circuit_fingerprint` digests the
  simulated *structure* (inputs + gates), extended here with the output
  list, weights and data flags, because two structurally identical
  netlists with different output weighting have different RS budgets
  and therefore different outcomes;
* :meth:`~repro.core.api.SimplifyRequest.fingerprint` digests the
  semantic request fields (durability paths and worker counts are
  excluded; parallel runs are bit-identical to serial runs).

Entries are whole ``SimplifyOutcome`` JSON documents stored as
``cache/<key>.json`` under the service data dir, written atomically
(tmp + ``os.replace``) so a crashed write never leaves a torn entry.
The store is the persistence layer behind the job server's
deduplication: a million identical submissions cost one run -- the
first populates the entry, every later one is served from disk.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Optional

from ..circuit import Circuit
from ..core.api import SimplifyRequest

__all__ = ["ResultCache", "cache_key"]


def circuit_cache_fingerprint(circuit: Circuit) -> str:
    """Structure digest extended with the output/weight annotations."""
    from ..simulation.compiled import circuit_fingerprint

    h = hashlib.sha256()
    h.update(circuit_fingerprint(circuit).encode())
    for o in circuit.outputs:
        h.update(b"o\x00")
        h.update(o.encode())
        h.update(str(int(circuit.output_weights.get(o, 1))).encode())
        h.update(b"d" if o in set(circuit.data_outputs) else b"c")
    return h.hexdigest()


def cache_key(circuit: Circuit, request: SimplifyRequest) -> str:
    """The content address of one (netlist, request) submission."""
    pair = f"{circuit_cache_fingerprint(circuit)}:{request.fingerprint()}"
    return hashlib.sha256(pair.encode("utf-8")).hexdigest()


class ResultCache:
    """Disk-backed map from cache key to outcome JSON text.

    Values are opaque JSON strings (the server never needs the parsed
    outcome, only its bytes); a small in-memory index avoids repeated
    stat calls for hot keys.  All methods are thread-safe.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        self._known = {
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        }

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._known:
                return True
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        with self._lock:
            return len(self._known)

    def get(self, key: str) -> Optional[str]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            return None
        with self._lock:
            self._known.add(key)
        return text

    def put(self, key: str, outcome_json: str) -> None:
        """Atomically store one outcome document under ``key``."""
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(outcome_json)
            if not outcome_json.endswith("\n"):
                fh.write("\n")
        os.replace(tmp, path)
        with self._lock:
            self._known.add(key)
