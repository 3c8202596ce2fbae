"""Machine-speed probe for the end-to-end benchmark.

The reference machine is a share of a host whose speed drifts by a
quarter or more within minutes, and the drift moves every timing
alike.  :class:`Probe` times a fixed chunk of work that shares no code
with the program -- an interpreted netlist walk and a numpy replay over
a small ``uint64`` value matrix, the two kinds of work ``simplify``
does.  Inside a ``with`` block it runs a chunk on a wall-clock timer,
so its chunks sample the machine's speed over the same seconds as the
call in the block.  A timing multiplied by :func:`speed` of the chunks
taken with it measures the program, not the host, in seconds of a
machine on which a chunk takes ``REFERENCE_S``.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

import numpy as np

#: Median chunk time, on the reference machine at its fastest, of the
#: chunks run during a call (README.md).
REFERENCE_S = 0.0037

#: Wall-clock seconds between the chunks run during a call.
INTERVAL_S = 0.25

_GATES = 600
_ROWS = 96  # small enough to stay in cache, so the call's data does not slow it
_WORDS = 157  # 10 000 vectors in 64-bit words


class Probe:
    """Fixed probe work, and the times its timed chunks took."""

    def __init__(self):
        rng = random.Random(7)
        self._netlist = [(rng.randrange(3), rng.randrange(32 + i), rng.randrange(32 + i))
                         for i in range(_GATES)]
        nrng = np.random.default_rng(7)
        self._matrix = nrng.integers(0, 2**63, size=(_ROWS, _WORDS), dtype=np.uint64)
        self._work = np.empty_like(self._matrix)
        self._levels = [(np.sort(nrng.choice(_ROWS, 24, replace=False)),
                         nrng.integers(0, _ROWS, 24), nrng.integers(0, _ROWS, 24))
                        for _ in range(100)]
        #: Times of the chunks the timer ran inside ``with`` blocks.
        self.in_call = []
        self._previous = None

    def _interpreted(self) -> int:
        values = {i: (i * 2654435761) & 0xFFFF for i in range(32)}
        for _ in range(30):
            for i, (op, a, b) in enumerate(self._netlist, start=32):
                x, y = values[a], values[b]
                values[i] = x & y if op == 0 else (x | y if op == 1 else x ^ y)
        return values[_GATES + 31]

    def _vectorized(self) -> int:
        m = self._work
        np.copyto(m, self._matrix)
        for out, a, b in self._levels:
            m[out] = np.bitwise_and(m[a], m[b]) ^ m[out]
        return int(m[-1, -1])

    def chunk(self) -> float:
        """Run one chunk; return the seconds it took."""
        t0 = time.perf_counter()
        self._interpreted()
        self._vectorized()
        return time.perf_counter() - t0

    def run(self, chunks: int) -> list:
        """Times of ``chunks`` chunks run back to back."""
        return [self.chunk() for _ in range(chunks)]

    def _tick(self, _signum, _frame) -> None:
        self.in_call.append(self.chunk())

    def __enter__(self) -> "Probe":
        """Run a chunk every ``INTERVAL_S`` seconds until the block ends."""
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def speed(samples) -> float:
    """How fast the machine ran, relative to the reference (1.0 = as
    fast; 0.8 = a fifth slower): the reference chunk time over the
    median of ``samples``."""
    return REFERENCE_S / statistics.median(samples)
