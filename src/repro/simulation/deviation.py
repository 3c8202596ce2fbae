"""The ES deviation kernel: weighted faulty-minus-good output value.

Error significance (Definition 8 of the paper) is the largest
``|sum_j w_j * (f_j - g_j)|`` over input vectors, where ``f``/``g`` are
the faulty and fault-free values of the data outputs and ``w`` their
numeric weights.  Every simulator that measures a deviation --
:class:`~repro.simulation.faultsim.FaultSimulator`,
:class:`~repro.simulation.batchfaultsim.BatchFaultSimulator`,
:class:`~repro.metrics.estimate.MetricsEstimator` and the exact path of
:class:`~repro.atpg.es_atpg.EsAtpg` -- goes through
:class:`WeightedDeviation`, so there is one place that decides how the
sum is computed and one place that keeps it exact.

The products run as float64 matrix-vector products, which are exact
while every partial sum stays below ``2**53``.  Weights that are too
wide for that (e.g. ``2**i`` weights on more than ~50 outputs) are
split into limbs narrow enough that each limb's product is exact; the
limb products are recombined as Python integers.  The batch fault
simulator sums many faults' cone outputs in one call
(:meth:`WeightedDeviation.segmented`), each fault a segment of columns.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

__all__ = ["WeightedDeviation"]

# Coefficients lie in [-2, 2] (a difference of two bit deltas at most),
# so a product over m weights below 2**bits, with m * 2**bits <= 2**52,
# stays below 2**53 in magnitude: exact in float64.
_EXACT_BITS = 52


class WeightedDeviation:
    """Weighted row sums ``delta @ weights`` of {-1, 0, 1} bit deltas.

    ``delta`` matrices are (vectors x value outputs), typically
    ``faulty_bits - good_bits``; any small-integer coefficients in
    [-2, 2] are allowed.  Results are float64 arrays holding exact
    integers when every weight fits one limb (:attr:`narrow`), object
    arrays of Python ints otherwise -- both support ``abs``, ``max``,
    ``sum`` and ``+`` exactly as the callers need.
    """

    __slots__ = ("narrow", "_limbs", "_bits")

    def __init__(self, weights: Iterable[int]) -> None:
        weights = [int(w) for w in weights]
        self._bits = _EXACT_BITS - max(1, len(weights)).bit_length()
        wmax = max((abs(w) for w in weights), default=0)
        count = max(1, -(-wmax.bit_length() // self._bits))
        mask = (1 << self._bits) - 1
        limbs = [
            [(abs(w) >> (k * self._bits) & mask) * (-1 if w < 0 else 1) for w in weights]
            for k in range(count)
        ]
        self._limbs = np.asarray(limbs, dtype=np.float64).reshape(count, len(weights))
        self.narrow = count == 1

    def signed(self, delta: np.ndarray, cols: Optional[np.ndarray] = None) -> np.ndarray:
        """Signed weighted deviation of every row of ``delta``.

        ``cols`` restricts the weights to those value-output positions
        (``delta`` then has one column per entry of ``cols``).
        """
        coeffs = np.asarray(delta).astype(np.float64)
        if self.narrow:
            return coeffs @ (self._limbs[0] if cols is None else self._limbs[0, cols])
        limbs = self._limbs if cols is None else self._limbs[:, cols]
        total = 0
        for k, limb in enumerate(limbs):
            part = (coeffs @ limb).astype(np.int64).astype(object)
            total = total + part * (1 << (k * self._bits))
        return total

    def segmented(
        self, delta: np.ndarray, cols: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Signed weighted deviations of several column sets at once.

        The columns of ``delta`` (vectors x rows) form consecutive
        non-empty segments beginning at ``starts``; column *r* carries
        the weight of value-output position ``cols[r]``.  Returns a
        (segments x vectors) array whose row *s* equals
        ``signed(delta[:, seg], cols[seg])`` for the columns ``seg`` of
        segment *s*.  Every partial sum of a limb stays exact, so the
        summation order does not change a value.  The work runs along
        ``delta.T``, so pass the transpose of a row-major (rows x
        vectors) array, as :func:`~repro.simulation.vectors.unpack_vectors`
        returns it.
        """
        coeffs = np.asarray(delta).T
        limbs = self._limbs[:, cols, None]
        if self.narrow:
            return _segment_sums(coeffs * limbs[0], starts)
        total = 0
        for k, limb in enumerate(limbs):
            part = _segment_sums(coeffs * limb, starts)
            total = total + part.astype(np.int64).astype(object) * (1 << (k * self._bits))
        return total

    def max_abs(self, delta: np.ndarray) -> int:
        """Largest ``|deviation|`` over the rows of ``delta`` (0 if none)."""
        if delta.shape[0] == 0:
            return 0
        return int(np.abs(self.signed(delta)).max())


def _segment_sums(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of the consecutive non-empty row segments beginning at
    ``starts`` (``np.add.reduceat`` along axis 0, which numpy runs
    element by element)."""
    if rows.shape[0] == len(starts):
        return rows  # every segment is one row
    lengths = np.diff(np.append(starts, rows.shape[0]))
    out = rows[starts]
    for j in range(1, int(lengths.max())):
        longer = np.flatnonzero(lengths > j)
        out[longer] += rows[starts[longer] + j]
    return out
