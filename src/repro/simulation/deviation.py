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

It takes the deviation in one of two representations:

* **unpacked deltas** -- (vectors x outputs) matrices of small
  integers, for the consumers that need every vector's deviation
  (fault simulation, cone replay, the estimator).  The products run as
  float64 matrix-vector products, which are exact while every partial
  sum stays below ``2**53``.  Weights that are too wide for that (e.g.
  ``2**i`` weights on more than ~50 outputs) are split into limbs
  narrow enough that each limb's product is exact; the limb products
  are recombined as Python integers.  The batch fault simulator sums
  many faults' cone outputs in one call
  (:meth:`WeightedDeviation.segmented`), each fault a segment of
  columns.
* **bit planes over packed words** -- :meth:`WeightedDeviation.max_abs_words`
  reads the faulty and good machines' packed words directly and keeps
  the sums bit-sliced, one ``uint64`` plane per bit of the weighted
  value, 64 vectors per word.  The exhaustive ES path needs only the
  maximum, so no vector is ever unpacked, and the weights stay Python
  ints: no float and no limbs, exact at any width.  The per-vector
  consumers stay on the float path, which is faster at their batch
  sizes (a few hundred words).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..circuit.gates import ALL_ONES
from .vectors import num_words, tail_mask

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
    :meth:`max_abs_words` takes the two machines' packed words instead
    of a delta matrix and returns a Python int.
    """

    __slots__ = ("narrow", "_limbs", "_bits", "_terms")

    def __init__(self, weights: Iterable[int]) -> None:
        weights = [int(w) for w in weights]
        # (bit, output, negative) for every set bit of every |weight|,
        # lowest bit first: the order keeps :meth:`max_abs_words`'
        # carries short.
        self._terms = sorted(
            (bit, j, w < 0)
            for j, w in enumerate(weights)
            for bit in range(abs(w).bit_length())
            if abs(w) >> bit & 1
        )
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

    def max_abs_words(
        self, faulty: np.ndarray, good: np.ndarray, num_vectors: int
    ) -> int:
        """Largest ``|deviation|`` over the first ``num_vectors`` vectors
        of packed words, in exact integers (0 if none).

        ``faulty`` and ``good`` are (outputs x words) ``uint64`` arrays in
        the packed layout, row *j* the value output of weight *j*; bits
        past ``num_vectors`` are ignored.  Each output's difference is
        split into an up word (``f & ~g``) and a down word (``g & ~f``);
        for every set bit of ``|w_j|`` the up word is ripple-added into
        the positive sum's bit planes and the down word into the
        negative sum's (a negative weight swaps the two).  The deviation
        is their two's-complement difference; its absolute value is
        searched from the most significant plane down for the largest
        value any valid vector reaches.
        """
        w = num_words(num_vectors)
        f = np.asarray(faulty, dtype=np.uint64)[:, :w]
        g = np.asarray(good, dtype=np.uint64)[:, :w]
        if f.shape[1] < w or g.shape[1] < w:
            raise ValueError(f"{num_vectors} vectors need {w} words per output")
        if w == 0 or not self._terms:
            return 0
        differ = f ^ g
        up, down = differ & f, differ & g
        rises, falls = _Planes(w), _Planes(w)
        for bit, j, negative in self._terms:
            rise, fall = (down[j], up[j]) if negative else (up[j], down[j])
            rises.add(rise, bit)
            falls.add(fall, bit)
        magnitude = rises.abs_difference(falls)
        candidates = tail_mask(num_vectors)
        best = 0
        for k in range(len(magnitude) - 1, -1, -1):
            hit = candidates & magnitude[k]
            if hit.any():
                best |= 1 << k
                candidates = hit
        return best


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


class _Planes:
    """A bit-sliced unsigned sum over packed words: ``planes[k]`` holds
    bit *k* of every vector's value, and ``bound`` caps every value, so
    a carry never runs past the planes the bound needs."""

    __slots__ = ("planes", "bound", "_zero")

    def __init__(self, words: int) -> None:
        self.planes: List[np.ndarray] = []
        self.bound = 0
        self._zero = np.zeros(words, dtype=np.uint64)

    def add(self, word: np.ndarray, bit: int) -> None:
        """Add ``word`` (one bit per vector) shifted left by ``bit``."""
        planes = self.planes
        while len(planes) < bit:
            planes.append(self._zero)
        carry = word
        for k in range(bit, len(planes)):
            planes[k], carry = planes[k] ^ carry, planes[k] & carry
        self.bound += 1 << bit
        if self.bound.bit_length() > len(planes):
            planes.append(carry)

    def abs_difference(self, other: "_Planes") -> List[np.ndarray]:
        """Planes of ``|self - other|`` per vector.

        The difference runs in two's complement over one plane more than
        the wider operand (``self + ~other + 1``); negative lanes are
        then negated (complemented, plus one).  That needs no plane
        beyond the operands': ``|self - other|`` is at most the larger
        bound, which fits them.
        """
        width = max(len(self.planes), len(other.planes))
        ones = np.full_like(self._zero, ALL_ONES)
        carry = ones
        diff: List[np.ndarray] = []
        for k in range(width + 1):
            a = self.planes[k] if k < len(self.planes) else self._zero
            b = ~other.planes[k] if k < len(other.planes) else ones
            partial = a ^ b
            diff.append(partial ^ carry)
            carry = (a & b) | (carry & partial)
        sign = diff.pop()
        carry = sign
        for k in range(width):
            flipped = diff[k] ^ sign
            diff[k], carry = flipped ^ carry, flipped & carry
        return diff
