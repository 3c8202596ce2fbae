"""Test-vector generation and bit-packing utilities.

The simulators in this package are 64-way bit-parallel: a batch of N
input vectors is stored as, per signal, an array of ``ceil(N/64)``
``uint64`` words whose bit *k* of word *w* holds the signal value under
vector ``64*w + k``.  This module is the one owner of that packed
layout: it converts between it and plain boolean/integer vector
representations, writes exhaustive counting patterns straight into it,
and generates the random and exhaustive vector sets used for ER
estimation (the paper simulates 10,000 random vectors; exhaustive 2**n
enumeration is used for small circuits in tests).

The layout is :func:`numpy.packbits` with ``bitorder="little"`` along
the vector axis, eight bytes per word read as little-endian ``uint64``
(``"<u8"``): vector ``8*j + i`` is bit *i* of byte *j*, and byte *j* is
bits ``8*(j % 8)`` and up of word ``j // 8``.  The byte order is spelled
out, so the words are the same on any host.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..circuit.gates import ALL_ONES

__all__ = [
    "pack_vectors",
    "unpack_vectors",
    "popcount_words",
    "random_vectors",
    "exhaustive_vectors",
    "exhaustive_words",
    "vectors_from_ints",
    "ints_from_vectors",
    "num_words",
    "tail_mask",
]


def num_words(num_vectors: int) -> int:
    """Number of 64-bit words needed to hold ``num_vectors`` bit-slots."""
    return (num_vectors + 63) // 64


def tail_mask(num_vectors: int) -> np.ndarray:
    """Per-word mask selecting only the valid (first ``num_vectors``) bits."""
    w = num_words(num_vectors)
    mask = np.full(w, ALL_ONES, dtype=np.uint64)
    rem = num_vectors % 64
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


def pack_vectors(vectors: np.ndarray) -> np.ndarray:
    """Pack a boolean matrix (N vectors x n signals) into words.

    Returns an array of shape ``(n, ceil(N/64))`` and dtype ``uint64``;
    row *i* holds the packed values of signal *i*, tail bits zero.
    """
    vecs = np.asarray(vectors, dtype=bool)
    if vecs.ndim != 2:
        raise ValueError(f"expected 2-D (N, n) vector matrix, got shape {vecs.shape}")
    n_vec, n_sig = vecs.shape
    padded = np.zeros((n_sig, 64 * num_words(n_vec)), dtype=bool)
    padded[:, :n_vec] = vecs.T
    packed = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    return packed.astype(np.uint64, copy=False)


def unpack_vectors(words: np.ndarray, num_vectors: int) -> np.ndarray:
    """Inverse of :func:`pack_vectors`: returns bool matrix (N, n).

    ``words`` is ``(n, W)`` or a single row ``(W,)``; bits past
    ``num_vectors`` are ignored.
    """
    words = np.ascontiguousarray(words, dtype="<u8")
    if words.ndim == 1:
        words = words[None, :]
    bits = np.unpackbits(
        words.view(np.uint8),
        axis=1,
        count=min(num_vectors, 64 * words.shape[1]),
        bitorder="little",
    )
    return bits.view(bool).T


_POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint64)


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across an array of packed words."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(words).sum())
    return int(_POPCOUNT8[words.view(np.uint8)].sum())


def random_vectors(
    num_inputs: int, num_vectors: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Uniform random boolean vectors, shape ``(num_vectors, num_inputs)``."""
    rng = rng or np.random.default_rng()
    return rng.integers(0, 2, size=(num_vectors, num_inputs), dtype=np.uint8).astype(bool)


def exhaustive_vectors(num_inputs: int, limit: int = 1 << 22) -> np.ndarray:
    """All 2**n input vectors (LSB-first bit order per input index).

    Guarded by ``limit`` to avoid accidentally materializing huge sets.
    """
    total = 1 << num_inputs
    if total > limit:
        raise ValueError(
            f"exhaustive enumeration of {num_inputs} inputs needs {total} vectors "
            f"(> limit {limit}); use random_vectors instead"
        )
    ints = np.arange(total, dtype=np.uint64)
    shifts = np.arange(num_inputs, dtype=np.uint64)
    return ((ints[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)


# Bit b < 6 of the vector index across the 64 vectors of one word:
# 0xAAAA..., 0xCCCC..., 0xF0F0..., 0xFF00..., 0xFFFF0000..., 0xFFFFFFFF00000000.
_COUNTING_WORDS = tuple(
    np.uint64(sum(1 << k for k in range(64) if k >> b & 1)) for b in range(6)
)


def exhaustive_words(
    rows: Sequence[int], num_rows: int, start: int, count: int
) -> np.ndarray:
    """Packed words of vectors ``start .. start+count-1`` of a binary count.

    Vector *v* drives ``rows[b]`` with bit *b* of *v*; every other of
    the ``num_rows`` rows stays zero.  This equals :func:`pack_vectors` of
    the matching bool matrix, without building it: bit ``b < 6`` is a
    constant word, and for ``b >= 6`` word *j* is all ones exactly when
    bit ``b - 6`` of its global word index is set.  ``start`` must be
    word-aligned (a multiple of 64); bits past ``count`` are zero.
    """
    if start % 64:
        raise ValueError(f"start must be a multiple of 64, got {start}")
    w = num_words(count)
    out = np.zeros((num_rows, w), dtype=np.uint64)
    word_index = np.arange(start // 64, start // 64 + w, dtype=np.uint64)
    for b, row in enumerate(rows):
        if b < 6:
            out[row] = _COUNTING_WORDS[b]
        else:
            out[row] = ((word_index >> np.uint64(b - 6)) & np.uint64(1)) * ALL_ONES
    if count % 64:
        out &= tail_mask(count)
    return out


def vectors_from_ints(values: Sequence[int], num_inputs: int) -> np.ndarray:
    """Build a vector matrix from integers (bit i -> input i)."""
    arr = np.asarray(list(values), dtype=np.uint64)
    shifts = np.arange(num_inputs, dtype=np.uint64)
    return ((arr[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)


def ints_from_vectors(vectors: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectors_from_ints` (LSB-first)."""
    vecs = np.asarray(vectors, dtype=np.uint64)
    shifts = np.arange(vecs.shape[1], dtype=np.uint64)
    return (vecs << shifts[None, :]).sum(axis=1, dtype=np.uint64)
