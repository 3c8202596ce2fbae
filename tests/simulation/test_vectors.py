"""Vector packing/unpacking and generation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.simulation import (
    exhaustive_vectors,
    ints_from_vectors,
    num_words,
    pack_vectors,
    popcount_words,
    random_vectors,
    tail_mask,
    unpack_vectors,
    vectors_from_ints,
)
from repro.simulation.vectors import exhaustive_words


def test_num_words():
    assert num_words(1) == 1
    assert num_words(64) == 1
    assert num_words(65) == 2
    assert num_words(128) == 2


def test_tail_mask():
    m = tail_mask(70)
    assert len(m) == 2
    assert int(m[0]) == 0xFFFFFFFFFFFFFFFF
    assert int(m[1]) == (1 << 6) - 1
    assert int(tail_mask(64)[0]) == 0xFFFFFFFFFFFFFFFF


@given(
    n_vec=st.integers(1, 200),
    n_sig=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
def test_pack_unpack_roundtrip(n_vec, n_sig, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.integers(0, 2, size=(n_vec, n_sig)).astype(bool)
    packed = pack_vectors(vecs)
    assert packed.shape == (n_sig, num_words(n_vec))
    back = unpack_vectors(packed, n_vec)
    assert (back == vecs).all()


def test_pack_bit_order():
    vecs = np.zeros((65, 1), dtype=bool)
    vecs[0, 0] = True
    vecs[64, 0] = True
    packed = pack_vectors(vecs)
    assert int(packed[0, 0]) == 1  # vector 0 -> bit 0 of word 0
    assert int(packed[0, 1]) == 1  # vector 64 -> bit 0 of word 1


def test_pack_shape_validation():
    with pytest.raises(ValueError):
        pack_vectors(np.zeros(8, dtype=bool))


def test_exhaustive_vectors():
    vecs = exhaustive_vectors(3)
    assert vecs.shape == (8, 3)
    vals = sorted(int(v[0]) + 2 * int(v[1]) + 4 * int(v[2]) for v in vecs)
    assert vals == list(range(8))


def test_exhaustive_limit():
    with pytest.raises(ValueError):
        exhaustive_vectors(40)


def test_random_vectors_deterministic():
    a = random_vectors(5, 100, np.random.default_rng(1))
    b = random_vectors(5, 100, np.random.default_rng(1))
    assert (a == b).all()
    assert a.shape == (100, 5)


@given(st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=50))
def test_ints_roundtrip(values):
    vecs = vectors_from_ints(values, 16)
    back = ints_from_vectors(vecs)
    assert [int(v) for v in back] == values


# ----------------------------------------------------------------------
# the packed layout, pinned against a per-bit reference
# ----------------------------------------------------------------------
def _pack_reference(vecs):
    """Bit k of word w of row i = vecs[64*w + k, i], one bit at a time."""
    n_vec, n_sig = vecs.shape
    out = np.zeros((n_sig, num_words(n_vec)), dtype=np.uint64)
    for v in range(n_vec):
        for i in range(n_sig):
            if vecs[v, i]:
                out[i, v // 64] |= np.uint64(1) << np.uint64(v % 64)
    return out


def _unpack_reference(words, num_vectors):
    words = np.atleast_2d(np.asarray(words, dtype=np.uint64))
    count = min(num_vectors, 64 * words.shape[1])
    out = np.zeros((count, words.shape[0]), dtype=bool)
    for v in range(count):
        for i in range(words.shape[0]):
            out[v, i] = (int(words[i, v // 64]) >> (v % 64)) & 1
    return out


@pytest.mark.parametrize(
    "n_vec,n_sig",
    [(0, 3), (3, 0), (0, 0), (1, 1), (63, 2), (64, 2), (65, 3), (130, 4), (200, 1)],
)
def test_pack_unpack_match_per_bit_reference(n_vec, n_sig):
    vecs = np.random.default_rng(n_vec * 7 + n_sig).integers(0, 2, (n_vec, n_sig)) > 0
    packed = pack_vectors(vecs)
    assert packed.dtype == np.uint64
    assert packed.shape == (n_sig, num_words(n_vec))
    assert np.array_equal(packed, _pack_reference(vecs))
    for count in (n_vec, max(0, n_vec - 5), n_vec + 70):
        back = unpack_vectors(packed, count)
        assert back.dtype == bool
        assert np.array_equal(back, _unpack_reference(packed, count))


def test_unpack_ignores_tail_garbage_and_takes_slices():
    rng = np.random.default_rng(5)
    words = rng.integers(0, 2**63, size=(6, 9), dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    cases = [
        (words[[0, 2, 5], 3:7], 200),  # fancy rows, a word window
        (words[:, ::2], 300),  # strided columns
        (words[4], 100),  # 1-D: one row
        (words[1, 2:3], 64),
        (words[:3, :2], 0),
    ]
    for sliced, count in cases:
        assert np.array_equal(unpack_vectors(sliced, count), _unpack_reference(sliced, count))


def _counting_bool_matrix(support, n_rows, start, count):
    """The exhaustive count as a bool matrix: vector v drives
    ``support[b]`` with bit b of v."""
    ints = np.arange(start, start + count, dtype=np.uint64)
    vecs = np.zeros((count, n_rows), dtype=bool)
    for bit, row in enumerate(support):
        vecs[:, row] = (ints >> np.uint64(bit)) & np.uint64(1)
    return vecs


@pytest.mark.parametrize("chunk", [64, 128, 1 << 16])
def test_exhaustive_words_equal_packed_counting_vectors(chunk):
    rng = np.random.default_rng(chunk)
    n_rows = 16
    for s in range(13):
        support = [int(r) for r in rng.permutation(n_rows)[:s]]
        total = 1 << s
        for start in range(0, total, chunk):
            count = min(chunk, total - start)
            got = exhaustive_words(support, n_rows, start, count)
            want = pack_vectors(_counting_bool_matrix(support, n_rows, start, count))
            assert got.dtype == np.uint64
            assert np.array_equal(got, want), (s, chunk, start)


def test_exhaustive_words_need_word_aligned_start():
    with pytest.raises(ValueError):
        exhaustive_words([0, 1], 2, 32, 64)


def test_popcount_fallback_matches_bitwise_count(monkeypatch):
    rng = np.random.default_rng(3)
    words = rng.integers(0, 2**63, size=(5, 33), dtype=np.uint64) * np.uint64(3)
    expected = sum(bin(int(w)).count("1") for w in words.ravel())
    assert popcount_words(words) == expected
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert not hasattr(np, "bitwise_count")
    assert popcount_words(words) == expected
    assert popcount_words(words[:, 3:9]) == sum(
        bin(int(w)).count("1") for w in words[:, 3:9].ravel()
    )
