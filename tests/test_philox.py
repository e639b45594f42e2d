"""philox.indices: the bootstrap's counter-based index draw.

A pure-Python Philox4x32-10, checked here against a Random123 known
answer, rebuilds a pinned row word by word. Every index lies in [0, n),
a row does not depend on the rows drawn with it, and seeds fold to 64
bits as synth's noise does.
"""

import numpy as np
import pytest

from hpscale import philox

_MASK = 0xFFFFFFFF


def reference_philox(counter, key):
    """Philox4x32-10 of four 32-bit counter words in Python integers."""
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = 0xD2511F53 * x0, 0xCD9E8D57 * x2
        x0, x1, x2, x3 = (p1 >> 32) ^ x1 ^ k0, p1 & _MASK, (p0 >> 32) ^ x3 ^ k1, p0 & _MASK
        k0, k1 = (k0 + 0x9E3779B9) & _MASK, (k1 + 0xBB67AE85) & _MASK
    return x0, x1, x2, x3


def reference_row(seed, row, attempt, n):
    """Resample row's sorted indices on one attempt, from reference_philox."""
    key = (seed & _MASK, seed >> 32 & _MASK)
    words = [w for k in range(-(-n // 4)) for w in reference_philox((row, k, 3, attempt), key)]
    return sorted(w * n >> 32 for w in words[:n])


def test_reference_matches_a_random123_known_answer():
    assert reference_philox((0, 0, 0, 0), (0, 0)) == (0x6627E8D5, 0xE169C58D, 0xBC57AC4C,
                                                       0x9B00DBD8)  # fmt: skip


def test_indices_known_answer():
    seed, row, attempt = 2024, 7, 3
    got = philox.indices(seed, [row], attempt, 30)
    assert got.tolist() == [[5, 6, 6, 7, 7, 7, 8, 9, 10, 10, 10, 11, 11, 11, 12, 13, 14, 14, 15,
                             16, 18, 21, 22, 22, 26, 26, 27, 27, 28, 29]]  # fmt: skip
    assert got[0].tolist() == reference_row(seed, row, attempt, 30)
    for n in (1, 5, 31):
        assert philox.indices(2**40 + 9, [3], 0, n)[0].tolist() == reference_row(2**40 + 9, 3, 0, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 30, 1000, 100_003])
def test_indices_lie_in_range_and_rows_are_sorted(n):
    rows = 4 if n > 1000 else 50
    idx = philox.indices(11, np.arange(rows), 0, n)
    assert idx.shape == (rows, n) and idx.dtype == np.intp
    assert idx.min() >= 0 and idx.max() < n
    assert (np.diff(idx, axis=1) >= 0).all()


@pytest.mark.parametrize("word,want", [(0, 0), (_MASK, 29)])
def test_extreme_words_map_to_the_ends(word, want, monkeypatch):
    def constant(x0, x1, *args):
        block = np.full(np.broadcast(x0, x1).shape, word, dtype=np.uint64)
        return block, block, block, block

    monkeypatch.setattr(philox, "_philox4x32", constant)
    assert philox.indices(0, [0], 0, 30).tolist() == [[want] * 30]


def test_a_row_does_not_depend_on_the_rows_drawn_with_it():
    together = philox.indices(5, np.arange(12), 2, 30)
    assert np.array_equal(philox.indices(5, [9, 4], 2, 30), together[[9, 4]])
    assert np.array_equal(philox.indices(5, [4], 2, 30), together[[4]])
    # the attempt is a counter word: another attempt, another draw
    assert not np.array_equal(philox.indices(5, [4], 3, 30), together[[4]])


def test_index_frequencies_are_uniform():
    idx = philox.indices(123, np.arange(20_000), 0, 30)
    counts = np.bincount(idx.ravel(), minlength=30)
    expected = idx.size / 30
    assert np.abs(counts - expected).max() < 5 * np.sqrt(expected)


def test_seeds_fold_to_64_bits():
    rows = np.arange(6)
    # 5 + 3 * 2**64 folds to 5 ^ 3 = 6
    assert philox._key(5 + 3 * 2**64) == philox._key(6) == (6, 0)
    assert np.array_equal(philox.indices(5 + 3 * 2**64, rows, 0, 30),
                          philox.indices(6, rows, 0, 30))
    # the key's high word holds bits 32 to 63 of the seed
    assert philox._key(7 + 2**32) == (7, 1)
    assert not np.array_equal(philox.indices(7, rows, 0, 30),
                              philox.indices(7 + 2**32, rows, 0, 30))
