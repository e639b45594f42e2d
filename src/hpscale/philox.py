"""Counter-based random draws for synth's noise and the bootstrap.

Each draw is a pure function of (seed, stream, i, j, attempt): the
counter-based generator Philox4x32-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) of the counter (i, j, stream,
attempt) under the key (s mod 2**32, (s >> 32) mod 2**32), where s is the
seed folded to 64 bits: the XOR of its 64-bit words, so that s is the
seed itself below 2**64, and a larger seed shares its draws with the one
its words fold to. So the draws may be made in any order, in any batches
or in parallel without changing the output. The streams are

    stream  draws                          (i, j, attempt)
    0       a surface's loss noise         grid node (lr, bs), 0
    1       observations' lr noise         lattice node (N, D), 0
    2       observations' bs noise         lattice node (N, D), 0
    3       bootstrap indices              (resample, word group, attempt)

Noise (_normals). Two grids share noise wherever their indices align. Of
the output words (x0, x1, x2, x3), u1 = ((x0 << 32 | x1) >> 11) * 2**-53
and u2 = ((x2 << 32 | x3) >> 11) * 2**-53 are uniform on [0, 1), and
Box-Muller gives z = sqrt(-2 log(1 - u1)) * cos(2 pi u2). log and cos are
taken per element with math, not numpy, whose vectorised transcendentals
can differ in the last ulp.

Indices (indices). Resample i's draw on attempt a takes the counters
(i, k, 3, a) for k < ceil(n / 4); its j-th index is (w_j * n) >> 32,
where w_j is the j-th 32-bit output word (word j mod 4 of counter
j // 4). Each index in [0, n) is hit by floor or ceil of 2**32 / n words,
so its probability is off 1 / n by less than 2**-32, a relative bias of
at most n / 2**32 (7e-9 at n = 30). A resample is thus the same whatever
the number of resamples or the batch it is drawn in.

The generator runs in exact uint64 arithmetic over whole arrays, so its
words are the reference generator's on every host and numpy version.
"""

from __future__ import annotations

import math

import numpy as np

# Philox4x32-10's round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_INDEX_STREAM = np.uint64(3)


def _philox4x32(x0, x1, x2, x3, k0: int, k1: int) -> tuple:
    """Philox4x32-10 of the counter words (x0, x1, x2, x3), uint64 arrays
    that broadcast together and hold 32-bit values, under the key (k0, k1).

    Each 32 x 32-bit product is exact in uint64, so the result is the
    reference generator's, word for word.
    """
    for _ in range(10):
        p0, p1 = _PHILOX_M[0] * x0, _PHILOX_M[1] * x2
        x0, x1, x2, x3 = (
            (p1 >> _32) ^ x1 ^ np.uint64(k0),
            p1 & _LOW32,
            (p0 >> _32) ^ x3 ^ np.uint64(k1),
            p0 & _LOW32,
        )
        k0, k1 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFF, (k1 + _PHILOX_W[1]) & 0xFFFFFFFF
    return x0, x1, x2, x3


def _key(seed: int) -> tuple[int, int]:
    """The Philox key of a non-negative seed: its 64-bit words XORed, split
    into the low and high 32 bits."""
    folded, seed = 0, int(seed)
    while seed:
        folded ^= seed & 0xFFFFFFFFFFFFFFFF
        seed >>= 64
    return folded & 0xFFFFFFFF, folded >> 32


def _normals(seed: int, stream: int, shape: tuple[int, int]) -> np.ndarray:
    """The standard normals z[i, j] of one stream over i < shape[0] and
    j < shape[1], as the module docstring defines them."""
    x = _philox4x32(
        np.arange(shape[0], dtype=np.uint64)[:, None],
        np.arange(shape[1], dtype=np.uint64)[None, :],
        np.uint64(stream),
        np.uint64(0),
        *_key(seed),
    )
    # 53-bit uniforms in [0, 1): 1 - u1 is exact and never 0
    u1 = (((x[0] << _32) | x[1]) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    u2 = (((x[2] << _32) | x[3]) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    z = [
        math.sqrt(-2.0 * math.log(a)) * math.cos(b)
        for a, b in zip((1.0 - u1).ravel().tolist(), (2.0 * math.pi * u2).ravel().tolist())
    ]
    return np.array(z).reshape(u1.shape)


def indices(seed: int, rows, attempt: int, n: int) -> np.ndarray:
    """Each listed resample's n indices in [0, n) on one attempt, sorted.

    rows holds resample numbers; row k of the (len(rows), n) result is
    resample rows[k]'s draw, as the module docstring defines it. n must be
    at most 2**32, so each word * n is exact in uint64.
    """
    words = _philox4x32(
        np.asarray(rows, dtype=np.uint64)[:, None],
        np.arange(-(-n // 4), dtype=np.uint64)[None, :],
        _INDEX_STREAM,
        np.uint64(attempt),
        *_key(seed),
    )
    w = np.stack(words, axis=-1).reshape(len(rows), -1)[:, :n]
    idx = ((w * np.uint64(n)) >> _32).astype(np.intp)
    idx.sort(axis=1)
    return idx
