"""Deterministic counter-based pseudo-random draws (SplitMix64).

Bootstrap resampling and synthetic-data generation must produce identical
draws for a given seed on every platform, independent of evaluation order
or parallelism. numpy's generators do not promise a stable stream across
major versions, so the draws here come from SplitMix64, which is small
enough to restate exactly:

    output(seed, k) = mix64((seed + (k + 1) * GAMMA) mod 2^64)

with GAMMA = 0x9E3779B97F4A7C15 and mix64 the murmur-style finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Every output is a pure function of (seed, counter k), so any slice of the
stream can be computed in any order. Independent substreams are derived by
using an output of one stream as the seed of another.

All arithmetic runs on uint64 numpy arrays, which wrap modulo 2^64.
"""

import numpy as np

GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_DOUBLE_SCALE = float(2.0**-53)


def _mix64(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """mix64 of every element of the uint64 array ``z``, in place; returns z.
    ``t`` is scratch space of z's shape, allocated when not given."""
    if t is None:
        t = np.empty_like(z)
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= mult
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def stream(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs start .. start+count-1 of the SplitMix64 stream for ``seed``."""
    ks = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return _mix64(base + ks * GAMMA)


def substream_column(seeds: np.ndarray, column: int) -> np.ndarray:
    """Output ``column`` of many substreams at once (one per seed)."""
    inc = (np.array([column + 1], dtype=np.uint64) * GAMMA)[0]
    return _mix64(seeds + inc)


def uniform01(values: np.ndarray) -> np.ndarray:
    """Map uint64 draws to float64 in [0, 1) using the top 53 bits."""
    return (values >> np.uint64(11)).astype(np.float64) * _DOUBLE_SCALE


def integers_mod(values: np.ndarray, bound: int, out: np.ndarray | None = None) -> np.ndarray:
    """Map uint64 draws to integers in [0, bound) by modulo, into the uint64
    array ``out`` when given.

    The modulo bias is at most bound / 2^64, which is far below anything
    observable at the sample counts this package handles. ``values - (values
    // bound) * bound`` gives the same integers as ``values % bound``, but
    numpy divides uint64 by one scalar several times faster than it takes
    the remainder.
    """
    b = np.uint64(bound)
    q = np.floor_divide(values, b, out=out)
    q *= b
    np.subtract(values, q, out=q)
    return q.view(np.int64)


def resample_block(
    seed: int, start: int, count: int, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Index draws for bootstrap replicates start .. start+count-1.

    Row ``i`` holds replicate ``start + i``'s n with-replacement indices,
    drawn from the substream seeded by output ``start + i`` of the parent
    stream, so replicates can be evaluated in any order and in any grouping
    without changing the draws.

    ``out``, a (2, at least count, n) uint64 array, is the space the draws
    are made in when given, and the result is a view into it: a caller that
    draws many blocks then allocates no (count, n) array per block.
    """
    if out is None:
        out = np.empty((2, count, n), dtype=np.uint64)
    z, t = out[0, :count], out[1, :count]
    subs = stream(seed, count, start=start)
    np.multiply(np.arange(1, n + 1, dtype=np.uint64), GAMMA, out=t[0])
    np.add(subs[:, None], t[0], out=z)
    return integers_mod(_mix64(z, t), n, out=t)


def permutation(seed: int, n: int) -> np.ndarray:
    """Deterministic Fisher-Yates shuffle of range(n)."""
    draws = stream(seed, max(n - 1, 0))
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(draws[n - 1 - i] % np.uint64(i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm
