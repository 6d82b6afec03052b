"""Batched MurmurHash3 (x64_128 and x86_32) over numpy integer lanes.

The scalar :func:`repro.hashing.murmur.murmur3_x64_128` and
:func:`repro.hashing.murmur.murmur3_32` process one key at a time in
Python ints; this module runs a whole batch of keys through the same
rounds at once, one numpy operation per mixing step.  Keys are packed
into a single zero-padded ``(n, width)`` byte matrix (one slice copy per
key) and every block column is mixed for all keys simultaneously, with
an activity mask keeping short keys' states frozen once their blocks run
out.  Zero padding makes the tail assembly free: the little-endian read
of the padded trailing block *is* the reference tail value, because the
reference shifts in exactly the bytes below the tail length and
zero-extends the rest.

x64_128 (16-byte blocks, ``<u8`` words) feeds the filters' index
derivation; x86_32 (4-byte blocks, ``<u4`` words) is the public shard
router's hash, so a whole batch is routed in one pass.

Results are bit-identical with the scalar functions for every key length
and seed -- ``tests/hashing/test_batched.py`` holds hypothesis parity
tests over both.

This module imports numpy unconditionally; callers gate on
:func:`repro.accel.accelerated` / :func:`repro.accel.numpy_or_none`
before importing it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["murmur3_x64_128_batch", "murmur3_32_batch", "km_flat_indexes"]

_C1 = np.uint64(0x87C37B91114253D5)
_C2 = np.uint64(0x4CF5AD432745937F)

_F1 = np.uint64(0xFF51AFD7ED558CCD)
_F2 = np.uint64(0xC4CEB9FE1A85EC53)

_FIVE = np.uint64(5)
_N1 = np.uint64(0x52DCE729)
_N2 = np.uint64(0x38495AB5)

_C1_32 = np.uint32(0xCC9E2D51)
_C2_32 = np.uint32(0x1B873593)
_N_32 = np.uint32(0xE6546B64)
_F1_32 = np.uint32(0x85EBCA6B)
_F2_32 = np.uint32(0xC2B2AE35)
_FIVE_32 = np.uint32(5)


def _rotl64(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _rotl32(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint32(r)) | (x >> np.uint32(32 - r))


def _fmix64(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> np.uint64(33))
    h = h * _F1
    h = h ^ (h >> np.uint64(33))
    h = h * _F2
    return h ^ (h >> np.uint64(33))


def murmur3_x64_128_batch(
    datas: list[bytes], seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """MurmurHash3 x64_128 of every key in ``datas`` with ``seed``.

    Returns the two 64-bit halves as uint64 arrays ``(h1, h2)`` of
    length ``len(datas)``, bit-identical with the scalar function.
    """
    n = len(datas)
    if n == 0:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty
    lengths = np.fromiter((len(d) for d in datas), dtype=np.int64, count=n)
    max_len = int(lengths.max())
    # Always at least one zero block past the longest key, so the tail
    # columns (2*nblocks, 2*nblocks+1) exist for every key.
    width = (max_len // 16 + 1) * 16
    # One zero-padded row per key via bytes.ljust + a single join: the
    # C-level pad-and-concatenate beats a fancy-index scatter of the
    # same bytes by ~4x at crafting block sizes.
    mat = np.frombuffer(
        b"".join(d.ljust(width, b"\x00") for d in datas), dtype=np.uint8
    )
    words = mat.view("<u8").reshape(n, width // 8)

    nblocks = lengths // 16
    h1 = np.full(n, seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    h2 = h1.copy()

    with np.errstate(over="ignore"):
        for block in range(int(nblocks.max())):
            active = nblocks > block
            k1 = words[:, 2 * block] * _C1
            k1 = _rotl64(k1, 31) * _C2
            nh1 = h1 ^ k1
            nh1 = _rotl64(nh1, 27) + h2
            nh1 = nh1 * _FIVE + _N1

            k2 = words[:, 2 * block + 1] * _C2
            k2 = _rotl64(k2, 33) * _C1
            nh2 = h2 ^ k2
            nh2 = _rotl64(nh2, 31) + nh1
            nh2 = nh2 * _FIVE + _N2

            h1 = np.where(active, nh1, h1)
            h2 = np.where(active, nh2, h2)

        rows = np.arange(n)
        tail = lengths & 15
        # Zero padding means the little-endian trailing words equal the
        # reference's byte-by-byte tail assembly exactly.
        tk1 = words[rows, 2 * nblocks]
        tk2 = words[rows, 2 * nblocks + 1]

        k2 = tk2 * _C2
        k2 = _rotl64(k2, 33) * _C1
        h2 = np.where(tail >= 9, h2 ^ k2, h2)

        k1 = tk1 * _C1
        k1 = _rotl64(k1, 31) * _C2
        h1 = np.where(tail >= 1, h1 ^ k1, h1)

        ulen = lengths.astype(np.uint64)
        h1 = h1 ^ ulen
        h2 = h2 ^ ulen
        h1 = h1 + h2
        h2 = h2 + h1
        h1 = _fmix64(h1)
        h2 = _fmix64(h2)
        h1 = h1 + h2
        h2 = h2 + h1
    return h1, h2


def murmur3_32_batch(datas: list[bytes], seed: int = 0) -> np.ndarray:
    """MurmurHash3 x86_32 of every key in ``datas`` with ``seed``.

    Returns a uint32 array of length ``len(datas)``, bit-identical with
    the scalar function.  Every key is padded to the longest one, so time
    and memory grow with ``len(datas)`` times the longest key: callers
    route lopsided batches (see ``ring.ROUTE_MAX_PADDING``) per key.
    """
    n = len(datas)
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    lengths = np.fromiter((len(d) for d in datas), dtype=np.int64, count=n)
    # Always at least one zero word past the longest key, so the tail
    # column ``nblocks`` exists for every key.
    width = (int(lengths.max()) // 4 + 1) * 4
    mat = np.frombuffer(
        b"".join(d.ljust(width, b"\x00") for d in datas), dtype=np.uint8
    )
    words = mat.view("<u4").reshape(n, width // 4)
    nblocks = lengths // 4
    h = np.full(n, seed & 0xFFFFFFFF, dtype=np.uint32)

    with np.errstate(over="ignore"):
        # The per-word mix does not depend on the running state, so it
        # runs over the whole matrix at once (in place, one temporary);
        # the padded tail word mixes exactly like the reference's
        # zero-extended tail.
        k = words * _C1_32
        high = k >> np.uint32(17)
        k <<= np.uint32(15)
        k |= high
        del high
        k *= _C2_32
        for block in range(int(nblocks.max())):
            nh = h ^ k[:, block]
            nh = _rotl32(nh, 13) * _FIVE_32 + _N_32
            h = np.where(nblocks > block, nh, h)

        tail = k[np.arange(n), nblocks]
        h = np.where(lengths & 3 != 0, h ^ tail, h)

        h = h ^ lengths.astype(np.uint32)
        h = h ^ (h >> np.uint32(16))
        h = h * _F1_32
        h = h ^ (h >> np.uint32(13))
        h = h * _F2_32
        return h ^ (h >> np.uint32(16))


def km_flat_indexes(h1: np.ndarray, h2: np.ndarray, k: int, m: int) -> np.ndarray:
    """Kirsch-Mitzenmacher expansion ``(h1 + i*h2) % m`` for all keys at
    once, flat ``k``-per-key.

    Works entirely in uint64 by reducing both halves modulo ``m`` first:
    ``(h1%m + i*(h2%m)) % m`` equals the full-precision form, and the
    intermediate is at most ``k*(m-1)``, so the caller must guarantee
    ``k * (m - 1) < 2**64`` (checked here).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if m <= 0:
        raise ValueError("m must be positive")
    if k * (m - 1) >= 1 << 64:
        raise ValueError(f"k*m too large for uint64 KM expansion (k={k}, m={m})")
    um = np.uint64(m)
    i = np.arange(k, dtype=np.uint64)[None, :]
    out = i * (h2 % um)[:, None]
    out += (h1 % um)[:, None]
    out %= um
    return out.reshape(-1)
