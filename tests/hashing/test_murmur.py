"""MurmurHash3: published test vectors, properties, and wrappers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.hashing.murmur import (
    Murmur3_32,
    Murmur3_x64_128,
    fmix32,
    fmix64,
    murmur3_32,
    murmur3_x64_128,
)

# Canonical vectors (Appleby's reference implementation).
VECTORS_32 = [
    (b"", 0, 0x00000000),
    (b"", 1, 0x514E28B7),
    (b"", 0xFFFFFFFF, 0x81F16F39),
    (b"\x00\x00\x00\x00", 0, 0x2362F9DE),
    (b"hello", 0, 0x248BFA47),
    (b"The quick brown fox jumps over the lazy dog", 0, 0x2E4FF723),
]


@pytest.mark.parametrize("data,seed,expected", VECTORS_32)
def test_murmur3_32_vectors(data, seed, expected):
    assert murmur3_32(data, seed) == expected


def test_murmur3_x64_128_vector():
    h1, h2 = murmur3_x64_128(b"The quick brown fox jumps over the lazy dog", 0)
    assert (h1, h2) == (0xE34BBC7BBC071B6C, 0x7A433CA9C49A9347)


@pytest.mark.parametrize("length", range(0, 20))
def test_murmur3_32_all_tail_lengths(length):
    # Exercises every body/tail combination (block size 4).
    data = bytes(range(length))
    value = murmur3_32(data, 7)
    assert 0 <= value < 2**32
    assert murmur3_32(data, 7) == value  # deterministic


@pytest.mark.parametrize("length", range(0, 36))
def test_murmur3_128_all_tail_lengths(length):
    # Exercises every tail branch (block size 16).
    data = bytes(range(length))
    h1, h2 = murmur3_x64_128(data, 3)
    assert 0 <= h1 < 2**64 and 0 <= h2 < 2**64


def test_seed_changes_output():
    assert murmur3_32(b"item", 0) != murmur3_32(b"item", 1)
    assert murmur3_x64_128(b"item", 0) != murmur3_x64_128(b"item", 1)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fmix32_is_bijective_on_samples(x):
    # fmix32 is a bijection; distinct inputs map to distinct outputs
    # (checked via the inverse in test_inversion; here: in-range+stable).
    y = fmix32(x)
    assert 0 <= y < 2**32
    assert fmix32(x) == y


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_fmix64_in_range(x):
    y = fmix64(x)
    assert 0 <= y < 2**64


@given(st.binary(max_size=64), st.integers(min_value=0, max_value=2**32 - 1))
def test_murmur32_range_property(data, seed):
    assert 0 <= murmur3_32(data, seed) < 2**32


def _bytewise_murmur3_32(data: bytes, seed: int) -> int:
    """The reference's byte-at-a-time block and tail assembly."""
    mask = 0xFFFFFFFF

    def rotl(x: int, r: int) -> int:
        return ((x << r) | (x >> (32 - r))) & mask

    h = seed & mask
    rounded_end = len(data) & ~3
    for i in range(0, rounded_end, 4):
        k = data[i] | data[i + 1] << 8 | data[i + 2] << 16 | data[i + 3] << 24
        h ^= rotl(k * 0xCC9E2D51 & mask, 15) * 0x1B873593 & mask
        h = (rotl(h, 13) * 5 + 0xE6546B64) & mask
    k = 0
    tail = len(data) & 3
    if tail == 3:
        k ^= data[rounded_end + 2] << 16
    if tail >= 2:
        k ^= data[rounded_end + 1] << 8
    if tail >= 1:
        k ^= data[rounded_end]
        h ^= rotl(k * 0xCC9E2D51 & mask, 15) * 0x1B873593 & mask
    return fmix32(h ^ len(data))


@given(
    st.binary(max_size=64),
    st.one_of(
        st.sampled_from([0, 0xFFFFFFFF]),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
)
def test_murmur32_matches_bytewise_reference(data, seed):
    """The word-unpacking implementation equals byte-at-a-time assembly
    for every block count and tail length."""
    assert murmur3_32(data, seed) == _bytewise_murmur3_32(data, seed)


def test_wrapper_hash_object():
    fn = Murmur3_32(seed=9)
    assert fn.digest_bits == 32
    assert fn.hash_int(b"abc") == murmur3_32(b"abc", 9)
    assert fn.hash_int("abc") == murmur3_32(b"abc", 9)  # str canonicalised
    assert len(fn.digest(b"abc")) == 4


def test_wrapper_128_halves():
    fn = Murmur3_x64_128(seed=0)
    h1, h2 = fn.halves(b"xyz")
    assert fn.hash_int(b"xyz") == (h1 << 64) | h2
    assert fn.digest_bits == 128


def test_avalanche_rough():
    # Flipping one input bit should flip roughly half the output bits.
    base = murmur3_32(b"avalanche-test", 0)
    flipped = murmur3_32(b"avalanche-tesu", 0)  # last char +1
    differing = (base ^ flipped).bit_count()
    assert 8 <= differing <= 24
