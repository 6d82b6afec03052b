"""Parity of the batched (numpy-lane) hashing with the scalar reference.

The vectorised murmurs (x64_128 and x86_32), the uint64 Kirsch-Mitzenmacher expansion and the
digest-recycling window kernel must be bit-identical with the scalar
implementations for every key length, seed and geometry -- hypothesis
drives the key shapes, fixed grids pin the geometry corners.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.hashing.base import ensure_bytes
from repro.hashing.crypto import SHA256
from repro.hashing.kirsch_mitzenmacher import KirschMitzenmacherStrategy, km_indexes
from repro.hashing.murmur import Murmur3_x64_128, murmur3_32, murmur3_x64_128
from repro.hashing.recycling import RecyclingStrategy

pytestmark = pytest.mark.skipif(
    accel.numpy_or_none() is None, reason="numpy backend unavailable"
)


def _batched():
    from repro.hashing import batched

    return batched


@given(
    datas=st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=200, deadline=None)
def test_murmur_batch_matches_scalar(datas, seed):
    h1, h2 = _batched().murmur3_x64_128_batch(datas, seed)
    expected = [murmur3_x64_128(d, seed) for d in datas]
    assert list(zip(h1.tolist(), h2.tolist())) == expected


def test_murmur_batch_covers_every_tail_length():
    """Key lengths 0..48 sweep every tail residue and 0-3 whole blocks."""
    datas = [bytes(range(n)) for n in range(49)]
    h1, h2 = _batched().murmur3_x64_128_batch(datas, seed=7)
    assert list(zip(h1.tolist(), h2.tolist())) == [
        murmur3_x64_128(d, 7) for d in datas
    ]


def test_murmur_batch_empty_input():
    h1, h2 = _batched().murmur3_x64_128_batch([])
    assert len(h1) == len(h2) == 0


@given(
    datas=st.lists(st.binary(min_size=0, max_size=64), min_size=0, max_size=40),
    seed=st.one_of(
        st.sampled_from([0, 0xFFFFFFFF]),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
)
@settings(max_examples=200, deadline=None)
def test_murmur32_batch_matches_scalar(datas, seed):
    hashes = _batched().murmur3_32_batch(datas, seed)
    assert hashes.dtype == accel.numpy_or_none().uint32
    assert hashes.tolist() == [murmur3_32(d, seed) for d in datas]


@pytest.mark.parametrize("seed", [0, 1, 0xFFFFFFFF])
def test_murmur32_batch_covers_every_tail_length(seed):
    """Lengths 0..19 sweep every tail residue (0-3) over 0-4 whole
    blocks, mixed in one batch so short keys freeze while long ones
    still mix."""
    datas = [bytes(range(n)) for n in range(20)]
    assert _batched().murmur3_32_batch(datas, seed).tolist() == [
        murmur3_32(d, seed) for d in datas
    ]


def test_murmur32_batch_empty_input():
    assert len(_batched().murmur3_32_batch([], seed=3)) == 0


def test_murmur32_batch_non_ascii_text():
    """Text keys hash as their UTF-8 bytes, multi-byte characters
    included."""
    items = ["caf\u00e9", "\u6f22\u5b57/\u8def\u5f84", "\U0001f600", "", "ascii"]
    datas = [ensure_bytes(item) for item in items]
    assert _batched().murmur3_32_batch(datas, 0x5A4D).tolist() == [
        murmur3_32(d, 0x5A4D) for d in datas
    ]


@given(
    h_pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**64 - 1),
            st.integers(min_value=0, max_value=2**64 - 1),
        ),
        min_size=1,
        max_size=30,
    ),
    k=st.integers(min_value=1, max_value=12),
    m=st.sampled_from([2, 97, 958, 3200, 1 << 20]),
)
@settings(max_examples=200, deadline=None)
def test_km_flat_matches_scalar(h_pairs, k, m):
    np = accel.numpy_or_none()
    h1 = np.array([p[0] for p in h_pairs], dtype=np.uint64)
    h2 = np.array([p[1] for p in h_pairs], dtype=np.uint64)
    flat = _batched().km_flat_indexes(h1, h2, k, m)
    expected = [i for p in h_pairs for i in km_indexes(p[0], p[1], k, m)]
    assert flat.tolist() == expected


def test_km_flat_rejects_uint64_overflow():
    np = accel.numpy_or_none()
    ones = np.ones(1, dtype=np.uint64)
    with pytest.raises(ValueError, match="uint64"):
        _batched().km_flat_indexes(ones, ones, k=2, m=1 << 64)


@pytest.mark.parametrize("m", [958, 3200, 1 << 16])
@pytest.mark.parametrize("k", [1, 4, 7])
def test_km_strategy_flat_batch_parity(k, m):
    """The strategy's accelerated flat path equals the scalar per-item
    expansion, in item order."""
    strategy = KirschMitzenmacherStrategy(Murmur3_x64_128(seed=3).halves)
    items = [b"key-%d" % i for i in range(100)] + ["text-item", b"", b"\xff" * 33]
    with accel.use_mode("pure"):
        expected = strategy.flat_batch_indexes(items, k, m)
    with accel.use_mode("numpy"):
        fast = strategy.flat_batch_indexes(items, k, m)
    assert list(fast) == list(expected)


@pytest.mark.parametrize("m", [256, 1024, 958])
@pytest.mark.parametrize("k", [1, 4, 8])
def test_recycling_strategy_flat_batch_parity(k, m):
    strategy = RecyclingStrategy(SHA256())
    items = [b"url-%d" % i for i in range(80)] + ["scheme://host/path", b"\x00" * 5]
    with accel.use_mode("pure"):
        expected = strategy.flat_batch_indexes(items, k, m)
    with accel.use_mode("numpy"):
        fast = strategy.flat_batch_indexes(items, k, m)
    assert list(fast) == list(expected)


def test_recycling_salted_flat_batch_parity():
    """A salt disables the kernel gate; both modes still agree."""
    strategy = RecyclingStrategy(SHA256(), salt=b"pepper")
    items = [b"u%d" % i for i in range(70)]
    with accel.use_mode("pure"):
        expected = strategy.flat_batch_indexes(items, 4, 1024)
    with accel.use_mode("numpy"):
        fast = strategy.flat_batch_indexes(items, 4, 1024)
    assert list(fast) == list(expected)
