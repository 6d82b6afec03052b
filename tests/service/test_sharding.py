"""Shard routers: determinism, range, uniformity, and keying."""

from __future__ import annotations

import tracemalloc

import pytest

from repro import accel
from repro.exceptions import ParameterError
from repro.service.cluster.ring import ROUTE_BATCH, HashShardPicker, KeyedShardPicker
from repro.urlgen.faker import UrlFactory

URLS = UrlFactory(seed=0x5EED).urls(400)

_MODES = ["auto", "pure"] + (["numpy"] if accel.numpy_or_none() is not None else [])


@pytest.mark.parametrize("picker", [HashShardPicker(), KeyedShardPicker(bytes(16))])
def test_pick_is_deterministic_and_in_range(picker):
    for url in URLS[:50]:
        first = picker.pick(url, 8)
        assert 0 <= first < 8
        assert picker.pick(url, 8) == first
        # str and bytes spellings route identically.
        assert picker.pick(url.encode(), 8) == first


@pytest.mark.parametrize("picker", [HashShardPicker(), KeyedShardPicker(bytes(16))])
def test_distribution_is_roughly_uniform(picker):
    shards = 4
    counts = [0] * shards
    for url in URLS:
        counts[picker.pick(url, shards)] += 1
    expected = len(URLS) / shards
    for count in counts:
        assert 0.5 * expected < count < 1.5 * expected


def test_hash_picker_is_public_and_seeded():
    a, b = HashShardPicker(seed=1), HashShardPicker(seed=1)
    other = HashShardPicker(seed=2)
    routes_a = [a.pick(url, 8) for url in URLS[:100]]
    assert routes_a == [b.pick(url, 8) for url in URLS[:100]]
    assert routes_a != [other.pick(url, 8) for url in URLS[:100]]


def test_keyed_picker_depends_on_secret_key():
    a = KeyedShardPicker(bytes(16))
    b = KeyedShardPicker(bytes([1]) * 16)
    routes = [(a.pick(url, 8), b.pick(url, 8)) for url in URLS[:100]]
    assert any(x != y for x, y in routes)
    # Fresh keys are generated (and kept) when none is supplied.
    auto = KeyedShardPicker()
    assert len(auto.key) == 16
    assert KeyedShardPicker(auto.key).pick(URLS[0], 8) == auto.pick(URLS[0], 8)


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        KeyedShardPicker(b"short")
    with pytest.raises(ParameterError):
        HashShardPicker().pick("x", 0)
    with pytest.raises(ParameterError):
        KeyedShardPicker(bytes(16)).pick("x", -1)


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize(
    "size",
    [0, 1, accel.ACCEL_MIN_BATCH - 1, accel.ACCEL_MIN_BATCH, ROUTE_BATCH + 44],
)
@pytest.mark.parametrize(
    "picker",
    [HashShardPicker(), HashShardPicker(seed=0xFFFFFFFF), KeyedShardPicker(bytes(16))],
)
def test_pick_batch_matches_per_item_pick(picker, size, mode):
    """Batch routing equals per-item routing on both sides of the accel
    threshold and across the routing-pass boundary, for str and bytes."""
    items = [
        url.encode() if i % 3 == 0 else url for i, url in enumerate(URLS[:size])
    ]
    if size:
        items[-1] = "caf\u00e9/\u8def"
    with accel.use_mode(mode):
        routes = picker.pick_batch(items, 7)
    assert routes == [picker.pick(item, 7) for item in items]


def test_pick_batch_rejects_bad_shard_count_in_every_mode():
    for mode in _MODES:
        with accel.use_mode(mode), pytest.raises(ParameterError):
            HashShardPicker().pick_batch(URLS[: accel.ACCEL_MIN_BATCH], 0)


def test_pick_batch_routes_a_long_key_pass_per_item_in_bounded_memory():
    """One long key among empty ones would pad every lane of the kernel
    to its width; that pass is routed per item, with no copy of the key."""
    picker = HashShardPicker()
    items = [b""] * (ROUTE_BATCH - 1) + [bytes(range(256)) * 4096]  # 1 MiB
    expected = [picker.pick(item, 7) for item in items]
    tracemalloc.start()
    try:
        routes = picker.pick_batch(items, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert routes == expected
    assert peak < 64 * 1024


@pytest.mark.skipif(accel.numpy_or_none() is None, reason="needs numpy")
def test_pick_batch_uses_the_kernel_only_on_passes_that_pad_little(monkeypatch):
    from repro.hashing import batched

    passes = []

    def counting(keys, seed):
        passes.append(len(keys))
        return kernel(keys, seed)

    kernel = batched.murmur3_32_batch
    monkeypatch.setattr(batched, "murmur3_32_batch", counting)
    picker = HashShardPicker()
    # The second pass, 50 one-byte keys and a 1000-byte one, would pad
    # to 51 * 1004 bytes, far past ROUTE_MAX_PADDING times its 1050.
    items = URLS[:ROUTE_BATCH] + ["a"] * 50 + [b"k" * 1000]
    with accel.use_mode("numpy"):
        routes = picker.pick_batch(items, 5)
    assert passes == [ROUTE_BATCH]
    assert routes == [picker.pick(item, 5) for item in items]
