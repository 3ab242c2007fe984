"""Tests for the bit-sliced counter and the packed spatial encoder."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hdc.spatial_packed as spatial_packed
from repro.hdc.backend import pack_bits, random_bits, unpack_bits
from repro.hdc.bitsliced import (
    BitslicedCounter,
    _greater_than,
    bitsliced_counts,
    planes_greater_than,
    planes_to_counts,
)
from repro.hdc.item_memory import ItemMemory
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder


class TestBitslicedCounter:
    def test_counts_match_plain_sum(self, rng):
        dim, n = 200, 13
        masks = random_bits((n, dim), rng)
        counter = BitslicedCounter(dim, n)
        for mask in masks:
            counter.add(pack_bits(mask))
        np.testing.assert_array_equal(
            counter.counts(), masks.sum(axis=0, dtype=np.int64)
        )

    def test_greater_than_matches_integer_compare(self, rng):
        dim, n = 130, 9
        masks = random_bits((n, dim), rng)
        counter = BitslicedCounter(dim, n)
        for mask in masks:
            counter.add(pack_bits(mask))
        counts = masks.sum(axis=0, dtype=np.int64)
        for threshold in range(-1, n + 2):
            expected = (counts > threshold).astype(np.uint8)
            got = unpack_bits(counter.greater_than(threshold), dim)
            np.testing.assert_array_equal(got, expected, err_msg=f"t={threshold}")

    def test_capacity_enforced(self, rng):
        counter = BitslicedCounter(64, 2)
        mask = pack_bits(random_bits(64, rng))
        counter.add(mask).add(mask)
        with pytest.raises(ValueError):
            counter.add(mask)

    def test_reset(self, rng):
        counter = BitslicedCounter(64, 4)
        counter.add(pack_bits(random_bits(64, rng)))
        counter.reset()
        assert counter.n_added == 0
        np.testing.assert_array_equal(counter.counts(), 0)

    def test_wrong_mask_shape_raises(self):
        counter = BitslicedCounter(64, 4)
        with pytest.raises(ValueError):
            counter.add(np.zeros(5, dtype=np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 20), st.data())
    def test_property_counts(self, dim, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        masks = rng.integers(0, 2, size=(n, dim), dtype=np.uint8)
        counter = BitslicedCounter(dim, n)
        for mask in masks:
            counter.add(pack_bits(mask))
        np.testing.assert_array_equal(
            counter.counts(), masks.sum(axis=0, dtype=np.int64)
        )
        majority = unpack_bits(counter.greater_than(n // 2), dim)
        np.testing.assert_array_equal(
            majority, (masks.sum(axis=0) > n // 2).astype(np.uint8)
        )


class TestPackedSpatialEncoder:
    @pytest.fixture(scope="class")
    def encoders(self):
        codes = ItemMemory(64, 300, seed=1)
        electrodes = ItemMemory(7, 300, seed=2)
        return (
            SpatialEncoder(codes, electrodes),
            PackedSpatialEncoder(codes, electrodes),
        )

    def test_word_exact_equivalence(self, encoders, rng):
        default, packed = encoders
        codes = rng.integers(0, 64, size=(25, 7))
        np.testing.assert_array_equal(
            packed.encode(codes), default.encode(codes)
        )

    def test_single_sample(self, encoders, rng):
        default, packed = encoders
        codes = rng.integers(0, 64, size=7)
        np.testing.assert_array_equal(
            unpack_bits(packed.encode_sample_packed(codes), 300),
            default.encode_sample(codes),
        )

    def test_even_electrode_tie_convention(self, rng):
        # With an even electrode count the tie-to-zero rule must match.
        codes_im = ItemMemory(16, 256, seed=3)
        elec_im = ItemMemory(8, 256, seed=4)
        default = SpatialEncoder(codes_im, elec_im)
        packed = PackedSpatialEncoder(codes_im, elec_im)
        codes = rng.integers(0, 16, size=(40, 8))
        np.testing.assert_array_equal(
            packed.encode(codes), default.encode(codes)
        )

    def test_rejects_bad_codes(self, encoders):
        _, packed = encoders
        with pytest.raises(ValueError):
            packed.encode_sample_packed(np.full(7, 64))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            PackedSpatialEncoder(ItemMemory(4, 64, 1), ItemMemory(4, 128, 2))


class TestBitslicedCountsInput:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 64, 65])
    def test_input_left_unmodified(self, rng, k):
        masks = pack_bits(random_bits((k, 3, 130), rng))
        before = masks.copy()
        planes = bitsliced_counts(masks)
        np.testing.assert_array_equal(masks, before)
        assert planes.shape[1:] == masks.shape[1:]


class TestGreaterThanInput:
    @pytest.mark.parametrize("k", [1, 5, 64])
    def test_planes_left_unmodified(self, rng, k):
        masks = pack_bits(random_bits((k, 2, 130), rng))
        planes = bitsliced_counts(masks)
        counts = planes_to_counts(planes, 130)
        rows = list(planes.copy())  # the row-view form of the spatial path
        before = planes.copy()
        for threshold in (0, k // 2, k - 1, k, 2 * k + 1):
            want = pack_bits((counts > threshold).astype(np.uint8))
            np.testing.assert_array_equal(
                planes_greater_than(planes, threshold), want
            )
            np.testing.assert_array_equal(_greater_than(rows, threshold), want)
            np.testing.assert_array_equal(planes, before)
            np.testing.assert_array_equal(np.stack(rows), before)


#: Samples per encoded batch; 7-sample tiles leave a 6-sample remainder.
TILE_BATCH = 20


@functools.lru_cache(maxsize=None)
def _tile_case(n_electrodes: int, dim: int):
    """Encoders, a code batch and its unpacked oracle records."""
    code_memory = ItemMemory(64, dim, seed=11)
    electrode_memory = ItemMemory(n_electrodes, dim, seed=12)
    rng = np.random.default_rng(n_electrodes * 100_003 + dim)
    codes = rng.integers(0, 64, size=(TILE_BATCH, n_electrodes))
    oracle = SpatialEncoder(code_memory, electrode_memory).encode(codes)
    packed = PackedSpatialEncoder(code_memory, electrode_memory)
    return packed, codes, pack_bits(oracle)


class TestTileBoundaries:
    """``encode_packed`` is word-exact whatever the tile budget cuts."""

    @pytest.mark.parametrize("dim", [65, 1_000, 10_001])
    @pytest.mark.parametrize("n_electrodes", [1, 2, 3, 4, 64, 300])
    @pytest.mark.parametrize("tile_samples", [1, 7, TILE_BATCH + 5])
    def test_matches_unpacked_oracle(
        self, monkeypatch, n_electrodes, dim, tile_samples
    ):
        packed, codes, expected = _tile_case(n_electrodes, dim)
        monkeypatch.setattr(
            spatial_packed,
            "_TILE_BYTES",
            tile_samples * n_electrodes * packed.words * 8,
        )
        np.testing.assert_array_equal(packed.encode_packed(codes), expected)

    def test_budget_below_one_sample_still_encodes(self, monkeypatch):
        packed, codes, expected = _tile_case(64, 1_000)
        monkeypatch.setattr(spatial_packed, "_TILE_BYTES", 1)
        np.testing.assert_array_equal(packed.encode_packed(codes), expected)
