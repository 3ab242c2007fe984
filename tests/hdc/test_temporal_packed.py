"""Tests for repro.hdc.temporal_packed (packed window bundler)."""

import numpy as np
import pytest

from repro.hdc.backend import unpack_bits
from repro.hdc.bitsliced import bitsliced_counts
from repro.hdc.item_memory import ItemMemory
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import encode_recording
from repro.hdc.temporal_packed import (
    PackedTemporalEncoder,
    encode_recording_packed,
)
from repro.signal.windows import WindowSpec

DIM = 200
N_ELECTRODES = 5
FS = 32.0


@pytest.fixture(scope="module")
def memories():
    return ItemMemory(16, DIM, seed=1), ItemMemory(N_ELECTRODES, DIM, seed=2)


@pytest.fixture(scope="module")
def spec():
    return WindowSpec.from_seconds(1.0, 0.5, FS)


@pytest.fixture()
def codes(rng):
    return rng.integers(0, 16, (500, N_ELECTRODES))


class TestConstruction:
    def test_rejects_non_tiling_window(self, memories):
        spatial = PackedSpatialEncoder(*memories)
        with pytest.raises(ValueError):
            PackedTemporalEncoder(
                spatial, WindowSpec(window_samples=30, step_samples=13)
            )

    def test_rejects_wrong_channel_count(self, memories, spec):
        encoder = PackedTemporalEncoder(PackedSpatialEncoder(*memories), spec)
        with pytest.raises(ValueError):
            encoder.feed(np.zeros((10, N_ELECTRODES + 1), dtype=np.int64))


class TestEquivalence:
    def test_matches_unpacked_recording(self, memories, spec, codes):
        h_unpacked = encode_recording(
            codes, SpatialEncoder(*memories), spec
        )
        h_packed = encode_recording_packed(
            codes, PackedSpatialEncoder(*memories), spec
        )
        assert h_packed.dtype == np.uint64
        np.testing.assert_array_equal(unpack_bits(h_packed, DIM), h_unpacked)

    @pytest.mark.parametrize("chunk", [1, 7, 16, 33, 250])
    def test_chunked_feed_equals_one_shot(self, memories, spec, codes, chunk):
        spatial = PackedSpatialEncoder(*memories)
        one_shot = encode_recording_packed(codes, spatial, spec)
        encoder = PackedTemporalEncoder(spatial, spec)
        pieces = [
            encoder.feed(codes[start : start + chunk])
            for start in range(0, codes.shape[0], chunk)
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), one_shot)

    def test_reset_restarts_stream(self, memories, spec, codes):
        spatial = PackedSpatialEncoder(*memories)
        encoder = PackedTemporalEncoder(spatial, spec)
        encoder.feed(codes[:100])
        encoder.reset()
        np.testing.assert_array_equal(
            encoder.feed(codes), encode_recording_packed(codes, spatial, spec)
        )


class TestShapes:
    def test_empty_feed(self, memories, spec):
        encoder = PackedTemporalEncoder(PackedSpatialEncoder(*memories), spec)
        out = encoder.feed(np.zeros((0, N_ELECTRODES), dtype=np.int64))
        assert out.shape == (0, encoder.words)

    def test_window_count(self, memories, spec, codes):
        h = encode_recording_packed(
            codes, PackedSpatialEncoder(*memories), spec
        )
        step = spec.step_samples
        expected = codes.shape[0] // step - (spec.window_samples // step) + 1
        assert h.shape[0] == expected


class TestFeedBatch:
    """Several same-shape encoders fed as one batch (the fleet tick)."""

    @staticmethod
    def _encoders(spec, seeds):
        return [
            PackedTemporalEncoder(
                PackedSpatialEncoder(
                    ItemMemory(16, DIM, seed=seed),
                    ItemMemory(N_ELECTRODES, DIM, seed=seed + 100),
                ),
                spec,
            )
            for seed in seeds
        ]

    def test_block_states_match_per_encoder_counts(self, spec, rng):
        encoders = self._encoders(spec, (1, 2, 3))
        step = spec.step_samples
        # One block, two blocks and a part block: different templates,
        # one stacked gather.
        codes = [
            rng.integers(0, 16, (n, N_ELECTRODES)) for n in (step, 2 * step, 5)
        ]
        PackedTemporalEncoder.feed_batch(encoders, codes, {})
        for encoder, chunk in zip(encoders, codes):
            states = list(encoder._block_planes)
            assert len(states) == chunk.shape[0] // step
            for b, state in enumerate(states):
                block = chunk[b * step : (b + 1) * step]
                records = encoder.spatial.encode_packed(block)
                expected = bitsliced_counts(records)
                assert state.dtype == np.uint64
                np.testing.assert_array_equal(state, expected)

    def test_stored_states_are_contiguous_copies(self, spec, rng):
        encoders = self._encoders(spec, (4, 5))
        step = spec.step_samples
        codes = [rng.integers(0, 16, (2 * step, N_ELECTRODES))] * 2
        PackedTemporalEncoder.feed_batch(encoders, codes, {})
        states = [s for e in encoders for s in e._block_planes]
        assert len(states) == 4
        for i, state in enumerate(states):
            assert state.flags.c_contiguous and state.flags.owndata
            for other in states[i + 1 :]:
                assert not np.shares_memory(state, other)

    def test_windows_match_solo_feeds_across_calls(self, spec, rng):
        seeds = (6, 7, 8)
        batched = self._encoders(spec, seeds)
        solo = self._encoders(spec, seeds)
        stacks: dict = {}
        for _ in range(6):
            codes = [
                rng.integers(0, 16, (int(rng.integers(0, 40)), N_ELECTRODES))
                for _ in seeds
            ]
            got = PackedTemporalEncoder.feed_batch(batched, codes, stacks)
            for encoder, chunk, h in zip(solo, codes, got):
                np.testing.assert_array_equal(h, encoder.feed(chunk))
                assert h.dtype == np.uint64 and h.shape[1] == encoder.words

    def test_stack_is_reused_and_grows(self, spec, rng):
        encoders = self._encoders(spec, (9, 10, 11))
        step = spec.step_samples
        stacks: dict = {}
        block = rng.integers(0, 16, (step, N_ELECTRODES))
        PackedTemporalEncoder.feed_batch(encoders[:2], [block] * 2, stacks)
        (members, _, stack), = stacks.values()
        PackedTemporalEncoder.feed_batch(encoders[:2], [block] * 2, stacks)
        assert next(iter(stacks.values()))[2] is stack
        PackedTemporalEncoder.feed_batch(encoders[1:], [block] * 2, stacks)
        members, _, grown = next(iter(stacks.values()))
        assert grown is not stack
        assert members == [e.spatial for e in encoders]
        assert grown.n_codes == 3 * 16
