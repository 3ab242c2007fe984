"""Packed temporal encoder: window bundling without leaving the bit domain.

The packed counterpart of :class:`repro.hdc.temporal.TemporalEncoder`:
spatial records arrive as uint64 words from
:class:`~repro.hdc.spatial_packed.PackedSpatialEncoder`, each 0.5 s block
is reduced to bit-sliced digit planes by a carry-save compressor tree,
adjacent blocks are combined with a packed ripple adder, and the window
majority is a bitwise magnitude comparator — the Fig. 2 dataflow with no
unpacked intermediate anywhere, bit-exact against the integer-counter
encoder.

The chunk-buffering scaffold is shared with the unpacked encoder
(:class:`repro.hdc.temporal.WindowBundler`), so every spatial record is
encoded exactly once even though windows overlap, and memory stays O(d).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.hdc.bitsliced import (
    bitsliced_counts,
    planes_add,
    planes_from_counts,
    planes_greater_than,
    planes_to_counts,
)
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import WindowBundler
from repro.signal.windows import WindowSpec


class PackedTemporalEncoder(WindowBundler):
    """Streaming window bundler over packed spatial records.

    Drop-in behavioural twin of
    :class:`repro.hdc.temporal.TemporalEncoder` whose outputs are packed
    uint64 H vectors of shape ``(n_windows, words)``.

    Args:
        spatial: The packed spatial encoder producing per-sample records.
        spec: Window geometry in samples (window a multiple of the step).
    """

    spatial: PackedSpatialEncoder

    def __init__(self, spatial: PackedSpatialEncoder, spec: WindowSpec) -> None:
        super().__init__(spatial, spec)
        self.words = spatial.words

    def _reset_blocks(self) -> None:
        self._block_planes: deque[np.ndarray] = deque(
            maxlen=self.blocks_per_window
        )

    def _block_state(self, block_codes: np.ndarray) -> np.ndarray:
        return bitsliced_counts(self.spatial.encode_packed(block_codes))

    def _absorb_block(self, state: np.ndarray) -> np.ndarray | None:
        self._block_planes.append(state)
        if len(self._block_planes) < self.blocks_per_window:
            return None
        window_planes = self._block_planes[0]
        for planes in list(self._block_planes)[1:]:
            window_planes = planes_add(window_planes, planes)
        return planes_greater_than(
            window_planes, self.spec.window_samples // 2
        )

    def _empty_windows(self) -> np.ndarray:
        return np.zeros((0, self.words), dtype=np.uint64)

    def _state_blocks(self) -> list[np.ndarray]:
        # Exported in the engine-independent integer form; the digit
        # planes are rebuilt on restore (their depth only depends on the
        # decoded counts, so the round trip is bit-exact downstream).
        return [
            planes_to_counts(planes, self.dim)
            for planes in self._block_planes
        ]

    def _restore_blocks(self, blocks: list[np.ndarray]) -> None:
        for counts in blocks:
            self._block_planes.append(planes_from_counts(counts, self.dim))


def encode_recording_packed(
    codes: np.ndarray, spatial: PackedSpatialEncoder, spec: WindowSpec
) -> np.ndarray:
    """One-shot packed encoding of a multichannel code stream.

    Args:
        codes: Integer array ``(n_samples, n_electrodes)``.
        spatial: Configured packed spatial encoder.
        spec: Window geometry (window a multiple of step).

    Returns:
        uint64 array ``(n_windows, words)``; window ``i`` covers code
        samples ``[i * step, i * step + window)``.
    """
    return PackedTemporalEncoder(spatial, spec).encode_all(codes)
