"""Packed spatial encoder: the Fig. 2 dataflow without unpacking.

Functionally identical to :class:`repro.hdc.spatial.SpatialEncoder` but
operating entirely on packed uint64 words: per sample it XORs the packed
electrode and code vectors (binding) and accumulates the bound masks in
a :class:`~repro.hdc.bitsliced.BitslicedCounter`, whose magnitude
comparator implements the majority — exactly the XOR / transpose /
popcount structure of the paper's GPU encoding kernel restated for
64-bit CPU words.

Batch encoding works tile by tile: each tile of samples is gathered
electrode-major from the packed bound table straight into one
cache-sized scratch buffer, then reduced in place by the carry-save
compressor tree (:func:`repro.hdc.bitsliced._counts_in_place`) and a
bitwise magnitude comparator while it is still in cache — every spatial
record in a handful of full-width word operations.  The packed backend
of :class:`repro.core.detector.LaelapsDetector` runs entirely through
this path and is verified word-exact against the unpacked encoder.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.hdc.backend import pack_bits, packed_words
from repro.hdc.bitsliced import (
    BitslicedCounter,
    _counts_in_place,
    _greater_than,
)
from repro.hdc.item_memory import ItemMemory

#: Byte budget of one gathered ``(n_electrodes, tile, words)`` sample
#: tile.  Sized to stay resident in a 4 MiB L2 while the compressor tree
#: makes its passes over it; tiles never shrink below one sample.
_TILE_BYTES = 2 * 1024 * 1024


class PackedSpatialEncoder:
    """Bit-sliced spatial-record encoder (packed in, packed out).

    Args:
        code_memory: IM1 — LBP-code atomic vectors.
        electrode_memory: IM2 — electrode-name atomic vectors.
    """

    def __init__(
        self, code_memory: ItemMemory, electrode_memory: ItemMemory
    ) -> None:
        if code_memory.dim != electrode_memory.dim:
            raise ValueError(
                "item memories must share a dimension, got "
                f"{code_memory.dim} and {electrode_memory.dim}"
            )
        self.dim = code_memory.dim
        self.n_electrodes = electrode_memory.n_items
        #: Packed word count per hypervector, ``packed_words(dim)``.
        self.words = packed_words(self.dim)
        # Precompute the packed bound table (n_electrodes, n_codes, words):
        # the software analogue of IM1/IM2 staged in shared memory.
        packed_codes = pack_bits(code_memory.vectors)
        packed_electrodes = pack_bits(electrode_memory.vectors)
        self._set_table(
            packed_electrodes[:, None, :] ^ packed_codes[None, :, :]
        )

    def _set_table(self, table: np.ndarray) -> None:
        """Install the ``(n_electrodes, n_codes, words)`` bound table."""
        self._table = table
        self.n_codes = table.shape[1]
        # Row-flattened view plus per-electrode row offsets: one
        # ``np.take`` gathers a tile electrode-major into the scratch.
        self._flat_table = table.reshape(-1, self.words)
        self._row_offsets = (
            np.arange(self.n_electrodes)[:, None] * self.n_codes
        )

    @classmethod
    def stacked(
        cls, encoders: Sequence["PackedSpatialEncoder"]
    ) -> "PackedSpatialEncoder":
        """One encoder over the alphabets of ``encoders`` side by side.

        Code ``c`` of ``encoders[s]`` is code ``offset_s + c`` of the
        result, where ``offset_s`` sums the ``n_codes`` of the encoders
        before it, so one :meth:`encode_packed` call encodes samples of
        every encoder (each sample wholly from one of them) in a single
        gather and compressor tree.  The encoders must share their
        electrode count and dimension.
        """
        first = encoders[0]
        for encoder in encoders:
            if (encoder.n_electrodes, encoder.dim) != (
                first.n_electrodes, first.dim
            ):
                raise ValueError(
                    "stacked encoders must share electrodes and dimension"
                )
        stack = PackedSpatialEncoder.__new__(PackedSpatialEncoder)
        stack.dim, stack.n_electrodes = first.dim, first.n_electrodes
        stack.words = first.words
        stack._set_table(
            np.concatenate([encoder._table for encoder in encoders], axis=1)
        )
        return stack

    def encode_sample_packed(self, codes: np.ndarray) -> np.ndarray:
        """Spatial record of one sample, packed, shape ``(words,)``."""
        arr = np.asarray(codes)
        if arr.shape != (self.n_electrodes,):
            raise ValueError(
                f"expected ({self.n_electrodes},) codes, got {arr.shape}"
            )
        if arr.min() < 0 or arr.max() >= self.n_codes:
            raise ValueError(f"code out of range [0, {self.n_codes})")
        counter = BitslicedCounter(self.dim, self.n_electrodes)
        for j in range(self.n_electrodes):
            counter.add(self._table[j, arr[j]])
        return counter.greater_than(self.n_electrodes // 2)

    def encode_packed(self, codes: np.ndarray) -> np.ndarray:
        """Spatial records for a batch, packed, ``(n_samples, words)``.

        Vectorised over samples: each tile of at most ``_TILE_BYTES`` of
        bound masks is gathered electrode-major into one reused scratch
        buffer and reduced there by :meth:`_tile_majority`, so the
        per-sample Python loop of the reference path never runs on the
        hot path and no tile outgrows the cache.
        """
        arr = np.asarray(codes)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.n_electrodes:
            raise ValueError(
                f"expected (n_samples, {self.n_electrodes}), got {arr.shape}"
            )
        n_samples = arr.shape[0]
        out = np.empty((n_samples, self.words), dtype=np.uint64)
        if n_samples == 0:
            return out
        if arr.min() < 0 or arr.max() >= self.n_codes:
            raise ValueError(f"code out of range [0, {self.n_codes})")
        n, words = self.n_electrodes, self.words
        tile = min(n_samples, max(1, _TILE_BYTES // (n * words * 8)))
        scratch = np.empty(n * tile * words, dtype=np.uint64)
        rows = arr.T + self._row_offsets  # flat-table row of every mask
        for start in range(0, n_samples, tile):
            stop = min(start + tile, n_samples)
            masks = scratch[: n * (stop - start) * words]
            masks = masks.reshape(n, stop - start, words)
            # Codes are range-checked above, so "clip" never clips; unlike
            # the default "raise" mode it writes straight into the scratch.
            np.take(
                self._flat_table, rows[:, start:stop], axis=0, out=masks,
                mode="clip",
            )
            out[start:stop] = self._tile_majority(masks)
        return out

    def _tile_majority(self, masks: np.ndarray) -> np.ndarray:
        """Majority words of one gathered tile, ``(tile, words)``.

        ``masks`` is the C-contiguous electrode-major ``(n_electrodes,
        tile, words)`` scratch; the compressor tree overwrites it.
        """
        planes = _counts_in_place(masks.reshape(self.n_electrodes, -1))
        return _greater_than(planes, self.n_electrodes // 2).reshape(
            masks.shape[1:]
        )

    def encode(self, codes: np.ndarray) -> np.ndarray:
        """Unpacked uint8 records, drop-in compatible with the default
        encoder (used by the equivalence tests)."""
        from repro.hdc.backend import unpack_bits

        return unpack_bits(self.encode_packed(codes), self.dim)
