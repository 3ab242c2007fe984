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
from collections.abc import Hashable, Sequence

import numpy as np

from repro.hdc.bitsliced import (
    _counts_in_place,
    bitsliced_counts,
    planes_add,
    planes_from_counts,
    planes_greater_than,
    planes_to_counts,
)
from repro.hdc.parallel import FORK_MIN_BYTES
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import _ROUND_BLOCKS, WindowBundler
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

    def batch_key(self) -> Hashable | None:
        return (
            PackedTemporalEncoder, self.spatial.n_electrodes, self.dim,
            self.spec.step_samples, self.spec.window_samples,
        )

    @classmethod
    def feed_batch(
        cls,
        encoders: Sequence["PackedTemporalEncoder"],
        codes: Sequence[np.ndarray],
        stacks: dict | None = None,
    ) -> list[np.ndarray]:
        """Feed several encoders of one shape as one batch.

        The complete blocks of every encoder are encoded by one
        :meth:`~repro.hdc.spatial_packed.PackedSpatialEncoder.encode_packed`
        call on the encoders' stacked bound tables
        (:meth:`~repro.hdc.spatial_packed.PackedSpatialEncoder.stacked`),
        reduced to per-block digit planes by one carry-save tree, and
        every window they complete is summed by one plane add per
        extra block and thresholded by one comparator.  Each encoder
        ends exactly as its own :meth:`feed` would leave it.

        An encoder fed alone, or whose feed would fork
        (:func:`repro.hdc.parallel.fork_map`), runs its own
        :meth:`feed`.  Batches hold at most ``_ROUND_BLOCKS`` blocks.

        Args:
            stacks: Stacked encoders kept across calls, keyed by
                :meth:`batch_key`; a stack grows to cover every encoder
                it meets, so the caller drops it when encoders go away.
        """
        out: list = [None] * len(encoders)
        step = encoders[0].spec.step_samples
        rounds: list[list[tuple[int, list[np.ndarray]]]] = [[]]
        n_blocks = 0
        for s, (encoder, chunk) in enumerate(zip(encoders, codes)):
            new = (encoder._pending.shape[0] + len(chunk)) // step
            if len(encoders) == 1 or encoder._feed_work(new) >= FORK_MIN_BYTES:
                out[s] = encoder.feed(chunk)
                continue
            if rounds[-1] and n_blocks + new > _ROUND_BLOCKS:
                rounds.append([])
                n_blocks = 0
            rounds[-1].append((s, encoder._take_blocks(chunk)))
            n_blocks += new
        for members in filter(None, rounds):
            fed = _encode_round([encoders[s] for s, _ in members],
                                [blocks for _, blocks in members], stacks)
            for (s, _), h in zip(members, fed):
                out[s] = h
        return out

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


def _stacked_spatial(
    spatials: list[PackedSpatialEncoder], key: Hashable, stacks: dict | None
) -> tuple[PackedSpatialEncoder, np.ndarray]:
    """A spatial encoder covering ``spatials`` and each one's code offset.

    The stack in ``stacks[key]`` is reused while it covers every encoder
    of the call; otherwise it is rebuilt over its old members plus the
    new ones, so a fleet pays one rebuild per new session, not per tick.
    """
    if all(sp is spatials[0] for sp in spatials):
        return spatials[0], np.zeros(len(spatials), dtype=np.int64)
    # Members stay referenced by the stack, so their ids stay unique.
    members, offsets, stack = (stacks or {}).get(key, ([], {}, None))
    new = [sp for sp in dict.fromkeys(spatials) if id(sp) not in offsets]
    if new:
        members = members + new
        bases = np.cumsum([0] + [sp.n_codes for sp in members[:-1]])
        offsets = {id(sp): int(base) for sp, base in zip(members, bases)}
        stack = PackedSpatialEncoder.stacked(members)
        if stacks is not None:
            stacks[key] = (members, offsets, stack)
    return stack, np.array([offsets[id(sp)] for sp in spatials])


def _encode_round(
    encoders: list[PackedTemporalEncoder],
    blocks: list[list[np.ndarray]],
    stacks: dict | None,
) -> list[np.ndarray]:
    """H vectors of each encoder after absorbing its ``blocks`` (batched)."""
    first = encoders[0]
    empty = first._empty_windows()
    owners = [s for s, own in enumerate(blocks) for _ in own]
    if not owners:
        return [empty for _ in encoders]
    step, words = first.spec.step_samples, first.words
    spatial, offsets = _stacked_spatial(
        [encoders[s].spatial for s in owners], first.batch_key(), stacks
    )
    codes = np.concatenate([block for own in blocks for block in own])
    records = spatial.encode_packed(codes + np.repeat(offsets, step)[:, None])
    # One tree counts every block: rows are the samples of a block,
    # columns every block's words side by side.
    tree = np.ascontiguousarray(
        records.reshape(len(owners), step, words).transpose(1, 0, 2)
    )
    planes = np.stack(_counts_in_place(tree.reshape(step, -1)))
    planes = planes.reshape(-1, len(owners), words)
    states = [planes[:, b].copy() for b in range(len(owners))]
    # Every window completed, as its blocks oldest first; counts[s] of
    # them, in order, are encoder s's.
    k = first.blocks_per_window
    windows: list[list[np.ndarray]] = []
    counts = [0] * len(encoders)
    b = 0
    for s, encoder in enumerate(encoders):
        seq = list(encoder._block_planes) + states[b : b + len(blocks[s])]
        for j in range(max(k - 1, len(encoder._block_planes)), len(seq)):
            windows.append(seq[j - k + 1 : j + 1])
            counts[s] += 1
        encoder._block_planes.extend(states[b : b + len(blocks[s])])
        b += len(blocks[s])
    if not windows:
        return [empty for _ in encoders]
    depth = max(part.shape[0] for parts in windows for part in parts)
    sums = np.zeros((k, depth, len(windows), words), dtype=np.uint64)
    for w, parts in enumerate(windows):
        for o, part in enumerate(parts):
            sums[o, : part.shape[0], w] = part
    total = sums[0]
    for o in range(1, k):
        total = planes_add(total, sums[o])
    h = planes_greater_than(total, first.spec.window_samples // 2)
    bounds = np.cumsum([0] + counts)
    return [
        h[bounds[s] : bounds[s + 1]] if counts[s] else empty
        for s in range(len(encoders))
    ]


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
