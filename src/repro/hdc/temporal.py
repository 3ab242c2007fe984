"""Temporal histogram encoder: bundle spatial records over a window.

The d-bit vector ``H`` estimates the LBP-code histogram of a 1 s analysis
window by bundling the 512 spatial records produced inside it
(Sec. III-B):  ``H = [S_1 + S_2 + ... + S_512]``, recomputed every 0.5 s.

The implementation mirrors the GPU dataflow of Fig. 2: the per-component
sums of the ``S`` vectors are accumulated per 0.5 s *block* and one window
is the sum of adjacent blocks, so a recording of any length streams
through in O(d) memory and every ``S`` is encoded exactly once even though
windows overlap.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Sequence

import numpy as np

from repro.hdc.backend import packed_words
from repro.hdc.ops import majority_from_counts
from repro.hdc.parallel import fork_map
from repro.hdc.spatial import SpatialEncoder
from repro.signal.windows import WindowSpec


#: Most blocks whose states a feed holds at once: a longer feed runs in
#: rounds, so a forked round holds at most 512 block states (20 MB of
#: int32 counts at d = 10 000) whatever the recording's length.
_ROUND_BLOCKS = 512


class WindowBundler:
    """Streaming scaffold shared by both temporal-encoder backends.

    Buffers per-sample codes across ``feed`` calls, tiles them into
    exact 0.5 s blocks, and passes each full block through two backend
    hooks: ``_block_state`` (the spatial encode plus the block's
    per-component counts, a pure function of the block's codes and the
    immutable item memories) and ``_absorb_block`` (the ordered append
    to the window's block deque and the window majority).  Subclasses
    own the per-block state (integer counters or bit-sliced planes) and
    the output representation — keeping the chunk-boundary bookkeeping
    in one place is what makes the backends provably equivalent under
    arbitrary chunking.

    Because ``_block_state`` is pure, the complete blocks of one
    ``feed`` may be encoded on several cores at once
    (:func:`repro.hdc.parallel.fork_map`); ``_absorb_block`` always runs
    in order in the calling process.  A fleet tick feeds many encoders
    at once through :func:`feed_many`: encoders with equal
    :meth:`batch_key` go through their class's ``feed_batch``, which
    may encode all their blocks in one pass.

    Args:
        spatial: The spatial encoder producing per-sample records; must
            expose ``dim`` and ``n_electrodes``.
        spec: Window geometry in samples; ``window_samples`` must be an
            integer multiple of ``step_samples`` (the paper uses 512/256)
            so windows tile exactly into blocks.
    """

    #: Whether a feed may fork to encode its blocks on several cores.
    fork_blocks = True

    def __init__(self, spatial, spec: WindowSpec) -> None:
        if spec.window_samples % spec.step_samples != 0:
            raise ValueError(
                "window must be an integer multiple of the step, got "
                f"{spec.window_samples}/{spec.step_samples}"
            )
        self.spatial = spatial
        self.spec = spec
        self.blocks_per_window = spec.window_samples // spec.step_samples
        self.dim = spatial.dim
        self._pending = np.zeros((0, spatial.n_electrodes), dtype=np.int64)
        self._reset_blocks()

    def reset(self) -> None:
        """Drop buffered samples and block state (start of a new record)."""
        self._pending = np.zeros((0, self.spatial.n_electrodes), dtype=np.int64)
        self._reset_blocks()

    def _reset_blocks(self) -> None:
        """(Re)initialise the per-block accumulation state."""
        raise NotImplementedError

    def _block_state(self, block_codes: np.ndarray) -> np.ndarray:
        """Encode one full block into its per-component counts."""
        raise NotImplementedError

    def _absorb_block(self, state: np.ndarray) -> np.ndarray | None:
        """Append a block's counts; return an H vector once enough exist."""
        raise NotImplementedError

    def _empty_windows(self) -> np.ndarray:
        """A zero-window output array in the backend's representation."""
        raise NotImplementedError

    def feed(self, codes: np.ndarray) -> np.ndarray:
        """Push a chunk of per-sample codes; return completed H vectors.

        Args:
            codes: Integer array ``(n_samples, n_electrodes)`` — any chunk
                size; samples are buffered across calls.

        Returns:
            Array ``(n_new_windows, ...)`` of H vectors completed by this
            chunk (possibly empty), in the backend's representation.
        """
        blocks = self._take_blocks(codes)
        outputs = []
        for first in range(0, len(blocks), _ROUND_BLOCKS):
            round_blocks = blocks[first : first + _ROUND_BLOCKS]
            for state in self._block_states(round_blocks):
                h = self._absorb_block(state)
                if h is not None:
                    outputs.append(h)
        if not outputs:
            return self._empty_windows()
        return np.stack(outputs)

    def _take_blocks(self, codes: np.ndarray) -> list[np.ndarray]:
        """Buffer ``codes``; return the blocks they complete, in order.

        The samples left over after the last complete block stay
        pending for the next feed.
        """
        arr = np.asarray(codes)
        if arr.ndim != 2 or arr.shape[1] != self.spatial.n_electrodes:
            raise ValueError(
                f"expected (n_samples, {self.spatial.n_electrodes}), "
                f"got {arr.shape}"
            )
        if self._pending.size:
            arr = np.concatenate([self._pending, arr], axis=0)
        step = self.spec.step_samples
        n_blocks = arr.shape[0] // step
        self._pending = arr[n_blocks * step :].copy()
        return [arr[i * step : (i + 1) * step] for i in range(n_blocks)]

    def _feed_work(self, n_blocks: int) -> int:
        """Gathered bytes of encoding ``n_blocks`` blocks (fork estimate)."""
        return (
            n_blocks * self.spec.step_samples * self.spatial.n_electrodes
            * packed_words(self.dim) * 8
        )

    def _block_states(self, blocks: list[np.ndarray]) -> Iterable[np.ndarray]:
        """``_block_state`` of every block, in order, forking if it pays."""
        if not self.fork_blocks:
            return map(self._block_state, blocks)
        work = self._feed_work(len(blocks))
        return fork_map(self._block_state, blocks, work)

    def batch_key(self) -> Hashable | None:
        """Which encoders may feed one tick as one batch (hook).

        Encoders whose keys are equal and not None are fed together by
        their class's ``feed_batch(encoders, codes, stacks)`` (see
        :func:`feed_many`), which a class returning a key must provide;
        None, the default, feeds this encoder on its own through
        :meth:`feed`.
        """
        return None

    def encode_all(self, codes: np.ndarray) -> np.ndarray:
        """Encode a complete code stream into all its H vectors.

        Equivalent to ``reset()`` followed by one big ``feed``; trailing
        samples that do not fill a block are discarded.
        """
        self.reset()
        return self.feed(codes)

    # ------------------------------------------------------------------
    # Checkpointing (live-stream session state)
    # ------------------------------------------------------------------

    def _state_blocks(self) -> list[np.ndarray]:
        """Per-block state as canonical ``(d,)`` integer count vectors.

        Every backend exports the same form — the per-component sums of
        the spatial records accumulated in each live block — so a
        checkpoint written by one compute engine restores onto any
        other.
        """
        raise NotImplementedError

    def _restore_blocks(self, blocks: list[np.ndarray]) -> None:
        """Rebuild the backend state from canonical count vectors."""
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Snapshot of the streaming state: pending codes + block state.

        The snapshot is plain numpy data (checkpointable to ``.npz``)
        in an engine-independent form; :meth:`restore_state` on *any*
        registered engine's encoder resumes the stream bit-exactly.
        """
        return {
            "pending": self._pending.copy(),
            "blocks": [block.copy() for block in self._state_blocks()],
        }

    def restore_state(self, state: dict) -> "WindowBundler":
        """Resume from a :meth:`state_dict` snapshot.

        Accepts the canonical count-vector block form from any engine,
        plus the legacy form written by packed encoders before the
        engine registry (bit-sliced digit planes), which is decoded on
        the way in.
        """
        from repro.hdc.bitsliced import planes_to_counts

        pending = np.asarray(state["pending"], dtype=np.int64)
        if pending.ndim != 2 or pending.shape[1] != self.spatial.n_electrodes:
            raise ValueError(
                f"pending codes must be (n, {self.spatial.n_electrodes}), "
                f"got {pending.shape}"
            )
        blocks = []
        for block in state["blocks"]:
            arr = np.asarray(block)
            if arr.ndim == 2 and arr.dtype == np.uint64:
                arr = planes_to_counts(arr, self.dim)
            elif arr.ndim != 1 or arr.shape[0] != self.dim:
                raise ValueError(
                    f"block state must be ({self.dim},) counts or legacy "
                    f"digit planes, got shape {arr.shape}"
                )
            blocks.append(arr.astype(np.int64, copy=False))
        if len(blocks) > self.blocks_per_window:
            raise ValueError(
                f"{len(blocks)} blocks exceed the window's "
                f"{self.blocks_per_window}"
            )
        self._pending = pending.copy()
        self._reset_blocks()
        self._restore_blocks(blocks)
        return self


class TemporalEncoder(WindowBundler):
    """Streaming window bundler over spatial records.

    Args:
        spatial: The spatial encoder producing per-sample records.
        spec: Window geometry in samples (window a multiple of the step).
    """

    spatial: SpatialEncoder

    def _reset_blocks(self) -> None:
        self._block_sums: deque[np.ndarray] = deque(
            maxlen=self.blocks_per_window
        )

    def _block_state(self, block_codes: np.ndarray) -> np.ndarray:
        return self.spatial.encode(block_codes).sum(axis=0, dtype=np.int32)

    def _absorb_block(self, state: np.ndarray) -> np.ndarray | None:
        self._block_sums.append(state)
        if len(self._block_sums) < self.blocks_per_window:
            return None
        window_counts = np.sum(self._block_sums, axis=0)
        return majority_from_counts(window_counts, self.spec.window_samples)

    def _empty_windows(self) -> np.ndarray:
        return np.zeros((0, self.dim), dtype=np.uint8)

    def _state_blocks(self) -> list[np.ndarray]:
        return [block.astype(np.int64) for block in self._block_sums]

    def _restore_blocks(self, blocks: list[np.ndarray]) -> None:
        for block in blocks:
            self._block_sums.append(np.asarray(block, dtype=np.int32).copy())


def feed_many(
    encoders: Sequence[WindowBundler],
    codes: Sequence[np.ndarray],
    stacks: dict | None = None,
) -> list[np.ndarray]:
    """Feed ``codes[s]`` to ``encoders[s]``; batch what can be batched.

    Encoders sharing a :meth:`WindowBundler.batch_key` go through one
    ``feed_batch`` call of their class (see
    :meth:`repro.hdc.temporal_packed.PackedTemporalEncoder.feed_batch`);
    the rest are fed one by one.  Every encoder ends exactly as its own
    ``feed`` would leave it, and returns the same H vectors.

    Args:
        encoders: Distinct streaming encoders.
        codes: One code chunk per encoder.
        stacks: Cache the caller keeps across calls for the batch
            hooks (a fleet keeps one; None builds what a call needs).
    """
    out: list = [None] * len(encoders)
    groups: dict = {}
    for s, encoder in enumerate(encoders):
        key = encoder.batch_key()
        if key is None:
            out[s] = encoder.feed(codes[s])
        else:
            groups.setdefault(key, []).append(s)
    for members in groups.values():
        group = [encoders[s] for s in members]
        group_codes = [codes[s] for s in members]
        fed = type(group[0]).feed_batch(group, group_codes, stacks)
        for s, h in zip(members, fed):
            out[s] = h
    return out


def encode_recording(
    codes: np.ndarray, spatial: SpatialEncoder, spec: WindowSpec
) -> np.ndarray:
    """One-shot encoding of a multichannel code stream into H vectors.

    Args:
        codes: Integer array ``(n_samples, n_electrodes)``.
        spatial: Configured spatial encoder.
        spec: Window geometry (window a multiple of step).

    Returns:
        uint8 array ``(n_windows, d)``; window ``i`` covers code samples
        ``[i * step, i * step + window)``.
    """
    return TemporalEncoder(spatial, spec).encode_all(codes)
