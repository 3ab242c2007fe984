"""Bit-sliced counting over packed hypervectors.

The GPU encoding kernel (Fig. 2) never unpacks vectors: it XORs packed
words, transposes 32 x 32 bit tiles and popcounts, so the majority of
32 electrodes costs a handful of word operations.  This module is the
software analogue: a **carry-save bit-sliced counter** holds one packed
register per binary digit, so adding a d-bit mask costs
``O(log2(capacity))`` word operations on all d positions at once, and
thresholding (the majority test) is a bitwise magnitude comparator —
no unpacking anywhere.

Used by :class:`repro.hdc.spatial_packed.PackedSpatialEncoder`, which
runs the compressor tree in place on its own cache-sized gather tile
(:func:`_counts_in_place`).  That path is word-exact against the plain
integer-counter encoder of :mod:`repro.hdc.spatial`, faster than it at
every shape measured (3-9x from 16 to 1024 electrodes at d = 1 000-
10 000 on a 2-vCPU x86 host), and mirrors the embedded
implementation's data layout.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.hdc.backend import pack_bits, packed_words, unpack_bits

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def plane_depth(k: int) -> int:
    """Digit planes needed to count up to ``k`` ones per position.

    The depth contract shared by :func:`bitsliced_counts` and its
    native kernel twin (:func:`repro.hdc.native.native_bitsliced_counts`):
    ``bit_length(k)`` digits hold every count in ``[0, k]``.  Plane
    consumers (:func:`planes_add`, :func:`planes_greater_than`,
    :func:`planes_to_counts`) depend only on the decoded counts, so the
    two implementations stay interchangeable downstream.
    """
    if k < 1:
        raise ValueError(f"mask count must be >= 1, got {k}")
    return max(1, int(k).bit_length())


def _carry_save_add(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One 3:2 compressor: three same-weight planes -> (sum, carry)."""
    partial = a ^ b
    return partial ^ c, (a & b) | (c & partial)


def _reduce_plane(buf: np.ndarray, hi: int) -> tuple[np.ndarray, int]:
    """Compress the same-weight rows ``buf[:hi]`` in place.

    A Wallace-tree pass splits the level into three contiguous slabs
    ``a, b, c`` and runs every 3:2 compressor of the pass as five
    in-place ufunc calls over whole slabs: the sums land in ``c``, next
    to the rows left over, so the following pass needs no concatenate.
    Carries are written to ``buf[0:n_carries]``, which the consumed
    ``a``/``b`` slabs keep free, so the next weight's level is again
    one contiguous slab at the front of ``buf``.

    Returns:
        ``(plane, n_carries)``: this weight's digit (a row view into
        ``buf``, outside the carry rows) and the number of carries of
        the next weight, now in ``buf[:n_carries]``.
    """
    lo = n_carries = 0
    while hi - lo > 2:
        groups = (hi - lo) // 3
        a = buf[lo : lo + groups]
        b = buf[lo + groups : lo + 2 * groups]
        c = buf[lo + 2 * groups : lo + 3 * groups]
        # sum = a ^ b ^ c, carry = majority(a, b, c) = ((a^b) | (a^c)) ^ sum
        b ^= a
        a ^= c
        c ^= b
        a |= b
        np.bitwise_xor(a, c, out=buf[n_carries : n_carries + groups])
        n_carries += groups
        lo += 2 * groups
    if hi - lo == 2:
        a, b = buf[lo : lo + 1], buf[lo + 1 : lo + 2]
        # plane = a ^ b (kept in b), carry = a & b = (a | plane) ^ plane
        b ^= a
        a |= b
        np.bitwise_xor(a, b, out=buf[n_carries : n_carries + 1])
        return buf[lo + 1], n_carries + 1
    return buf[lo], n_carries


def _counts_in_place(buf: np.ndarray) -> list[np.ndarray]:
    """Digit planes of the per-position 1-counts of ``buf``'s rows.

    The destructive core of :func:`bitsliced_counts`: runs the whole
    carry-save tree inside ``buf`` (C-contiguous uint64 ``(k, cols)``)
    with no full-width temporaries, overwriting it.

    Returns:
        ``plane_depth(k)`` row views into ``buf``, least significant
        digit first.
    """
    planes: list[np.ndarray] = []
    n_rows = buf.shape[0]
    while n_rows:
        plane, n_rows = _reduce_plane(buf, n_rows)
        planes.append(plane)
    return planes


def bitsliced_counts(masks: np.ndarray) -> np.ndarray:
    """Per-position 1-counts of a stack of packed masks, in digit planes.

    Args:
        masks: uint64 array ``(k, ..., words)`` of packed bit masks; it
            is left unmodified (the tree runs on a private copy).

    Returns:
        uint64 array ``(depth, ..., words)``: plane ``j`` holds digit
        ``j`` of the per-position count, so position ``p`` of the batch
        was set in ``sum_j(plane[j] bit p) << j`` of the ``k`` masks.
        ``depth`` is exactly the number of digits needed for ``k``.
    """
    arr = np.asarray(masks, dtype=np.uint64)
    if arr.ndim < 2:
        raise ValueError(f"expected (k, ..., words) masks, got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("cannot count an empty stack of masks")
    buf = arr.reshape(arr.shape[0], -1).copy()
    planes = _counts_in_place(buf)
    return np.stack(planes).reshape((len(planes),) + arr.shape[1:])


def planes_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Add two bit-sliced counts digit-wise (a packed ripple adder).

    Both inputs are ``(depth, ..., words)`` planes as produced by
    :func:`bitsliced_counts`; the sum is computed one digit deeper than
    the deeper input so the final carry can never be lost, then trailing
    all-zero planes are trimmed — repeated accumulation (the streaming
    prototype trainer) keeps ``O(log n)`` depth instead of growing by
    one per call.
    """
    a_arr = np.asarray(a, dtype=np.uint64)
    b_arr = np.asarray(b, dtype=np.uint64)
    if a_arr.shape[1:] != b_arr.shape[1:]:
        raise ValueError(
            f"plane shapes disagree: {a_arr.shape[1:]} vs {b_arr.shape[1:]}"
        )
    depth = max(a_arr.shape[0], b_arr.shape[0]) + 1
    out = np.zeros((depth,) + a_arr.shape[1:], dtype=np.uint64)
    carry = np.zeros(a_arr.shape[1:], dtype=np.uint64)
    zero = np.zeros(a_arr.shape[1:], dtype=np.uint64)
    for j in range(depth):
        x = a_arr[j] if j < a_arr.shape[0] else zero
        y = b_arr[j] if j < b_arr.shape[0] else zero
        out[j], carry = _carry_save_add(x, y, carry)
    top = depth
    while top > 1 and not out[top - 1].any():
        top -= 1
    return out[:top]


def planes_greater_than(planes: np.ndarray, threshold: int) -> np.ndarray:
    """Packed mask of positions whose bit-sliced count exceeds ``threshold``.

    The bitwise magnitude comparator of
    :meth:`BitslicedCounter.greater_than`, vectorised over any batch
    shape: ``planes`` is ``(depth, ..., words)`` and the result is
    ``(..., words)``.  Padding bits stay zero for ``threshold >= 0``.
    """
    arr = np.asarray(planes, dtype=np.uint64)
    if arr.ndim < 2:
        raise ValueError(f"expected (depth, ..., words) planes, got {arr.shape}")
    return _greater_than(arr, threshold)


def _greater_than(planes: Sequence[np.ndarray], threshold: int) -> np.ndarray:
    """The comparator of :func:`planes_greater_than` over a digit sequence.

    Takes the planes as any least-significant-first sequence of
    same-shape arrays, so the row views of :func:`_counts_in_place` are
    compared without stacking them first.
    """
    batch = planes[0].shape
    if threshold < 0:
        return np.full(batch, _ALL_ONES, dtype=np.uint64)
    if threshold >> len(planes):
        return np.zeros(batch, dtype=np.uint64)
    greater = np.zeros(batch, dtype=np.uint64)
    equal = np.full(batch, _ALL_ONES, dtype=np.uint64)
    for j in range(len(planes) - 1, -1, -1):
        plane = planes[j]
        if (threshold >> j) & 1:
            equal &= plane
        else:
            greater |= equal & plane
            equal &= ~plane
    return greater


def planes_to_counts(planes: np.ndarray, dim: int) -> np.ndarray:
    """Decode digit planes into plain integer counts (test/debug path)."""
    arr = np.asarray(planes, dtype=np.uint64)
    total = np.zeros(arr.shape[1:-1] + (dim,), dtype=np.int64)
    for j in range(arr.shape[0]):
        total += unpack_bits(arr[j], dim).astype(np.int64) << j
    return total


def planes_from_counts(counts: np.ndarray, dim: int) -> np.ndarray:
    """Encode plain integer counts into digit planes.

    Inverse of :func:`planes_to_counts`: the streaming-state import hook
    of the packed temporal encoder, which checkpoints its per-block
    counts in the engine-independent integer form.  Depth is the minimum
    needed for the largest count (downstream plane arithmetic only
    depends on the decoded counts, so depth differences are harmless).

    Args:
        counts: Non-negative integer array ``(..., dim)``.
        dim: Number of counted positions (hypervector components).

    Returns:
        uint64 array ``(depth, ..., packed_words(dim))``.
    """
    arr = np.asarray(counts)
    if arr.ndim < 1 or arr.shape[-1] != dim:
        raise ValueError(f"expected (..., {dim}) counts, got {arr.shape}")
    arr = arr.astype(np.int64)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("counts must be non-negative")
    depth = max(int(arr.max()).bit_length(), 1) if arr.size else 1
    return np.stack(
        [pack_bits(((arr >> j) & 1).astype(np.uint8)) for j in range(depth)]
    )


class BitslicedCounter:
    """Per-component counter over packed bit masks.

    Args:
        dim: Number of counted positions (hypervector components).
        capacity: Maximum number of masks that will be added; sets the
            register depth ``ceil(log2(capacity + 1))``.
    """

    def __init__(self, dim: int, capacity: int) -> None:
        if dim < 1 or capacity < 1:
            raise ValueError("dim and capacity must be >= 1")
        self.dim = dim
        self.capacity = capacity
        self.depth = max(1, int(np.ceil(np.log2(capacity + 1))))
        self._words = packed_words(dim)
        self._registers = np.zeros((self.depth, self._words), dtype=np.uint64)
        self._added = 0

    @property
    def n_added(self) -> int:
        """Number of masks accumulated so far."""
        return self._added

    def add(self, mask: np.ndarray) -> "BitslicedCounter":
        """Add one packed mask (uint64 array of ``packed_words(dim)``).

        Ripple-carry over the bit-sliced registers: digit j absorbs the
        carry with one XOR and regenerates it with one AND.
        """
        if self._added >= self.capacity:
            raise ValueError(f"counter capacity {self.capacity} exhausted")
        carry = np.asarray(mask, dtype=np.uint64)
        if carry.shape != (self._words,):
            raise ValueError(
                f"expected packed mask of {self._words} words, "
                f"got shape {carry.shape}"
            )
        carry = carry.copy()
        for register in self._registers:
            next_carry = register & carry
            register ^= carry
            carry = next_carry
            if not carry.any():
                break
        self._added += 1
        return self

    def counts(self) -> np.ndarray:
        """Per-position counts as plain integers (test/debug path)."""
        total = np.zeros(self.dim, dtype=np.int64)
        for j, register in enumerate(self._registers):
            total += unpack_bits(register, self.dim).astype(np.int64) << j
        return total

    def greater_than(self, threshold: int) -> np.ndarray:
        """Packed mask of positions where the count exceeds ``threshold``.

        A bitwise magnitude comparator from the most significant digit
        down: at each digit, positions still equal so far become
        *greater* when the counter has a 1 where the threshold has a 0.
        """
        if threshold < 0:
            return np.full(
                self._words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64
            )
        ones = np.uint64(0xFFFFFFFFFFFFFFFF)
        greater = np.zeros(self._words, dtype=np.uint64)
        equal = np.full(self._words, ones, dtype=np.uint64)
        for j in range(self.depth - 1, -1, -1):
            register = self._registers[j]
            t_bit = (threshold >> j) & 1
            if t_bit == 0:
                greater |= equal & register
                equal &= ~register
            else:
                equal &= register
        # Thresholds at/above 2**depth can never be exceeded; positions
        # with equality all the way down are not greater.
        if threshold >> self.depth:
            return np.zeros(self._words, dtype=np.uint64)
        return greater

    def reset(self) -> None:
        """Clear the counter for reuse."""
        self._registers[...] = 0
        self._added = 0
