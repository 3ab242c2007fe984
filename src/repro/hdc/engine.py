"""Pluggable compute engines: one dispatch point for every backend.

Every layer above :mod:`repro.hdc` used to re-implement the
packed-vs-unpacked fork by hand — the detector branched in its
constructor, trainer and classifier, and the session manager, the
persistence formats, the shard workers and the CLI each carried their
own copy of the switch.  This module collapses all of that into one
object: a :class:`ComputeEngine` owns the spatial and temporal encoders
of its representation, feeds and queries the associative memory, packs
queries for the cross-session grouped sweep, and tags checkpoint
payloads — so callers hold an engine and never ask which domain an H
vector lives in.

Registered engines (:func:`engine_names`), one per representation:

* ``unpacked`` — uint8 0/1 component arrays, the reference
  integer-counter path and the bit-exact oracle;
* ``packed`` — uint64 words end to end (the word layout of the paper's
  GPU kernels, Sec. V-B).  Recordings are swept block by block with
  windows classified as soon as they complete (the full
  ``(n_windows, words)`` H array is never materialised), and
  single-window streaming queries run through a preallocated
  XOR/popcount scratch.  Its hot kernels are picked once, at
  construction, by availability (:func:`use_native_kernels`): the
  multithreaded nogil numba kernels of :mod:`repro.hdc.native` when
  numba imports, the numpy ones otherwise;
* ``auto`` — resolves to ``packed`` on every host.

The retired names ``packed-fused`` and ``packed-native`` resolve to
``packed`` (:func:`resolve_engine_name`), so configs, model archives,
session checkpoints and fleet manifests that carry them still load.

Both engines, on either kernel set, are bit-exact against each other;
the cross-engine property suite
(``tests/property/test_engine_equivalence.py``) enforces this over odd
dimensions, ragged chunking, mixed-engine session fleets and mid-stream
checkpoint/restore across engine names.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.hdc import native
from repro.hdc.associative import (
    AssociativeMemory,
    PackedPrototypeAccumulator,
    PrototypeAccumulator,
    grouped_classify_packed,
)
from repro.hdc.backend import pack_bits, packed_words, popcount_words
from repro.hdc.item_memory import ItemMemory
from repro.hdc.spatial import SpatialEncoder
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal import TemporalEncoder, WindowBundler
from repro.hdc.temporal_packed import PackedTemporalEncoder
from repro.signal.windows import WindowSpec

#: Registry name of the auto-selecting pseudo-engine.
AUTO_ENGINE = "auto"

#: Registered engine names.  Layers above ``repro.hdc`` must import
#: these (or iterate the registry) instead of spelling the literals —
#: enforced by ``repro lint`` rule RPR003.
UNPACKED_ENGINE = "unpacked"
PACKED_ENGINE = "packed"

#: Backend names that resolve to another engine: ``auto``, and the
#: retired engines merged into ``packed`` (still read so that old
#: configs, model archives, session checkpoints and fleet manifests
#: load).  The retired names are not offered as choices.
_ALIASES = {
    AUTO_ENGINE: PACKED_ENGINE,
    "packed-fused": PACKED_ENGINE,
    "packed-native": PACKED_ENGINE,
}

#: Windows completed per flush of the fused block sweep; bounds the
#: live H scratch at ``(chunk, words)`` regardless of recording length.
_FUSED_WINDOW_CHUNK = 512


@runtime_checkable
class ComputeEngine(Protocol):
    """What every registered engine provides to the layers above.

    An engine instance is bound to one detector's item memories and
    window geometry.  It owns:

    * the spatial encoder (:attr:`spatial`) and fresh streaming
      temporal encoders (:meth:`temporal_encoder`, whose
      ``state_dict``/``restore_state`` are the streaming-state
      export/import hooks used by checkpoints);
    * associative-memory training (:meth:`train`, :meth:`accumulator`,
      :meth:`store`) and querying (:meth:`classify_windows`,
      :meth:`encode_classify`);
    * the packed-query bridge for the cross-session grouped sweep
      (:meth:`pack_queries`);
    * its checkpoint payload tag (:attr:`name` — persisted so a saved
      model reopens on the engine that wrote it).
    """

    name: str
    dim: int
    words: int
    spatial: object

    def temporal_encoder(self) -> WindowBundler:
        """A fresh streaming window encoder in this engine's domain."""
        ...

    def windows_2d(self, h: np.ndarray) -> np.ndarray:
        """Validate H vectors (either accepted form) into a 2-D batch."""
        ...

    def accumulator(self):
        """A fresh prototype accumulator for this engine's H form."""
        ...

    def store(self, memory: AssociativeMemory, label: int,
              prototype: np.ndarray) -> None:
        """Store a finalized prototype in the engine's native form."""
        ...

    def train(self, memory: AssociativeMemory, label: int,
              h_vectors: np.ndarray) -> None:
        """Bundle an H batch (either form) into ``label``'s prototype."""
        ...

    def classify_windows(
        self, memory: AssociativeMemory, h: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched nearest-prototype sweep over H vectors (either form)."""
        ...

    def encode_classify(
        self, memory: AssociativeMemory, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode a code stream and classify every completed window."""
        ...

    def pack_queries(self, h: np.ndarray) -> np.ndarray:
        """H vectors as packed uint64 queries for the grouped sweep."""
        ...


class _EngineBase:
    """Shared scaffolding: dual-form validation and AM dispatch.

    The *only* place in the codebase that distinguishes window forms by
    trailing width/dtype — every engine accepts both the unpacked
    ``(n, d)`` uint8 and the packed ``(n, words)`` uint64 form (so
    detectors can cross-feed windows encoded on any engine), and the
    probe lives here rather than in any caller.
    """

    #: Registry key; subclasses override.
    name = "base"
    #: Whether H vectors natively live in packed uint64 words.
    native_packed = False
    #: Human-readable native window form, for the capability listing.
    window_form = "?"
    #: One-line capability summary, for the capability listing.
    summary = ""

    def __init__(
        self,
        code_memory: ItemMemory,
        electrode_memory: ItemMemory,
        spec: WindowSpec,
    ) -> None:
        if code_memory.dim != electrode_memory.dim:
            raise ValueError(
                "item memories must share a dimension, got "
                f"{code_memory.dim} and {electrode_memory.dim}"
            )
        self.dim = code_memory.dim
        self.words = packed_words(self.dim)
        self.spec = spec
        self.spatial = self._build_spatial(code_memory, electrode_memory)

    # -- representation hooks (subclasses override) --------------------

    def _build_spatial(self, code_memory, electrode_memory):
        raise NotImplementedError

    def temporal_encoder(self) -> WindowBundler:
        raise NotImplementedError

    def accumulator(self):
        raise NotImplementedError

    def store(self, memory: AssociativeMemory, label: int,
              prototype: np.ndarray) -> None:
        raise NotImplementedError

    # -- dual-form window handling -------------------------------------

    def windows_2d(self, h: np.ndarray) -> np.ndarray:
        """Validate H vectors in either form, returning a 2-D array.

        Dispatch is by trailing width: ``d`` columns means unpacked,
        ``packed_words(d)`` columns means packed (the two can never
        coincide for ``d >= 2``).
        """
        arr = np.atleast_2d(np.asarray(h))
        if arr.ndim != 2 or arr.shape[1] not in (self.dim, self.words):
            raise ValueError(
                f"H vectors must have {self.dim} (unpacked) or "
                f"{self.words} (packed) columns, got shape {arr.shape}"
            )
        if arr.shape[1] == self.dim:
            return arr.astype(np.uint8, copy=False)
        return arr.astype(np.uint64, copy=False)

    @staticmethod
    def _is_packed(arr: np.ndarray) -> bool:
        return arr.dtype == np.uint64

    def pack_queries(self, h: np.ndarray) -> np.ndarray:
        """Validated H vectors as ``(n, words)`` uint64 grouped queries."""
        arr = self.windows_2d(h)
        return arr if self._is_packed(arr) else pack_bits(arr)

    # -- associative-memory dispatch -----------------------------------

    def train(self, memory: AssociativeMemory, label: int,
              h_vectors: np.ndarray) -> None:
        arr = self.windows_2d(h_vectors)
        if self._is_packed(arr):
            memory.train_packed(label, arr)
        else:
            memory.train(label, arr)

    def classify_windows(
        self, memory: AssociativeMemory, h: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        arr = self.windows_2d(h)
        if self._is_packed(arr):
            return memory.classify_packed(arr)
        return memory.classify(arr)

    def encode_classify(
        self, memory: AssociativeMemory, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reference sweep: encode everything, then one batched query."""
        h = self.temporal_encoder().encode_all(codes)
        return self.classify_windows(memory, h)

    #: Cross-session grouped-sweep implementation used when every
    #: session of a tick shares this engine; an engine on the numba
    #: kernels replaces it with the native twin (same signature,
    #: bit-exact).
    grouped_kernel = staticmethod(grouped_classify_packed)

    # -- capability listing --------------------------------------------

    @classmethod
    def describe(cls, dim: int = 10_000) -> dict:
        """Capability/word-layout row for the ``repro backends`` CLI."""
        return {
            "name": cls.name,
            "window_form": cls.window_form,
            "width_at_dim": packed_words(dim) if cls.native_packed else dim,
            "summary": cls.summary,
        }


_REGISTRY: dict[str, type[_EngineBase]] = {}


def register_engine(cls: type[_EngineBase]) -> type[_EngineBase]:
    """Class decorator adding an engine to the named registry."""
    _REGISTRY[cls.name] = cls
    return cls


@register_engine
class UnpackedEngine(_EngineBase):
    """Reference integer-counter engine over uint8 component arrays."""

    name = UNPACKED_ENGINE
    window_form = "uint8 (n, d)"
    summary = "reference integer-counter path; one byte per component"

    def _build_spatial(self, code_memory, electrode_memory):
        return SpatialEncoder(code_memory, electrode_memory)

    def temporal_encoder(self) -> TemporalEncoder:
        return TemporalEncoder(self.spatial, self.spec)

    def accumulator(self) -> PrototypeAccumulator:
        return PrototypeAccumulator(self.dim)

    def store(self, memory: AssociativeMemory, label: int,
              prototype: np.ndarray) -> None:
        memory.store(label, prototype)


def use_native_kernels() -> bool:
    """Whether a ``packed`` engine built now runs the numba kernels.

    The single kernel-selection point: true exactly when numba imports.
    Tests patch it to run the pure-Python twins of the numba kernels on
    numba-free hosts (or the numpy kernels on numba hosts).
    """
    return native.numba_available()


@register_engine
class PackedEngine(_EngineBase):
    """Word-domain engine: uint64 H vectors end to end (Sec. V-B).

    Two fusions keep the hot paths lean:

    * **block sweep** (:meth:`encode_classify`) — the code stream is fed
      to the temporal encoder in slices sized to complete at most
      ``_FUSED_WINDOW_CHUNK`` windows, and each slice's H vectors are
      queried against the prototypes immediately and dropped, so the
      intermediate ``(n_windows, words)`` H array is never materialised
      (peak scratch is ``(chunk, words)``);
    * **single-window streaming query** (:meth:`classify_windows` with
      one native window, the per-tick shape of a live stream) — XOR into
      a preallocated scratch against the memory's prototype block, one
      popcount, one reduction; none of the layered re-validation,
      re-packing or label-table rebuilds of the general path.

    The kernels are attributes picked once at construction by
    :func:`use_native_kernels`.  On the numba kernels
    (:mod:`repro.hdc.native`) the spatial majority, the per-block
    bundling tree, the prototype sweep and the grouped cross-session
    sweep run as nogil prange loops; otherwise they run in numpy.  The
    class, and every result bit, is the same either way.
    """

    name = PACKED_ENGINE
    native_packed = True
    window_form = "uint64 (n, ceil(d/64))"
    summary = (
        "bit-parallel carry-save encoding, fused encode-classify block "
        "sweep, preallocated single-window XOR+popcount query"
    )

    def __init__(self, code_memory, electrode_memory, spec) -> None:
        #: Whether the numba kernels of :mod:`repro.hdc.native` run the
        #: hot loops (else the numpy ones).
        self.native = use_native_kernels()
        super().__init__(code_memory, electrode_memory, spec)
        self._xor_scratch: np.ndarray | None = None
        #: Effective native kernel thread count (REPRO_NATIVE_THREADS,
        #: clamped); 1 on the numpy kernels.
        self.threads = 1
        if self.native:
            self.grouped_kernel = native.grouped_classify_packed_native
            self.threads = native.apply_native_threads()

    def _build_spatial(self, code_memory, electrode_memory):
        if self.native:
            return native.NativeSpatialEncoder(code_memory, electrode_memory)
        return PackedSpatialEncoder(code_memory, electrode_memory)

    def temporal_encoder(self) -> PackedTemporalEncoder:
        if self.native:
            return native.NativeTemporalEncoder(self.spatial, self.spec)
        return PackedTemporalEncoder(self.spatial, self.spec)

    def accumulator(self) -> PackedPrototypeAccumulator:
        return PackedPrototypeAccumulator(self.dim)

    def store(self, memory: AssociativeMemory, label: int,
              prototype: np.ndarray) -> None:
        memory.store_packed(label, prototype)

    def classify_windows(
        self, memory: AssociativeMemory, h: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # The live-stream hot path gets one cheap shape probe instead of
        # the general dual-form validation: at ~4 us per tick, the
        # layered checks of windows_2d() are a measurable share.
        arr = np.asarray(h)
        if (
            arr.dtype == np.uint64
            and arr.ndim == 2
            and arr.shape[1] == self.words
        ):
            return self._fused_query(memory, arr)
        arr = self.windows_2d(arr)
        if not self._is_packed(arr):
            return memory.classify(arr)
        return self._fused_query(memory, arr)

    def _fused_query(
        self, memory: AssociativeMemory, arr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """XOR + popcount against the prototype block, minimal overhead."""
        block, label_table = memory.packed_block()
        if self.native:  # one kernel call for any batch size
            best, dists = native.sweep_classify_packed(arr, block)
            return label_table[best], dists
        if arr.shape[0] == 1:
            scratch = self._xor_scratch
            if scratch is None or scratch.shape != block.shape:
                scratch = self._xor_scratch = np.empty_like(block)
            np.bitwise_xor(block, arr[0], out=scratch)
            dists = popcount_words(scratch).sum(axis=-1, dtype=np.int64)
            # label_table is replaced wholesale by store(), never
            # mutated, so handing out a slice view is safe (see
            # AssociativeMemory.packed_block) and saves an allocation.
            idx = dists.argmin()
            return label_table[idx : idx + 1], dists[None, :]
        # Multi-window batches gain nothing from the scratch: reuse the
        # memory's batched sweep so distance/tie-break semantics have a
        # single implementation.
        return memory.classify_packed(arr)

    def encode_classify(
        self, memory: AssociativeMemory, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused block sweep: classify windows as their blocks complete."""
        encoder = self.temporal_encoder()
        slice_samples = _FUSED_WINDOW_CHUNK * self.spec.step_samples
        labels_parts: list[np.ndarray] = []
        dists_parts: list[np.ndarray] = []
        arr = np.asarray(codes)
        for start in range(0, max(arr.shape[0], 1), slice_samples):
            h = encoder.feed(arr[start : start + slice_samples])
            if h.shape[0]:
                labels, dists = self._fused_query(memory, h)
                labels_parts.append(labels)
                dists_parts.append(dists)
        if not labels_parts:
            n_classes = memory.n_classes
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros((0, n_classes), dtype=np.int64),
            )
        return (
            np.concatenate(labels_parts),
            np.concatenate(dists_parts, axis=0),
        )


#: Pre-merge name of :class:`PackedEngine`, kept because the repository
#: benchmark's tracer (``perfbench/layers.py``) imports it to wrap
#: ``classify_windows`` and ``_fused_query``.
PackedFusedEngine = PackedEngine


def engine_names() -> tuple[str, ...]:
    """Registered engine names, registration-ordered (without ``auto``)."""
    return tuple(_REGISTRY)


def backend_choices() -> tuple[str, ...]:
    """Every valid ``LaelapsConfig.backend`` value, including ``auto``."""
    return engine_names() + (AUTO_ENGINE,)


def resolve_engine_name(name: str) -> str:
    """Resolve a backend string to a concrete registered engine name.

    ``auto`` and the retired names ``packed-fused`` and
    ``packed-native`` resolve to ``packed``; anything else must be a
    registered name.  This is the only place the retired names are
    read.

    Raises:
        ValueError: For unknown names, listing the valid choices.
    """
    name = _ALIASES.get(name, name)
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown compute engine {name!r}; valid choices are "
            f"{backend_choices()}"
        )
    return name


def build_engine(
    name: str,
    code_memory: ItemMemory,
    electrode_memory: ItemMemory,
    spec: WindowSpec,
) -> _EngineBase:
    """Construct the named engine bound to one detector's memories.

    Args:
        name: A registered engine name or ``"auto"``.
        code_memory: IM1 — LBP-code atomic vectors.
        electrode_memory: IM2 — electrode-name atomic vectors.
        spec: Window geometry in samples.

    Raises:
        ValueError: For unknown names, listing the valid choices.
    """
    return _REGISTRY[resolve_engine_name(name)](
        code_memory, electrode_memory, spec
    )


def engine_capabilities(dim: int = 10_000) -> list[dict]:
    """Capability/word-layout rows for every registered engine.

    The data behind the ``repro backends`` CLI listing: one dict per
    engine (name, native window form, trailing width at ``dim``,
    summary).  The ``auto`` pseudo-engine is not listed — ask
    :func:`resolve_engine_name` what it resolves to.
    """
    return [cls.describe(dim) for cls in _REGISTRY.values()]
