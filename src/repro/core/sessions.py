"""Multi-patient stream serving: many concurrent sessions, one sweep.

The serving-scale layer above :class:`~repro.core.streaming.StreamingLaelaps`:
a :class:`StreamSessionManager` multiplexes many live patient streams,
each with its own fitted detector, ring-buffered raw tail and alarm
state machine.  Per tick, raw chunks for any subset of sessions go in
through :meth:`StreamSessionManager.push_many`; the per-session
encoders advance independently, but the resulting H vectors of *all*
sessions are classified by one cross-session batched XOR + popcount
sweep (:func:`repro.hdc.associative.grouped_classify_packed`) instead
of one small query per stream.  Events coming back are bit-identical
to driving each stream alone — the batching is a pure transport
optimisation.

Sessions may serve different patients (different electrode counts,
prototypes and t_r) and may mix compute engines freely — each
session's H vectors enter the sweep through its own engine's
``pack_queries`` bridge; only the hypervector dimension must be
shared, so the query block lines up word for word.

Live state (every session's symboliser tail, encoder buffers, alarm
machine and counters, plus each model) checkpoints to one ``.npz``
through :func:`repro.core.persistence.save_sessions` and resumes
bit-exactly with :func:`repro.core.persistence.load_sessions`.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.detector import LaelapsDetector
from repro.core.postprocess import delta_scores
from repro.core.streaming import StreamEvent, StreamingLaelaps
from repro.hdc.associative import grouped_classify_packed


def validate_chunk(
    session_id: str, chunk, n_electrodes: int
) -> np.ndarray:
    """Coerce one session's raw chunk to float64 and check its shape.

    The single chunk-shape contract of the serving layers — the manager
    and the sharded gateway both validate through here, so they can
    never drift into accepting different inputs.

    Args:
        session_id: Session key, for the error message.
        chunk: Raw samples, must be ``(n, n_electrodes)``.
        n_electrodes: The session's electrode count.

    Returns:
        float64 array ``(n, n_electrodes)``.
    """
    arr = np.asarray(chunk, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != n_electrodes:
        raise ValueError(
            f"session {session_id!r} expects (n, {n_electrodes}) "
            f"chunks, got {arr.shape}"
        )
    return arr


def lockstep_ticks(signals: Mapping[str, np.ndarray], chunk_samples: int):
    """Yield per-tick chunk dicts walking many recordings in lockstep.

    Tick ``t`` delivers samples ``[t * chunk_samples, (t + 1) *
    chunk_samples)`` of every signal that still has data (exhausted
    signals drop out of later ticks).  Shared by
    :meth:`StreamSessionManager.run` and
    :meth:`repro.serve.ShardedStreamGateway.run` so the two layers
    cannot diverge in tick semantics.
    """
    arrays = {
        session_id: np.asarray(signal)
        for session_id, signal in signals.items()
    }
    longest = max((a.shape[0] for a in arrays.values()), default=0)
    for start in range(0, longest, chunk_samples):
        yield {
            session_id: arr[start : start + chunk_samples]
            for session_id, arr in arrays.items()
            if arr.shape[0] > start
        }


class StreamSessionManager:
    """Registry and batched driver of concurrent patient streams.

    Sessions are opened against fitted detectors and pushed either one
    at a time (:meth:`push`) or as a batch (:meth:`push_many`); both
    return per-session :class:`~repro.core.streaming.StreamEvent` lists
    with the same warm-up/alarm semantics as the batch pipeline.
    """

    def __init__(self) -> None:
        self._sessions: dict[str, StreamingLaelaps] = {}
        self._dim: int | None = None

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    @property
    def session_ids(self) -> list[str]:
        """Open session ids in insertion order."""
        return list(self._sessions)

    @property
    def dim(self) -> int | None:
        """Shared hypervector dimension (None while no session is open)."""
        return self._dim

    def session(self, session_id: str) -> StreamingLaelaps:
        """The live stream engine of a session."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"no open session {session_id!r}") from None

    def open(
        self, session_id: str, detector: LaelapsDetector
    ) -> StreamingLaelaps:
        """Open a new stream session for a fitted detector.

        Args:
            session_id: Unique session key (e.g. a patient/device id).
            detector: A fitted detector; its hypervector dimension must
                match every other open session (the cross-session sweep
                shares one packed word layout), electrode counts and
                backends may differ freely.
        """
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} is already open")
        if self._dim is not None and detector.config.dim != self._dim:
            raise ValueError(
                f"session dimension {detector.config.dim} does not match "
                f"the manager's shared dimension {self._dim}"
            )
        stream = StreamingLaelaps(detector)
        self._sessions[session_id] = stream
        self._dim = detector.config.dim
        return stream

    def close(self, session_id: str) -> None:
        """Drop a session and its live state."""
        self.session(session_id)
        del self._sessions[session_id]
        if not self._sessions:
            self._dim = None

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    def push(self, session_id: str, chunk: np.ndarray) -> list[StreamEvent]:
        """Push one chunk into one session (see :meth:`push_many`)."""
        return self.push_many({session_id: chunk})[session_id]

    def push_many(
        self, chunks: Mapping[str, np.ndarray]
    ) -> dict[str, list[StreamEvent]]:
        """Advance many sessions at once, classifying in one sweep.

        Each session's encoder consumes its chunk independently (code
        continuation and window bundling are inherently per-stream);
        the completed H vectors of every session are then packed into a
        single query block and classified against a stack of all
        involved prototypes by one vectorized XOR + popcount sweep.
        Results are bit-identical to pushing each session alone.

        Args:
            chunks: Mapping of session id to raw chunk
                ``(n_samples, n_electrodes_of_that_session)``; chunk
                sizes may differ per session.

        Returns:
            Per-session lists of completed-window events (empty where a
            chunk finished no window).
        """
        # Validate every session id and chunk shape before touching any
        # stream state: a bad entry must not leave earlier sessions with
        # half-consumed ticks (their windows would vanish unclassified).
        order = list(chunks)
        arrays: dict[str, np.ndarray] = {}
        for session_id in order:
            stream = self.session(session_id)
            arrays[session_id] = validate_chunk(
                session_id, chunks[session_id], stream.detector.n_electrodes
            )
        h_blocks: list[tuple[str, np.ndarray]] = []
        events: dict[str, list[StreamEvent]] = {}
        for session_id in order:
            stream = self._sessions[session_id]
            h_vectors = stream.encode_chunk(arrays[session_id])
            events[session_id] = []
            if h_vectors.shape[0]:
                h_blocks.append((session_id, h_vectors))
        if not h_blocks:
            return events
        queries = []
        owners = []
        protos = []
        labels_table = []
        kernels = set()
        for owner, (session_id, h_vectors) in enumerate(h_blocks):
            stream = self._sessions[session_id]
            packed = stream.detector.engine.pack_queries(h_vectors)
            queries.append(packed)
            owners.append(np.full(packed.shape[0], owner, dtype=np.intp))
            block, block_labels = stream.detector.memory.packed_block()
            protos.append(block)
            labels_table.append(block_labels)
            kernels.add(stream.detector.engine.grouped_kernel)
        # When every involved session runs the same grouped kernel, it
        # carries the tick (the nogil numba sweep of packed engines on
        # numba hosts, typically); mixed fleets fall back to the numpy
        # sweep — all implementations are bit-exact, so this only picks
        # a speed, never a result.
        sweep = kernels.pop() if len(kernels) == 1 else grouped_classify_packed
        labels, distances = sweep(
            np.concatenate(queries, axis=0),
            np.stack(protos),
            np.concatenate(owners),
            np.stack(labels_table),
        )
        deltas = delta_scores(distances)
        offset = 0
        for session_id, h_vectors in h_blocks:
            n = h_vectors.shape[0]
            events[session_id] = self._sessions[session_id].emit_events(
                labels[offset : offset + n], deltas[offset : offset + n]
            )
            offset += n
        return events

    def run(
        self,
        signals: Mapping[str, np.ndarray],
        chunk_samples: int,
    ) -> dict[str, list[StreamEvent]]:
        """Stream whole recordings through many sessions in lockstep.

        Convenience mirror of :meth:`StreamingLaelaps.run`: every tick
        delivers the next ``chunk_samples`` of each signal (sessions
        whose signal is exhausted simply stop receiving), so all
        classification traffic flows through the batched sweep.
        """
        for session_id in signals:
            self.session(session_id)
        events: dict[str, list[StreamEvent]] = {
            session_id: [] for session_id in signals
        }
        for tick in lockstep_ticks(signals, chunk_samples):
            for session_id, new_events in self.push_many(tick).items():
                events[session_id].extend(new_events)
        return events

    # ------------------------------------------------------------------
    # Checkpointing and shard migration
    # ------------------------------------------------------------------

    def export_session(self, session_id: str) -> dict:
        """One session as a portable payload (model + live stream state).

        The shard-migration unit of the serving layer: the returned dict
        is picklable (plain dicts and numpy arrays), contains the full
        model (:func:`repro.core.persistence.detector_payload`) and the
        complete mid-stream state (:meth:`StreamingLaelaps.state_dict`),
        and round-trips bit-exactly through :meth:`import_session` on
        any other manager — in another process or on another host.  The
        session stays open; use :meth:`pop_session` to move it out.
        """
        from repro.core.persistence import detector_payload

        stream = self.session(session_id)
        return {
            "model": detector_payload(stream.detector),
            "state": stream.state_dict(),
        }

    def import_session(self, session_id: str, payload: dict) -> StreamingLaelaps:
        """Open a session from an :meth:`export_session` payload.

        Rebuilds the detector from the payload's model description and
        resumes the stream mid-flight; subsequent events are
        bit-identical to the exporting manager's.
        """
        from repro.core.persistence import detector_from_payload

        stream = self.open(session_id, detector_from_payload(payload["model"]))
        stream.restore_state(payload["state"])
        return stream

    def pop_session(self, session_id: str) -> dict:
        """Close a session and return its :meth:`export_session` payload."""
        payload = self.export_session(session_id)
        self.close(session_id)
        return payload

    def state_dict(self) -> dict:
        """Per-session live stream state (models excluded).

        See :func:`repro.core.persistence.save_sessions` for the
        model-inclusive checkpoint.
        """
        return {
            session_id: stream.state_dict()
            for session_id, stream in self._sessions.items()
        }
