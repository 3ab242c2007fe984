"""Multi-patient stream serving: many concurrent sessions, one sweep.

The serving-scale layer above :class:`~repro.core.streaming.StreamingLaelaps`:
a :class:`StreamSessionManager` multiplexes many live patient streams,
each with its own fitted detector, ring-buffered raw tail and alarm
state machine.  Per tick, raw chunks for any subset of sessions go in
through :meth:`StreamSessionManager.push_many`, which runs the tick of
:func:`push_streams` as one batch instead of one small call chain per
stream: one LBP call per shape, one spatial gather and carry-save tree
per group of same-shape packed sessions, one cross-session XOR +
popcount sweep (:func:`repro.hdc.associative.grouped_classify_packed`)
and one vectorised alarm vote.  Events coming back are bit-identical
to driving each stream alone — the batching is a pure speed
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
from repro.core.postprocess import AlarmStateMachine, delta_scores
from repro.core.streaming import StreamEvent, StreamingLaelaps
from repro.hdc.associative import grouped_classify_packed
from repro.hdc.temporal import feed_many


class NonFiniteSampleError(ValueError):
    """A raw chunk holds NaN or infinite samples.

    Raised before any stream state moves: a dead amplifier streams NaN,
    and classifying it would emit confident INTERICTAL labels.
    """


def validate_chunk(
    session_id: str, chunk, n_electrodes: int
) -> np.ndarray:
    """Coerce one session's raw chunk to float64 and check it.

    The single chunk contract of the streaming and serving layers — a
    stream pushed alone, the manager and the sharded gateway all
    validate through here, so they can never drift into accepting
    different inputs.

    Args:
        session_id: Session key, for the error message.
        chunk: Raw samples, must be ``(n, n_electrodes)`` and finite.
        n_electrodes: The session's electrode count.

    Returns:
        float64 array ``(n, n_electrodes)``.

    Raises:
        ValueError: On a wrong shape.
        NonFiniteSampleError: On any NaN or infinite sample.
    """
    arr = np.asarray(chunk, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != n_electrodes:
        raise ValueError(
            f"session {session_id!r} expects (n, {n_electrodes}) "
            f"chunks, got {arr.shape}"
        )
    finite = np.isfinite(arr)
    if not finite.all():
        sample, electrode = np.argwhere(~finite)[0]
        raise NonFiniteSampleError(
            f"session {session_id!r} chunk holds {int((~finite).sum())} "
            f"non-finite samples (first {arr[sample, electrode]} at sample "
            f"{sample}, electrode {electrode})"
        )
    return arr


def push_streams(
    streams: Mapping[str, StreamingLaelaps],
    chunks: Mapping[str, np.ndarray],
    stacks: dict | None = None,
) -> dict[str, list[StreamEvent]]:
    """Advance many streams by one tick, batched across streams.

    The one streaming code path: :meth:`StreamingLaelaps.push` is the
    one-stream case and :meth:`StreamSessionManager.push_many` the
    fleet case.  A tick runs four batched steps:

    1. **symbolise** — one LBP call over the column-stacked raw tails
       and chunks of all streams sharing a symboliser type, code length
       and joined length (LBP codes are per column);
    2. **encode** — :func:`repro.hdc.temporal.feed_many` feeds every
       stream's temporal encoder, encoding the blocks of encoders that
       share a batch key in one pass (packed numpy-kernel encoders of
       one shape); the rest feed one by one;
    3. **classify** — the completed H vectors of every stream are
       swept against a stack of all involved prototypes at once;
    4. **vote** — one vectorised t_c / t_r vote
       (:meth:`AlarmStateMachine.update_many`) over every stream that
       completed a window, each at its detector's current t_r.

    Every chunk is validated before any stream state moves, so a bad
    entry leaves the whole tick unconsumed.  Events are bit-identical
    to pushing each stream on its own.

    Args:
        streams: Stream per session id; must cover ``chunks``.
        chunks: Raw chunk per session id, ``(n_samples, n_electrodes)``.
        stacks: Cache of stacked encoder tables the caller keeps across
            ticks (see :meth:`PackedTemporalEncoder.feed_batch
            <repro.hdc.temporal_packed.PackedTemporalEncoder.feed_batch>`).

    Returns:
        Per-session lists of completed-window events, in ``chunks``
        order (empty where a chunk finished no window).
    """
    order = list(chunks)
    arrays = [
        validate_chunk(sid, chunks[sid], streams[sid].detector.n_electrodes)
        for sid in order
    ]
    codes: list = [None] * len(order)
    lbp_groups: dict[tuple, tuple] = {}
    for i, sid in enumerate(order):
        stream = streams[sid]
        joined = stream._join(arrays[i])
        if joined is None:
            codes[i] = np.zeros((0, arrays[i].shape[1]), dtype=np.int64)
            continue
        symbolizer = stream._symbolizer
        key = (type(symbolizer), symbolizer.length, joined.shape[0])
        lbp_groups.setdefault(key, (symbolizer, []))[1].append((i, joined))
    for symbolizer, members in lbp_groups.values():
        if len(members) == 1:
            codes[members[0][0]] = symbolizer.codes(members[0][1])
            continue
        stacked = symbolizer.codes(
            np.concatenate([joined for _, joined in members], axis=1)
        )
        column = 0
        for i, joined in members:
            codes[i] = stacked[:, column : column + joined.shape[1]]
            column += joined.shape[1]
    h_list = feed_many(
        [streams[sid]._encoder for sid in order], codes, stacks
    )
    events: dict[str, list[StreamEvent]] = {sid: [] for sid in order}
    voters = [
        (sid, h) for sid, h in zip(order, h_list) if h.shape[0]
    ]
    if not voters:
        return events
    labels, distances = _classify(
        [(streams[sid].detector, h) for sid, h in voters]
    )
    deltas = delta_scores(distances)
    bounds = np.cumsum([0] + [h.shape[0] for _, h in voters])
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    votes = AlarmStateMachine.update_many(
        [streams[sid]._voter() for sid, _ in voters],
        [labels[span] for span in spans],
        [deltas[span] for span in spans],
    )
    for (sid, _), span, (_, rising) in zip(voters, spans, votes):
        events[sid] = streams[sid]._events(labels[span], deltas[span], rising)
    return events


def _classify(
    batch: list[tuple[LaelapsDetector, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and distances of every detector's H vectors, in order.

    One detector's windows go through its engine's own query; several
    detectors' windows are packed into one query block and swept
    against a stack of all their prototypes at once.
    """
    if len(batch) == 1:
        detector, h = batch[0]
        return detector.engine.classify_windows(detector.memory, h)
    queries = []
    owners = []
    protos = []
    labels_table = []
    kernels = set()
    for owner, (detector, h) in enumerate(batch):
        packed = detector.engine.pack_queries(h)
        queries.append(packed)
        owners.append(np.full(packed.shape[0], owner, dtype=np.intp))
        block, block_labels = detector.memory.packed_block()
        protos.append(block)
        labels_table.append(block_labels)
        kernels.add(detector.engine.grouped_kernel)
    # When every involved session runs the same grouped kernel, it
    # carries the tick (the nogil numba sweep of packed engines on
    # numba hosts, typically); mixed fleets fall back to the numpy
    # sweep — all implementations are bit-exact, so this only picks
    # a speed, never a result.
    sweep = kernels.pop() if len(kernels) == 1 else grouped_classify_packed
    return sweep(
        np.concatenate(queries, axis=0),
        np.stack(protos),
        np.concatenate(owners),
        np.stack(labels_table),
    )


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
        # Stacked bound tables of the sessions' packed encoders, reused
        # across ticks (see PackedTemporalEncoder.feed_batch); dropped
        # when a session closes so closed sessions' tables are freed.
        self._stacks: dict = {}

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
        self._stacks.clear()
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
        """Advance many sessions by one tick, batched across sessions.

        Runs :func:`push_streams` over the named sessions: one LBP call
        per shape, one encoding pass per group of same-shape packed
        sessions, one classification sweep and one alarm vote for the
        whole tick.  Results are bit-identical to pushing each session
        alone.

        Args:
            chunks: Mapping of session id to raw chunk
                ``(n_samples, n_electrodes_of_that_session)``; chunk
                sizes may differ per session.

        Returns:
            Per-session lists of completed-window events (empty where a
            chunk finished no window).

        Raises:
            KeyError: For an id with no open session.
            ValueError: For a chunk of the wrong shape, and
                :class:`NonFiniteSampleError` for a non-finite one; in
                both cases no session consumes any of the tick.
        """
        streams = {sid: self.session(sid) for sid in chunks}
        return push_streams(streams, chunks, self._stacks)

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
