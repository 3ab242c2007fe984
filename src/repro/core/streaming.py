"""Online (streaming) inference for a fitted Laelaps detector.

The GPU implementation of Sec. V processes one 0.5 s step at a time; this
module provides the same incremental dataflow in pure Python: raw samples
are pushed in arbitrary chunks, LBP codes continue seamlessly across
chunk boundaries, the temporal encoder emits an H vector per completed
0.5 s block, and the shared :class:`~repro.core.postprocess.AlarmStateMachine`
votes over a rolling window of the last ten labels.  Memory use is O(d)
regardless of stream length.

Because the postprocessor *is* the batch one (same class, resumable),
``run()`` raises alarms at exactly the window indices where
``LaelapsDetector.detect()`` does, for every ``t_c <= postprocess_len``
and any chunking — including the warm-up contract that no alarm can fire
before ``postprocess_len`` labels exist.

Every push runs through the fleet tick of
:func:`repro.core.sessions.push_streams`: a stream pushed alone is a
fleet of one, and :class:`repro.core.sessions.StreamSessionManager`
ticks many streams at once, batching symbolisation, encoding,
classification and the alarm vote across them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.detector import LaelapsDetector
from repro.core.postprocess import AlarmStateMachine, PostprocessConfig


@dataclass(frozen=True)
class StreamEvent:
    """One classified analysis window from the stream.

    Attributes:
        time_s: Decision time of the window (stream time).
        label: INTERICTAL/ICTAL classifier label.
        delta: Confidence score |d0 - d1|.
        alarm: True when this window *newly* satisfies the alarm
            condition (rising edge of the t_c / t_r vote).
    """

    time_s: float
    label: int
    delta: float
    alarm: bool


class StreamingLaelaps:
    """Incremental wrapper around a fitted :class:`LaelapsDetector`.

    Args:
        detector: A fitted detector (prototypes stored, t_r set).

    Push raw sample chunks with :meth:`push`; each call returns the
    stream events whose windows completed inside that chunk.  The
    stream runs on whichever compute engine the detector was built
    with — on the word-domain engines the H vectors never leave the
    packed form between the encoder and the associative memory, and the
    fused engine answers the per-tick single-window query through its
    preallocated scratch path.

    Code continuation and decision times follow the detector's
    *symbolizer* (not the config's default LBP length), so a detector
    built with a custom-length :class:`~repro.core.symbolizers.LBPSymbolizer`
    streams with the same codes and clock as its batch path.
    """

    def __init__(self, detector: LaelapsDetector) -> None:
        from repro.core.symbolizers import LBPSymbolizer

        if not detector.is_fitted:
            raise ValueError("detector must be fitted before streaming")
        if not isinstance(detector.symbolizer, LBPSymbolizer):
            raise ValueError(
                "streaming supports the LBP symboliser only (its margin "
                "semantics drive the chunk-boundary continuation)"
            )
        self.detector = detector
        cfg = detector.config
        self._symbolizer = detector.symbolizer
        self._encoder = detector.temporal_encoder()
        self._raw_tail = np.zeros((0, detector.n_electrodes), dtype=np.float64)
        self._post = AlarmStateMachine(
            PostprocessConfig(
                postprocess_len=cfg.postprocess_len, tc=cfg.tc, tr=detector.tr
            )
        )
        self._samples_seen = 0
        self._windows_emitted = 0

    @property
    def samples_seen(self) -> int:
        """Raw samples consumed so far."""
        return self._samples_seen

    @property
    def windows_emitted(self) -> int:
        """Analysis windows classified so far."""
        return self._windows_emitted

    @property
    def postprocessor_state(self) -> AlarmStateMachine:
        """The live alarm state machine (shared batch/stream semantics)."""
        return self._post

    def push(self, chunk: np.ndarray) -> list[StreamEvent]:
        """Consume a chunk of raw samples; return completed windows.

        The one-stream case of the fleet tick
        (:func:`repro.core.sessions.push_streams`), so a stream pushed
        alone and a stream ticked inside a fleet share one code path.

        Args:
            chunk: Array ``(n_samples, n_electrodes)`` continuing the
                stream (any chunk size, including smaller than a block).

        Raises:
            NonFiniteSampleError: If the chunk holds NaN or infinite
                samples; the stream is left untouched.
        """
        from repro.core.sessions import push_streams

        return push_streams({"stream": self}, {"stream": chunk})["stream"]

    # ------------------------------------------------------------------
    # Phases of a tick (driven by repro.core.sessions.push_streams)
    # ------------------------------------------------------------------

    def _join(self, chunk: np.ndarray) -> np.ndarray | None:
        """Append a validated chunk to the raw tail.

        Returns the joined samples when they complete at least one LBP
        code (the raw samples whose codes are not yet computable stay
        as the new tail), else None, keeping everything as the tail.
        """
        self._samples_seen += chunk.shape[0]
        joined = np.concatenate([self._raw_tail, chunk], axis=0)
        length = self._symbolizer.length
        if joined.shape[0] <= length:
            self._raw_tail = joined
            return None
        self._raw_tail = joined[-length:].copy()
        return joined

    def _voter(self) -> AlarmStateMachine:
        """The alarm state machine, at the detector's current t_r."""
        # t_r lives on the detector and may be (re)tuned after this
        # stream was opened; track it so alarms keep matching detect().
        if self.detector.tr != self._post.config.tr:
            cfg = self.detector.config
            self._post.config = PostprocessConfig(
                postprocess_len=cfg.postprocess_len,
                tc=cfg.tc,
                tr=self.detector.tr,
            )
        return self._post

    def _events(
        self, labels: np.ndarray, deltas: np.ndarray, rising: np.ndarray
    ) -> list[StreamEvent]:
        """Voted windows as stream events, stamped with the stream clock.

        Decision times follow the global window index and the
        symboliser margin, so they are right for mid-stream chunks.
        """
        n = labels.shape[0]
        cfg = self.detector.config
        spec = cfg.window_spec
        index = self._windows_emitted + np.arange(n)
        times = (
            index * spec.step_samples
            + spec.window_samples
            + self._symbolizer.margin
        ) / cfg.fs
        self._windows_emitted += n
        return [
            StreamEvent(
                time_s=float(times[k]),
                label=int(labels[k]),
                delta=float(deltas[k]),
                alarm=bool(rising[k]),
            )
            for k in range(n)
        ]

    def run(self, signal: np.ndarray, chunk_samples: int) -> list[StreamEvent]:
        """Convenience: stream a whole recording in fixed-size chunks."""
        events: list[StreamEvent] = []
        for start in range(0, signal.shape[0], chunk_samples):
            events.extend(self.push(signal[start : start + chunk_samples]))
        return events

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the live stream state (model excluded).

        Everything needed to resume the stream bit-exactly on a detector
        reloaded from :func:`repro.core.persistence.load_model`: the raw
        symboliser tail, the temporal-encoder buffers and the alarm
        state machine, plus the sample/window counters.
        """
        return {
            "raw_tail": self._raw_tail.copy(),
            "samples_seen": int(self._samples_seen),
            "windows_emitted": int(self._windows_emitted),
            "encoder": self._encoder.state_dict(),
            "post": self._post.state_dict(),
        }

    def restore_state(self, state: dict) -> "StreamingLaelaps":
        """Resume from a :meth:`state_dict` snapshot (bit-exact)."""
        raw_tail = np.asarray(state["raw_tail"], dtype=np.float64)
        if raw_tail.ndim != 2 or raw_tail.shape[1] != self.detector.n_electrodes:
            raise ValueError(
                f"raw tail must be (n, {self.detector.n_electrodes}), "
                f"got {raw_tail.shape}"
            )
        self._raw_tail = raw_tail.copy()
        self._samples_seen = int(state["samples_seen"])
        self._windows_emitted = int(state["windows_emitted"])
        self._encoder.restore_state(state["encoder"])
        self._post.restore_state(state["post"])
        return self
