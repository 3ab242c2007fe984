"""Tests for repro.core.sessions (multi-patient stream serving)."""

import numpy as np
import pytest

from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.persistence import load_sessions, save_sessions
from repro.core.sessions import NonFiniteSampleError, StreamSessionManager
from repro.core.streaming import StreamingLaelaps
from repro.core.training import TrainingSegments
from repro.data.synthetic import (
    SeizurePlan,
    SynthesisParams,
    SyntheticIEEGGenerator,
)

FS = 256.0
N_SESSIONS = 8


@pytest.fixture(scope="module")
def fleet():
    """Eight fitted packed-backend patients with individual recordings.

    Electrode counts and seeds differ per patient; t_c is below
    ``postprocess_len`` so the historic batch/stream skew would show up
    immediately if the paths diverged.
    """
    detectors = {}
    signals = {}
    for i in range(N_SESSIONS):
        n_electrodes = (8, 12, 16, 10)[i % 4]
        generator = SyntheticIEEGGenerator(
            n_electrodes, SynthesisParams(fs=FS), seed=200 + i
        )
        recording = generator.generate(90.0, [SeizurePlan(40.0, 20.0)])
        config = LaelapsConfig(
            dim=1_000, fs=FS, seed=11 + i, backend="packed", tc=6
        )
        detector = LaelapsDetector(n_electrodes, config)
        detector.fit(
            recording.data,
            TrainingSegments(ictal=((40.0, 60.0),), interictal=(5.0, 35.0)),
        )
        detectors[f"patient-{i}"] = detector
        signals[f"patient-{i}"] = recording.data
    return detectors, signals


class TestLifecycle:
    def test_open_close_contains(self, fleet):
        detectors, _ = fleet
        manager = StreamSessionManager()
        sid, detector = next(iter(detectors.items()))
        manager.open(sid, detector)
        assert sid in manager and len(manager) == 1
        assert manager.dim == detector.config.dim
        manager.close(sid)
        assert sid not in manager and len(manager) == 0
        assert manager.dim is None

    def test_duplicate_session_rejected(self, fleet):
        detectors, _ = fleet
        manager = StreamSessionManager()
        sid, detector = next(iter(detectors.items()))
        manager.open(sid, detector)
        with pytest.raises(ValueError):
            manager.open(sid, detector)

    def test_dim_mismatch_rejected(self, fleet):
        detectors, _ = fleet
        manager = StreamSessionManager()
        manager.open("a", next(iter(detectors.values())))
        other = LaelapsDetector(4, LaelapsConfig(dim=2_000, fs=FS, seed=1))
        other.fit_from_windows(
            np.ones((1, 2_000), dtype=np.uint8),
            np.zeros((1, 2_000), dtype=np.uint8),
        )
        with pytest.raises(ValueError):
            manager.open("b", other)

    def test_unknown_session_rejected(self, fleet):
        _, signals = fleet
        manager = StreamSessionManager()
        with pytest.raises(KeyError):
            manager.push("ghost", next(iter(signals.values()))[:100])

    def test_bad_chunk_leaves_all_sessions_untouched(self, fleet):
        # A malformed chunk anywhere in the batch must fail *before* any
        # session consumes its tick, or earlier sessions would lose the
        # windows completed by the partially-processed batch.
        detectors, signals = fleet
        ids = list(detectors)[:2]
        manager = StreamSessionManager()
        for sid in ids:
            manager.open(sid, detectors[sid])
        with pytest.raises(ValueError):
            manager.push_many(
                {
                    ids[0]: signals[ids[0]][:512],
                    ids[1]: np.zeros((512, 3)),  # wrong electrode count
                }
            )
        assert all(
            manager.session(sid).samples_seen == 0 for sid in ids
        )
        # The tick replays cleanly afterwards, matching per-stream runs.
        good = manager.push_many({sid: signals[sid][:512] for sid in ids})
        for sid in ids:
            expected = StreamingLaelaps(detectors[sid]).push(
                signals[sid][:512]
            )
            assert good[sid] == expected


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_chunk_leaves_all_sessions_untouched(self, fleet, bad):
        # A dead amplifier's NaNs must be refused, not classified: the
        # whole tick fails before any session (earlier ones included)
        # consumes a sample.
        detectors, signals = fleet
        ids = list(detectors)[:3]
        manager = StreamSessionManager()
        for sid in ids:
            manager.open(sid, detectors[sid])
        chunks = {sid: signals[sid][:512].copy() for sid in ids}
        chunks[ids[2]][300, 1] = bad
        with pytest.raises(NonFiniteSampleError, match=repr(ids[2])):
            manager.push_many(chunks)
        assert all(
            manager.session(sid).samples_seen == 0
            and manager.session(sid).windows_emitted == 0
            for sid in ids
        )
        good = manager.push_many({sid: signals[sid][:512] for sid in ids})
        for sid in ids:
            expected = StreamingLaelaps(detectors[sid]).push(
                signals[sid][:512]
            )
            assert good[sid] == expected


class TestBatchedParity:
    """N concurrent sessions must match per-stream results bit-exactly."""

    def test_eight_packed_sessions_match_per_stream(self, fleet):
        detectors, signals = fleet
        reference = {
            sid: StreamingLaelaps(det).run(signals[sid], 300)
            for sid, det in detectors.items()
        }
        manager = StreamSessionManager()
        for sid, detector in detectors.items():
            manager.open(sid, detector)
        events = manager.run(signals, 300)
        for sid in detectors:
            assert events[sid] == reference[sid]
        assert sum(len(v) for v in events.values()) > 0

    def test_ragged_chunks_and_idle_sessions(self, fleet):
        detectors, signals = fleet
        ids = list(detectors)[:3]
        reference = {
            sid: StreamingLaelaps(detectors[sid]).run(signals[sid], 257)
            for sid in ids
        }
        manager = StreamSessionManager()
        for sid in ids:
            manager.open(sid, detectors[sid])
        events = {sid: [] for sid in ids}
        offsets = dict.fromkeys(ids, 0)
        rng = np.random.default_rng(0)
        # Deliver 257-sample chunks to a random subset per tick so
        # sessions progress at different rates (idle sessions included).
        while any(offsets[sid] < signals[sid].shape[0] for sid in ids):
            active = [
                sid for sid in ids
                if offsets[sid] < signals[sid].shape[0]
                and rng.random() < 0.7
            ]
            tick = {}
            for sid in active:
                start = offsets[sid]
                tick[sid] = signals[sid][start : start + 257]
                offsets[sid] = start + 257
            for sid, new in manager.push_many(tick).items():
                events[sid].extend(new)
        for sid in ids:
            assert events[sid] == reference[sid]

    def test_mixed_backends_share_the_sweep(self, fleet):
        detectors, signals = fleet
        sid_packed = "patient-0"
        generator = SyntheticIEEGGenerator(
            6, SynthesisParams(fs=FS), seed=999
        )
        recording = generator.generate(70.0, [SeizurePlan(30.0, 20.0)])
        unpacked = LaelapsDetector(
            6, LaelapsConfig(dim=1_000, fs=FS, seed=77, backend="unpacked")
        )
        unpacked.fit(
            recording.data,
            TrainingSegments(ictal=((30.0, 50.0),), interictal=(2.0, 28.0)),
        )
        reference = {
            sid_packed: StreamingLaelaps(detectors[sid_packed]).run(
                signals[sid_packed], 512
            ),
            "unpacked": StreamingLaelaps(unpacked).run(recording.data, 512),
        }
        manager = StreamSessionManager()
        manager.open(sid_packed, detectors[sid_packed])
        manager.open("unpacked", unpacked)
        events = manager.run(
            {sid_packed: signals[sid_packed], "unpacked": recording.data}, 512
        )
        for sid, expected in reference.items():
            assert events[sid] == expected


class TestCheckpointing:
    def test_mid_stream_round_trip(self, fleet, tmp_path):
        detectors, signals = fleet
        reference = {
            sid: StreamingLaelaps(det).run(signals[sid], 300)
            for sid, det in detectors.items()
        }
        manager = StreamSessionManager()
        for sid, detector in detectors.items():
            manager.open(sid, detector)
        cut = 256 * 33 + 97  # mid-block, mid-code, mid-postprocess-window
        head = manager.run(
            {sid: signals[sid][:cut] for sid in detectors}, 300
        )
        restored = load_sessions(
            save_sessions(manager, tmp_path / "sessions.npz")
        )
        assert restored.session_ids == manager.session_ids
        tail = restored.run(
            {sid: signals[sid][cut:] for sid in detectors}, 300
        )
        for sid in detectors:
            assert head[sid] + tail[sid] == reference[sid]

    def test_empty_manager_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_sessions(StreamSessionManager(), tmp_path / "empty.npz")

    def test_version_check(self, fleet, tmp_path):
        import json

        detectors, _ = fleet
        manager = StreamSessionManager()
        sid, detector = next(iter(detectors.items()))
        manager.open(sid, detector)
        path = save_sessions(manager, tmp_path / "s.npz")
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(payload["meta"].tobytes()).decode())
        meta["version"] = 99
        payload["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez_compressed(tmp_path / "bad.npz", **payload)
        with pytest.raises(ValueError):
            load_sessions(tmp_path / "bad.npz")
