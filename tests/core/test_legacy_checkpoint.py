"""Backward compat: pre-engine-registry checkpoints restore bit-exactly.

The committed ``tests/fixtures/legacy_packed_*`` files were written with
the payload schema that predates :mod:`repro.hdc.engine` — no ``engine``
tag, the engine named only by the config's legacy backend field.  These
tests restore them onto the current registry and compare predictions and
stream events against the frozen expectations, so a payload-format
change can never silently strand deployed models.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.persistence import (
    load_model,
    load_sessions,
    save_model,
    save_sessions,
)
from repro.core.sessions import StreamSessionManager
from repro.core.streaming import StreamingLaelaps
from repro.hdc.backend import random_bits
from repro.hdc.engine import PackedEngine, UnpackedEngine

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"

_spec = importlib.util.spec_from_file_location(
    "legacy_fixture_generator", FIXTURE_DIR / "generate_legacy_fixtures.py"
)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)


def _meta(path: Path) -> dict:
    with np.load(path) as archive:
        return json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))


class TestFixturesAreLegacy:
    """Guard: the fixtures really exercise the no-tag compat path."""

    def test_model_fixture_has_no_engine_tag(self):
        meta = _meta(FIXTURE_DIR / "legacy_packed_model.npz")
        assert "engine" not in meta
        assert meta["config"]["backend"] == "packed"

    def test_sessions_fixture_has_no_engine_tags(self):
        meta = _meta(FIXTURE_DIR / "legacy_packed_sessions.npz")
        backends = set()
        for session in meta["sessions"]:
            assert "engine" not in session
            backends.add(session["config"]["backend"])
        assert backends == {"packed", "unpacked"}

    def test_packed_session_blocks_are_legacy_digit_planes(self):
        # The packed encoder used to checkpoint engine-specific
        # bit-sliced planes; the fixture must keep that form so the
        # planes-decoding restore path stays exercised.
        with np.load(FIXTURE_DIR / "legacy_packed_sessions.npz") as archive:
            block = archive["s0__block0"]
        assert block.ndim == 2 and block.dtype == np.uint64


class TestLegacyModelRestores:
    def test_restores_onto_the_registry_bit_exactly(self):
        detector = load_model(FIXTURE_DIR / "legacy_packed_model.npz")
        assert detector.backend == "packed"
        assert isinstance(detector.engine, PackedEngine)

        reference, signal = generator.build_legacy_model()
        preds = detector.predict(signal)
        with np.load(FIXTURE_DIR / "legacy_packed_expected.npz") as expected:
            np.testing.assert_array_equal(preds.labels, expected["labels"])
            np.testing.assert_array_equal(
                preds.distances, expected["distances"]
            )
            np.testing.assert_array_equal(preds.deltas, expected["deltas"])
            np.testing.assert_array_equal(preds.times, expected["times"])
        # And the restored model matches a freshly trained reference.
        np.testing.assert_array_equal(
            detector.memory.prototype(0), reference.memory.prototype(0)
        )
        assert detector.tr == reference.tr

    def test_pre_backend_archive_loads_as_unpacked(self):
        """Seed-era payloads lack even the config's backend key.

        The oldest schema predates the backend field itself; such a
        payload must load onto the unpacked reference engine (the only
        engine that era ran) rather than crash on the missing key.
        """
        from repro.core.persistence import (
            detector_from_payload,
            detector_payload,
        )

        reference, signal = generator.build_legacy_model()
        payload = detector_payload(reference)
        payload.pop("engine")
        payload["config"] = dict(payload["config"])
        payload["config"].pop("backend")
        rebuilt = detector_from_payload(payload)
        assert rebuilt.backend == "unpacked"
        np.testing.assert_array_equal(
            rebuilt.predict(signal).labels, reference.predict(signal).labels
        )

    def test_resave_upgrades_to_the_tagged_schema(self, tmp_path):
        detector = load_model(FIXTURE_DIR / "legacy_packed_model.npz")
        resaved = save_model(detector, tmp_path / "upgraded.npz")
        meta = _meta(resaved)
        assert meta["engine"] == "packed"
        upgraded = load_model(resaved)
        assert upgraded.backend == "packed"


class TestLegacySessionsRestore:
    def test_mixed_engine_fleet_resumes_bit_exactly(self):
        manager = load_sessions(FIXTURE_DIR / "legacy_packed_sessions.npz")
        assert manager.session_ids == ["legacy-0", "legacy-1"]
        assert isinstance(
            manager.session("legacy-0").detector.engine, PackedEngine
        )
        assert isinstance(
            manager.session("legacy-1").detector.engine, UnpackedEngine
        )
        for session_id in manager.session_ids:
            stream = manager.session(session_id)
            assert stream.samples_seen == generator.WARMUP_SAMPLES

        _, signals = generator.build_legacy_sessions()
        events = generator.resume_events(manager, signals)
        expected = json.loads(
            (
                FIXTURE_DIR / "legacy_packed_sessions_expected.json"
            ).read_text()
        )
        assert events == expected
        assert any(len(v) > 0 for v in expected.values())


class TestGeneratorIsDeterministic:
    """Regenerating the fixtures reproduces the committed bytes' content."""

    def test_model_regeneration_matches(self):
        detector, signal = generator.build_legacy_model()
        preds = detector.predict(signal)
        with np.load(FIXTURE_DIR / "legacy_packed_expected.npz") as expected:
            np.testing.assert_array_equal(preds.labels, expected["labels"])
            np.testing.assert_array_equal(
                preds.distances, expected["distances"]
            )


def _retag_archive(path: Path, retag) -> None:
    """Rewrite the JSON meta of an ``.npz`` checkpoint in place."""
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(arrays.pop("meta").tobytes()).decode("utf-8"))
    retag(meta)
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **arrays,
    )


def _events(events) -> list[tuple]:
    return [(e.time_s, e.label, e.delta, e.alarm) for e in events]


@pytest.mark.parametrize("retired", ["packed-fused", "packed-native"])
class TestRetiredEngineNames:
    """Names of the engines merged into ``packed`` still load onto it.

    A config, a model archive and a mid-stream session checkpoint tagged
    with a retired name each rebuild the ``packed`` engine and predict
    bit-exactly against the ``unpacked`` oracle.
    """

    DIM = 129
    FS = 128.0

    def _fitted(self, backend: str) -> LaelapsDetector:
        detector = LaelapsDetector(
            4, LaelapsConfig(dim=self.DIM, fs=self.FS, seed=3,
                             backend=backend)
        )
        detector.fit_from_windows(
            random_bits((3, self.DIM), np.random.default_rng(1)),
            random_bits((3, self.DIM), np.random.default_rng(2)),
        )
        detector.tr = 1.0
        return detector

    def _signal(self) -> np.ndarray:
        return np.random.default_rng(9).standard_normal(
            (int(8 * self.FS), 4)
        )

    def test_config(self, retired):
        detector = self._fitted(retired)
        assert type(detector.engine) is PackedEngine
        assert detector.backend == "packed"
        got = detector.predict(self._signal())
        want = self._fitted("unpacked").predict(self._signal())
        assert len(want) > 0
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.distances, want.distances)

    def test_model_archive(self, retired, tmp_path):
        oracle = self._fitted("unpacked")
        path = save_model(oracle, tmp_path / "model.npz")

        def retag(meta):
            meta["engine"] = retired
            meta["config"]["backend"] = retired

        _retag_archive(path, retag)
        detector = load_model(path)
        assert type(detector.engine) is PackedEngine
        got = detector.predict(self._signal())
        want = oracle.predict(self._signal())
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert detector.tr == oracle.tr

    def test_session_checkpoint(self, retired, tmp_path):
        signal = self._signal()
        half = signal.shape[0] // 2
        expected = StreamingLaelaps(self._fitted("unpacked")).run(signal, 23)

        manager = StreamSessionManager()
        manager.open("p0", self._fitted("unpacked"))
        events = []
        for lo in range(0, half, 23):
            events.extend(manager.push("p0", signal[lo : lo + 23]))
        path = save_sessions(manager, tmp_path / "sessions.npz")

        def retag(meta):
            for session in meta["sessions"]:
                session["engine"] = retired

        _retag_archive(path, retag)
        resumed = load_sessions(path)
        stream = resumed.session("p0")
        assert type(stream.detector.engine) is PackedEngine
        for lo in range(stream.samples_seen, signal.shape[0], 23):
            events.extend(resumed.push("p0", signal[lo : lo + 23]))
        assert len(expected) > 0
        assert _events(events) == _events(expected)
