"""Streamed (out-of-core) evaluation: bit-exact with the in-memory path.

The contract under test: :func:`predict_windows_streamed` produces the
*same* labels, distances, deltas and decision times as the batched
``predict`` sweep for every compute engine and kernel set, every chunk size (including
chunks smaller than the LBP length and chunks that straddle analysis
windows), on in-RAM arrays and on memmap views alike.  The chunk size
is a memory knob, never a semantics knob.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hdc.engine as engine_module
from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.persistence import detector_from_payload, detector_payload
from repro.core.training import TrainingSegments
from repro.data.outofcore import (
    CohortSpec,
    MemberSpec,
    default_member_plans,
    generate_cohort,
)
from repro.data.synthetic import SynthesisParams, SyntheticIEEGGenerator
from repro.evaluation.runner import (
    evaluate_detector,
    predict_windows,
    predict_windows_streamed,
    run_patient,
)
from repro.hdc.engine import PACKED_ENGINE, UNPACKED_ENGINE
from repro.hdc.native import numba_available

_FS = 256.0
_SEGMENTS = TrainingSegments(ictal=((60.0, 75.0),), interictal=(15.0, 45.0))


#: The packed engine on its numba kernels (their pure-Python twins on
#: numba-free hosts, far slower, hence a shorter signal there).
_NATIVE = "packed-native-kernels"


@pytest.fixture(scope="module")
def fitted():
    """A fitted detector per engine and kernel set, plus the recording."""
    recording = SyntheticIEEGGenerator(
        8, SynthesisParams(fs=_FS), seed=21
    ).generate(120.0, None)
    # Plant the training classes directly: an ictal-looking segment is
    # not needed for the equivalence property, only two prototypes.
    detectors = {}
    for backend in (UNPACKED_ENGINE, PACKED_ENGINE):
        det = LaelapsDetector(
            8, LaelapsConfig(dim=512, fs=_FS, backend=backend)
        )
        det.fit(recording.data, _SEGMENTS)
        detectors[backend] = det
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "use_native_kernels", lambda: True)
        detectors[_NATIVE] = detector_from_payload(
            detector_payload(detectors[PACKED_ENGINE])
        )
    assert detectors[_NATIVE].engine.native
    return recording, detectors


class TestBitExactness:
    @pytest.mark.parametrize(
        "backend", (UNPACKED_ENGINE, PACKED_ENGINE, _NATIVE)
    )
    @pytest.mark.parametrize("chunk_samples", (127, 333, 4096, 10**9))
    def test_every_engine_every_chunking(self, fitted, backend, chunk_samples):
        recording, detectors = fitted
        detector = detectors[backend]
        seconds = 45.0
        if backend == _NATIVE and not numba_available():
            seconds = 10.0
        signal = recording.data[: int(seconds * _FS)]
        batch = predict_windows(detector, signal)
        streamed = predict_windows_streamed(detector, signal, chunk_samples)
        np.testing.assert_array_equal(streamed.labels, batch.labels)
        np.testing.assert_array_equal(streamed.distances, batch.distances)
        np.testing.assert_array_equal(streamed.deltas, batch.deltas)
        np.testing.assert_array_equal(streamed.times, batch.times)

    @settings(max_examples=20, deadline=None)
    @given(chunk_samples=st.integers(1, 700))
    def test_any_chunk_size(self, fitted, chunk_samples):
        """Adversarial chunkings, down to below the LBP length."""
        recording, detectors = fitted
        detector = next(iter(detectors.values()))
        signal = recording.data[:2000]
        batch = predict_windows(detector, signal)
        streamed = predict_windows_streamed(detector, signal, chunk_samples)
        np.testing.assert_array_equal(streamed.labels, batch.labels)
        np.testing.assert_array_equal(streamed.distances, batch.distances)
        np.testing.assert_array_equal(streamed.times, batch.times)

    def test_signal_shorter_than_one_window(self, fitted):
        _, detectors = fitted
        detector = next(iter(detectors.values()))
        preds = predict_windows_streamed(
            detector, np.zeros((10, 8), dtype=np.float32), 4
        )
        assert len(preds) == 0
        assert preds.times.shape == (0,)


class TestErrors:
    def test_non_streaming_detector_rejected(self):
        class Baseline:
            window_s = 1.0

        with pytest.raises(TypeError, match="streaming surface"):
            predict_windows_streamed(Baseline(), np.zeros((100, 4)))

    def test_bad_chunk_size(self, fitted):
        recording, detectors = fitted
        detector = next(iter(detectors.values()))
        with pytest.raises(ValueError, match="chunk_samples"):
            predict_windows_streamed(detector, recording.data, 0)

    def test_bad_signal_shape(self, fitted):
        _, detectors = fitted
        detector = next(iter(detectors.values()))
        with pytest.raises(ValueError, match="n_samples"):
            predict_windows_streamed(detector, np.zeros(100), 64)


class TestDriverIntegration:
    @pytest.fixture(scope="class")
    def patient(self, tmp_path_factory):
        spec = CohortSpec(
            "stream-unit",
            (MemberSpec("m0", 10, 300.0, default_member_plans(300.0, 3),
                        seed=11),),
            params=SynthesisParams(fs=_FS),
            seed=4,
        )
        root = tmp_path_factory.mktemp("cohort")
        return generate_cohort(spec, root).member("m0").patient()

    def _factory(self, n_electrodes, fs):
        return LaelapsDetector(
            n_electrodes, LaelapsConfig(dim=1_000, fs=fs, seed=2)
        )

    def test_run_patient_streamed_equals_in_memory(self, patient):
        run_mem = run_patient(self._factory, patient)
        run_str = run_patient(self._factory, patient, chunk_samples=777)
        for side in ("train_preds", "test_preds"):
            mem, str_ = getattr(run_mem, side), getattr(run_str, side)
            np.testing.assert_array_equal(str_.labels, mem.labels)
            np.testing.assert_array_equal(str_.distances, mem.distances)
            np.testing.assert_array_equal(str_.times, mem.times)
        np.testing.assert_array_equal(run_str.train_truth, run_mem.train_truth)
        assert run_str.trained_delta_mean == run_mem.trained_delta_mean

    def test_evaluate_detector_streamed_equals_in_memory(self, patient):
        recording = patient.recording
        detector = self._factory(patient.n_electrodes, recording.fs)
        first = recording.seizures[0]
        detector.fit(
            recording.data[: int(150.0 * recording.fs)],
            TrainingSegments(
                ictal=((first.onset_s, first.offset_s),),
                interictal=(10.0, 40.0),
            ),
        )
        batch = evaluate_detector(detector, recording)
        streamed = evaluate_detector(detector, recording, chunk_samples=901)
        assert streamed == batch
