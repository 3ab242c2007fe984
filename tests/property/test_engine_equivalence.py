"""Property tests: every engine, on every kernel set, is bit-exact.

The tentpole contract of :mod:`repro.hdc.engine`: the ``unpacked``
oracle and the ``packed`` engine, on its numpy kernels and on the numba
kernels of :mod:`repro.hdc.native`, produce identical prototypes,
labels, Hamming distances and stream events on arbitrary inputs — over
odd dimensions (padding bits in the top word), ragged stream chunking,
mixed-kernel session fleets sharing one grouped sweep, and mid-stream
checkpoint/restore where the checkpoint is reopened on a *different*
representation or kernel set than the one that wrote it.

The native kernels take part on every host: with numba installed (the
``native-engine`` CI job) they run JIT-compiled and parallel, without
it as their pure-Python twins — the exact same kernel code, so
bit-exactness holds in both environments.  The kernel set is chosen by
patching the engine's single selection point,
:func:`repro.hdc.engine.use_native_kernels`.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hdc.engine as engine_module
from repro.core.config import ICTAL, INTERICTAL, LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.postprocess import alarm_flags
from repro.core.sessions import StreamSessionManager
from repro.core.streaming import StreamingLaelaps
from repro.hdc.backend import random_bits, unpack_bits
from repro.hdc.engine import PACKED_ENGINE, UNPACKED_ENGINE

#: The axis every property runs over, representation x kernels:
#: variant name -> (backend, whether packed runs the numba kernels).
VARIANTS = {
    "unpacked": (UNPACKED_ENGINE, False),
    "packed": (PACKED_ENGINE, False),
    "packed-native-kernels": (PACKED_ENGINE, True),
}
ENGINES = tuple(VARIANTS)
NATIVE = "packed-native-kernels"


@contextmanager
def _kernels(variant: str):
    """Build engines inside on ``variant``'s kernel set."""
    saved = engine_module.use_native_kernels
    native = VARIANTS[variant][1]
    engine_module.use_native_kernels = lambda: native
    try:
        yield VARIANTS[variant][0]
    finally:
        engine_module.use_native_kernels = saved


#: Dimensions straddling word boundaries: d % 64 in {63, 0, 1, ...}.
ODD_DIMS = st.sampled_from([63, 64, 65, 127, 129, 200, 257])
FS = 32.0  # 32-sample windows, 16-sample blocks: fast under hypothesis


def _fitted(engine: str, dim: int, rng: np.random.Generator,
            n_electrodes: int = 3) -> LaelapsDetector:
    """A fitted detector on variant ``engine``, trained from shared H.

    Every engine accepts the unpacked window form, so training all
    variants from the same uint8 windows checks the training dispatch
    (``engine.train``) as well as the query path.
    """
    with _kernels(engine) as backend:
        detector = LaelapsDetector(
            n_electrodes,
            LaelapsConfig(dim=dim, fs=FS, lbp_length=3, seed=11,
                          backend=backend),
        )
    assert getattr(detector.engine, "native", False) is VARIANTS[engine][1]
    detector.fit_from_windows(
        random_bits((4, dim), np.random.default_rng(rng.integers(2**31))),
        random_bits((4, dim), np.random.default_rng(rng.integers(2**31))),
    )
    detector.tr = 1.0
    return detector


def _signal(rng: np.random.Generator, seconds: float,
            n_electrodes: int = 3) -> np.ndarray:
    return rng.standard_normal((int(seconds * FS), n_electrodes))


class TestBatchEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(ODD_DIMS, st.integers(0, 2**31 - 1))
    def test_encode_matches_across_engines(self, dim, seed):
        """H vectors agree component for component after unpacking."""
        signal = _signal(np.random.default_rng(seed + 1), 3.0)
        reference = None
        for engine in ENGINES:
            h = _fitted(engine, dim, np.random.default_rng(seed)).encode(
                signal
            )
            as_bits = h if h.dtype == np.uint8 else unpack_bits(h, dim)
            if reference is None:
                reference = as_bits
            else:
                np.testing.assert_array_equal(as_bits, reference)
        assert reference is not None and reference.shape[0] > 0

    @settings(max_examples=20, deadline=None)
    @given(ODD_DIMS, st.integers(0, 2**31 - 1))
    def test_train_and_predict_bit_exact(self, dim, seed):
        """Prototypes, labels, distances and deltas agree everywhere."""
        signal = _signal(np.random.default_rng(seed + 1), 4.0)
        results = {}
        for engine in ENGINES:
            detector = _fitted(engine, dim, np.random.default_rng(seed))
            results[engine] = (
                detector.memory.prototype(INTERICTAL),
                detector.memory.prototype(ICTAL),
                detector.predict(signal),
            )
        ref_inter, ref_ictal, ref_preds = results[ENGINES[0]]
        for engine in ENGINES[1:]:
            inter, ictal, preds = results[engine]
            np.testing.assert_array_equal(inter, ref_inter)
            np.testing.assert_array_equal(ictal, ref_ictal)
            np.testing.assert_array_equal(preds.labels, ref_preds.labels)
            np.testing.assert_array_equal(
                preds.distances, ref_preds.distances
            )
            np.testing.assert_array_equal(preds.deltas, ref_preds.deltas)
            np.testing.assert_array_equal(preds.times, ref_preds.times)

    @settings(max_examples=25, deadline=None)
    @given(ODD_DIMS, st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_cross_engine_window_feeding(self, dim, n_windows, seed):
        """Windows encoded on any engine classify identically on any other."""
        rng = np.random.default_rng(seed)
        detectors = {
            engine: _fitted(engine, dim, np.random.default_rng(seed))
            for engine in ENGINES
        }
        windows = random_bits((n_windows, dim), rng)
        forms = [windows, detectors["packed"].engine.pack_queries(windows)]
        reference = None
        for detector in detectors.values():
            for form in forms:
                labels, dists, deltas = detector.classify_from_windows(form)
                if reference is None:
                    reference = (labels, dists, deltas)
                else:
                    np.testing.assert_array_equal(labels, reference[0])
                    np.testing.assert_array_equal(dists, reference[1])
                    np.testing.assert_array_equal(deltas, reference[2])


class TestFusedSweep:
    """The packed engine's fused paths equal the primitives they replace."""

    @pytest.mark.parametrize("chunk_windows", [1, 2, 3, 7])
    def test_block_sweep_matches_unfused(self, monkeypatch, chunk_windows):
        # Shrink the flush size so a short recording spans many slices,
        # exercising the slice loop and the cross-slice concatenation.
        monkeypatch.setattr(
            engine_module, "_FUSED_WINDOW_CHUNK", chunk_windows
        )
        signal = _signal(np.random.default_rng(5), 8.0)
        for variant in ("packed", NATIVE):
            detector = _fitted(variant, 129, np.random.default_rng(9))
            preds = detector.predict(signal)
            # encode_all, then one batched sweep over the whole H array.
            labels, dists = detector.memory.classify_packed(
                detector.encode(signal)
            )
            assert len(preds) > chunk_windows  # really crossed slices
            np.testing.assert_array_equal(preds.labels, labels)
            np.testing.assert_array_equal(preds.distances, dists)

    def test_single_window_scratch_query(self):
        """The preallocated streaming query equals the general sweep."""
        rng = np.random.default_rng(6)
        detector = _fitted("packed", 200, np.random.default_rng(3))
        native = _fitted(NATIVE, 200, np.random.default_rng(3))
        for _ in range(5):  # reuses the scratch across calls
            query = detector.engine.pack_queries(random_bits((1, 200), rng))
            expected = detector.memory.classify_packed(query)
            for fitted in (detector, native):
                labels, dists = fitted.engine.classify_windows(
                    fitted.memory, query
                )
                np.testing.assert_array_equal(labels, expected[0])
                np.testing.assert_array_equal(dists, expected[1])

    def test_empty_code_stream(self):
        codes = np.zeros((0, 3), dtype=np.int64)
        for variant in ("packed", NATIVE):
            detector = _fitted(variant, 65, np.random.default_rng(3))
            labels, dists = detector.engine.encode_classify(
                detector.memory, codes
            )
            assert labels.shape == (0,)
            assert dists.shape == (0, 2)


@st.composite
def ragged_cuts(draw, n_samples: int):
    cuts = draw(st.lists(st.integers(1, n_samples), max_size=6).map(sorted))
    return [0, *cuts, n_samples]


class TestStreamingEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(ODD_DIMS, st.data())
    def test_ragged_chunking_matches_batch_on_every_engine(self, dim, data):
        seed = data.draw(st.integers(0, 2**31 - 1))
        signal = _signal(np.random.default_rng(seed + 1), 5.0)
        bounds = data.draw(ragged_cuts(signal.shape[0]))
        reference = None
        for engine in ENGINES:
            detector = _fitted(engine, dim, np.random.default_rng(seed))
            batch = detector.detect(signal)
            stream = StreamingLaelaps(detector)
            events = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                events.extend(stream.push(signal[lo:hi]))
            streamed = [
                (e.time_s, e.label, e.delta, e.alarm) for e in events
            ]
            assert len(streamed) == len(batch.predictions)
            np.testing.assert_array_equal(
                [s[1] for s in streamed], batch.predictions.labels
            )
            if reference is None:
                reference = streamed
            else:
                assert streamed == reference


class TestMixedEngineFleet:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([5, 11, 16, 37]),
        st.sampled_from([ENGINES, (NATIVE, NATIVE)]),
    )
    def test_grouped_sweep_matches_solo_streams(self, seed, chunk, fleet):
        """One manager serving every variant at once is bit-exact.

        A mixed fleet ticks on the shared numpy grouped sweep; a fleet
        all on the native kernels ticks on their grouped twin.
        """
        dim = 127
        rng = np.random.default_rng(seed)
        manager = StreamSessionManager()
        solo = {}
        signals = {}
        for i, engine in enumerate(fleet):
            detector = _fitted(engine, dim, np.random.default_rng(seed + i))
            twin = _fitted(engine, dim, np.random.default_rng(seed + i))
            session_id = f"s{i}-{engine}"
            manager.open(session_id, detector)
            solo[session_id] = StreamingLaelaps(twin)
            signals[session_id] = _signal(
                np.random.default_rng(seed + 50 + i), 4.0
            )
        fleet_events = manager.run(signals, chunk)
        for session_id, signal in signals.items():
            solo_events = solo[session_id].run(signal, chunk)
            assert [
                (e.time_s, e.label, e.delta, e.alarm)
                for e in fleet_events[session_id]
            ] == [
                (e.time_s, e.label, e.delta, e.alarm) for e in solo_events
            ]
        del rng  # randomness flows through the per-session seeds


class TestCheckpointAcrossEngines:
    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([17, 29, 40]),
        st.sampled_from(ENGINES),
        st.sampled_from(ENGINES),
    )
    def test_midstream_export_reopens_on_any_engine(
        self, seed, cut_chunk, engine_a, engine_b
    ):
        """A session checkpointed on one engine resumes on another.

        The exported payload pins the engine that wrote it; rewriting
        the tag before import must still produce bit-identical events,
        because the persisted state (prototypes, symboliser tail, block
        counters as plain numpy data) is engine-independent.
        """
        _roundtrip_checkpoint(engine_a, engine_b, seed, cut_chunk)


def _roundtrip_checkpoint(
    engine_a: str, engine_b: str, seed: int, cut_chunk: int, dim: int = 100
) -> None:
    """Checkpoint mid-stream on one variant, resume on another."""
    signal = _signal(np.random.default_rng(seed + 1), 5.0)
    half = signal.shape[0] // 2

    reference = StreamingLaelaps(
        _fitted(engine_a, dim, np.random.default_rng(seed))
    )
    expected = reference.run(signal, cut_chunk)

    manager = StreamSessionManager()
    manager.open(
        "p0", _fitted(engine_a, dim, np.random.default_rng(seed))
    )
    events = []
    for start in range(0, half, cut_chunk):
        events.extend(
            manager.push("p0", signal[start : start + cut_chunk])
        )
    payload = manager.pop_session("p0")
    assert payload["model"]["engine"] == VARIANTS[engine_a][0]

    resumed = StreamSessionManager()
    with _kernels(engine_b) as backend_b:
        payload["model"]["engine"] = backend_b
        stream = resumed.import_session("p0", payload)
    assert stream.detector.backend == backend_b
    assert (
        getattr(stream.detector.engine, "native", False)
        is VARIANTS[engine_b][1]
    )
    consumed = stream.samples_seen
    for lo in range(consumed, signal.shape[0], cut_chunk):
        events.extend(resumed.push("p0", signal[lo : lo + cut_chunk]))
    assert [
        (e.time_s, e.label, e.delta, e.alarm) for e in events
    ] == [(e.time_s, e.label, e.delta, e.alarm) for e in expected]


class TestNativeCheckpointDirections:
    """Explicit to/from native-kernel restore coverage, both ways.

    The hypothesis test above samples variant pairs; these pin the four
    native-kernel directions so every run exercises them, odd dim and
    mid-window cut included.
    """

    @pytest.mark.parametrize("engine_a, engine_b", [
        (NATIVE, "packed"),
        ("packed", NATIVE),
        (NATIVE, "unpacked"),
        ("unpacked", NATIVE),
    ])
    def test_midstream_restore(self, engine_a, engine_b):
        _roundtrip_checkpoint(engine_a, engine_b, seed=123, cut_chunk=29,
                              dim=127)


class TestFleetTickParity:
    """``push_many`` ticks equal per-session ``StreamingLaelaps.push``.

    A tick encodes every same-shape packed numpy-kernel session in one
    gather and tree, and votes every session in one pass; the solo
    pushes feed each encoder alone.  Fleets mix every variant, two
    electrode counts and a custom LBP length; packets complete zero,
    one or several windows (empty packets included); the fleet is
    checkpointed into a fresh manager between two ticks; and one
    session's t_r changes mid-stream.
    """

    @staticmethod
    def _detector(variant, dim, n_electrodes, lbp_length, seed):
        from repro.core.symbolizers import LBPSymbolizer

        rng = np.random.default_rng(seed)
        with _kernels(variant) as backend:
            detector = LaelapsDetector(
                n_electrodes,
                LaelapsConfig(dim=dim, fs=FS, lbp_length=3, seed=seed,
                              backend=backend, postprocess_len=3, tc=2),
                symbolizer=LBPSymbolizer(lbp_length),
            )
        detector.fit_from_windows(random_bits((4, dim), rng),
                                  random_bits((4, dim), rng))
        detector.tr = 1.0
        return detector

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.lists(
            st.tuples(st.sampled_from(ENGINES), st.sampled_from([2, 3]),
                      st.sampled_from([3, 3, 4])),
            min_size=2, max_size=7,
        ),
        st.data(),
    )
    def test_push_many_matches_solo_push(self, seed, sessions, data):
        dim = 129
        n_ticks = 10
        # Per session and tick: a packet size (0 = no packet this tick,
        # -1 = an empty packet); 16-sample blocks, 32-sample windows.
        sizes = data.draw(st.lists(
            st.lists(st.sampled_from([-1, 0, 5, 16, 21, 48, 70]),
                     min_size=n_ticks, max_size=n_ticks),
            min_size=len(sessions), max_size=len(sessions),
        ))
        restore_at = data.draw(st.integers(1, n_ticks - 1))
        retune = data.draw(st.tuples(
            st.integers(0, len(sessions) - 1), st.integers(1, n_ticks - 1),
            st.sampled_from([0.0, 2.0, 5.0]),
        ))
        manager = StreamSessionManager()
        solo = {}
        signals = {}
        for i, (variant, n_electrodes, lbp_length) in enumerate(sessions):
            sid = f"s{i}"
            args = (variant, dim, n_electrodes, lbp_length, seed + i)
            manager.open(sid, self._detector(*args))
            solo[sid] = StreamingLaelaps(self._detector(*args))
            signals[sid] = _signal(np.random.default_rng(seed + 99 + i),
                                   25.0, n_electrodes)
        position = dict.fromkeys(solo, 0)
        history = {sid: [] for sid in solo}
        retuned_from = None
        for tick in range(n_ticks):
            if tick == restore_at:
                restored = StreamSessionManager()
                for sid in manager.session_ids:
                    restored.import_session(sid, manager.export_session(sid))
                manager = restored
            if tick == retune[1]:
                sid = f"s{retune[0]}"
                manager.session(sid).detector.tr = retune[2]
                solo[sid].detector.tr = retune[2]
                retuned_from = len(history[sid])
            chunks = {}
            for i, sid in enumerate(solo):
                size = sizes[i][tick]
                if size:
                    n = max(size, 0)
                    chunks[sid] = signals[sid][position[sid]:position[sid] + n]
                    position[sid] += n
            fleet_events = manager.push_many(chunks)
            assert list(fleet_events) == list(chunks)
            for sid, chunk in chunks.items():
                expected = solo[sid].push(chunk)
                assert fleet_events[sid] == expected
                history[sid].extend(fleet_events[sid])
        for sid, stream in solo.items():
            fleet_stream = manager.session(sid)
            assert fleet_stream.windows_emitted == stream.windows_emitted
        # The alarms follow an independent oracle too: the batch vote
        # over the whole label stream at the t_r in force per window.
        for sid, events in history.items():
            labels = np.array([e.label for e in events], dtype=np.int64)
            deltas = np.array([e.delta for e in events])
            flags = alarm_flags(labels, deltas, postprocess_len=3, tc=2,
                                tr=1.0)
            if sid == f"s{retune[0]}" and retuned_from is not None:
                flags[retuned_from:] = alarm_flags(
                    labels, deltas, postprocess_len=3, tc=2, tr=retune[2]
                )[retuned_from:]
            rising = flags & ~np.concatenate([[False], flags[:-1]])
            assert [e.alarm for e in events] == rising.tolist()
