"""Tests for repro.hdc.native (the numba kernels of the packed engine).

The kernels run in every environment: with numba installed they
exercise the JIT-compiled parallel path (the ``native-engine`` CI job),
without it the pure-Python twins of the exact same code.  Bit-exactness
is asserted against the numpy implementations either way.
"""

import importlib
import os

import numpy as np
import pytest

import repro.hdc.engine as engine_module
import repro.hdc.native as native_module
from repro.cli import main
from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.hdc.associative import grouped_classify_packed
from repro.hdc.backend import pack_bits, popcount_words, random_bits
from repro.hdc.bitsliced import (
    bitsliced_counts,
    plane_depth,
    planes_to_counts,
)
from repro.hdc.engine import (
    AUTO_ENGINE,
    PACKED_ENGINE,
    PackedEngine,
    build_engine,
    resolve_engine_name,
)
from repro.hdc.item_memory import ItemMemory
from repro.hdc.native import (
    NATIVE_THREADS_ENV,
    NativeSpatialEncoder,
    NativeTemporalEncoder,
    apply_native_threads,
    configure_native_threads,
    grouped_classify_packed_native,
    native_bitsliced_counts,
    native_bundle_exceeds,
    numba_available,
    requested_native_threads,
    sweep_classify_packed,
)
from repro.hdc.spatial_packed import PackedSpatialEncoder
from repro.hdc.temporal_packed import PackedTemporalEncoder
from repro.signal.windows import WindowSpec

# These tests always run (the pure-Python twins back them on
# numba-free hosts); the marker lets the CI native-engine job select
# exactly this surface with `-m native`.
pytestmark = pytest.mark.native

SPEC = WindowSpec.from_seconds(1.0, 0.5, 32.0)


def _select_kernels(monkeypatch, numba_kernels: bool) -> None:
    """Patch the single kernel-selection point of the packed engine."""
    monkeypatch.setattr(
        engine_module, "use_native_kernels", lambda: numba_kernels
    )


@pytest.fixture()
def native_kernels(monkeypatch):
    """Build packed engines on the native kernels (twins without numba)."""
    _select_kernels(monkeypatch, True)


def _packed_engine(dim: int = 100) -> PackedEngine:
    return build_engine(
        PACKED_ENGINE,
        ItemMemory(8, dim, seed=1),
        ItemMemory(4, dim, seed=2),
        SPEC,
    )


def _random_words(shape, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=shape, dtype=np.uint64)


class TestSweepKernel:
    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 200])
    def test_matches_numpy_sweep(self, dim):
        rng = np.random.default_rng(dim)
        queries = pack_bits(random_bits((9, dim), rng))
        protos = pack_bits(random_bits((4, dim), rng))
        best, dists = sweep_classify_packed(queries, protos)
        ref = popcount_words(
            queries[:, None, :] ^ protos[None, :, :]
        ).sum(axis=-1, dtype=np.int64)
        np.testing.assert_array_equal(dists, ref)
        np.testing.assert_array_equal(best, ref.argmin(axis=1))

    def test_ties_go_to_earliest_stored_prototype(self):
        queries = np.zeros((1, 1), dtype=np.uint64)
        # Both prototypes are 2 bits away; np.argmin picks index 0.
        protos = np.array([[0b0011], [0b1100]], dtype=np.uint64)
        best, dists = sweep_classify_packed(queries, protos)
        assert dists.tolist() == [[2, 2]]
        assert best.tolist() == [0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="prototypes"):
            sweep_classify_packed(
                np.zeros((2, 3), dtype=np.uint64),
                np.zeros((2, 4), dtype=np.uint64),
            )
        with pytest.raises(ValueError, match="at least one prototype"):
            sweep_classify_packed(
                np.zeros((2, 3), dtype=np.uint64),
                np.zeros((0, 3), dtype=np.uint64),
            )

    def test_grouped_matches_reference(self):
        rng = np.random.default_rng(7)
        dim = 130
        stack = pack_bits(random_bits((3 * 2, dim), rng)).reshape(3, 2, -1)
        label_table = np.array(
            [[10, 20], [30, 40], [50, 60]], dtype=np.int64
        )
        owners = np.array([0, 2, 1, 0, 2])
        queries = pack_bits(random_bits((5, dim), rng))
        labels, dists = grouped_classify_packed_native(
            queries, stack, owners, label_table
        )
        ref_labels, ref_dists = grouped_classify_packed(
            queries, stack, owners, label_table
        )
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(dists, ref_dists)

    def test_grouped_kernel_hook_is_the_native_twin(self, monkeypatch):
        _select_kernels(monkeypatch, True)
        assert (
            _packed_engine().grouped_kernel is grouped_classify_packed_native
        )
        _select_kernels(monkeypatch, False)
        assert _packed_engine().grouped_kernel is grouped_classify_packed


class TestBundlingKernels:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11])
    def test_counts_match_reference(self, k):
        masks = _random_words((k, 3), seed=k)
        dim = 3 * 64
        np.testing.assert_array_equal(
            planes_to_counts(native_bitsliced_counts(masks), dim),
            planes_to_counts(bitsliced_counts(masks), dim),
        )

    def test_counts_keep_batch_shape(self):
        masks = _random_words((5, 4, 2), seed=0)
        planes = native_bitsliced_counts(masks)
        assert planes.shape == (plane_depth(5), 4, 2)

    def test_counts_reject_empty_stack(self):
        with pytest.raises(ValueError, match="empty"):
            native_bitsliced_counts(np.zeros((0, 3), dtype=np.uint64))

    @pytest.mark.parametrize("threshold", [-1, 0, 3, 5, 6, 11, 12, 64])
    def test_bundle_exceeds_matches_bit_counts(self, threshold):
        k = 11
        masks = _random_words((k, 4), seed=threshold + 100)
        got = native_bundle_exceeds(masks, threshold)
        for word in range(4):
            for bit in range(64):
                count = sum(
                    int((int(masks[t, word]) >> bit) & 1) for t in range(k)
                )
                expected = count > threshold
                assert bool((int(got[word]) >> bit) & 1) == expected, (
                    f"word {word} bit {bit}: count {count}, "
                    f"threshold {threshold}"
                )


class TestNativeEncoders:
    def test_spatial_matches_packed(self):
        cm = ItemMemory(8, 130, seed=1)
        em = ItemMemory(5, 130, seed=2)
        ref = PackedSpatialEncoder(cm, em)
        nat = NativeSpatialEncoder(cm, em)
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 8, size=(17, 5))
        np.testing.assert_array_equal(
            nat.encode_packed(codes), ref.encode_packed(codes)
        )

    def test_spatial_validates_like_packed(self):
        cm = ItemMemory(8, 64, seed=1)
        em = ItemMemory(4, 64, seed=2)
        nat = NativeSpatialEncoder(cm, em)
        with pytest.raises(ValueError, match="expected"):
            nat.encode_packed(np.zeros((3, 7), dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            nat.encode_packed(np.full((3, 4), 9))
        assert nat.encode_packed(
            np.zeros((0, 4), dtype=np.int64)
        ).shape == (0, 1)

    def test_temporal_matches_packed(self):
        cm = ItemMemory(8, 129, seed=1)
        em = ItemMemory(4, 129, seed=2)
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 8, size=(5 * 32, 4))
        ref = PackedTemporalEncoder(PackedSpatialEncoder(cm, em), SPEC)
        nat = NativeTemporalEncoder(NativeSpatialEncoder(cm, em), SPEC)
        np.testing.assert_array_equal(nat.feed(codes), ref.feed(codes))


class TestAvailability:
    """The packed engine picks its kernels by numba's availability."""

    def test_numpy_kernels_without_numba(self, monkeypatch):
        monkeypatch.setattr(
            native_module, "_NUMBA_IMPORT_ERROR", "No module named 'numba'"
        )
        engine = _packed_engine()
        assert type(engine) is PackedEngine
        assert engine.native is False
        assert type(engine.spatial) is PackedSpatialEncoder
        assert type(engine.temporal_encoder()) is PackedTemporalEncoder
        assert engine.grouped_kernel is grouped_classify_packed
        assert resolve_engine_name(AUTO_ENGINE) == PACKED_ENGINE

    def test_auto_prefers_native_with_real_numba(self, monkeypatch):
        monkeypatch.setattr(native_module, "_NUMBA_IMPORT_ERROR", None)
        assert engine_module.use_native_kernels() is True
        assert resolve_engine_name(AUTO_ENGINE) == PACKED_ENGINE

    def test_patched_selection_builds_the_native_kernels(
        self, native_kernels
    ):
        # Kernels are attributes, not subclasses: the engine stays
        # exactly the registered class on either kernel set.
        engine = _packed_engine()
        assert type(engine) is PackedEngine
        assert engine.native is True
        assert type(engine.spatial) is NativeSpatialEncoder
        assert type(engine.temporal_encoder()) is NativeTemporalEncoder
        assert engine.grouped_kernel is grouped_classify_packed_native
        assert resolve_engine_name(AUTO_ENGINE) == PACKED_ENGINE

    def test_backends_cli_reports_unavailability(self, monkeypatch, capsys):
        monkeypatch.setattr(
            native_module, "_NUMBA_IMPORT_ERROR", "No module named 'numba'"
        )
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "'packed' runs on this host on numpy kernels" in out
        assert "No module named 'numba'" in out
        assert "Fused" not in out and "Avail" not in out

    def test_backends_cli_silent_when_available(self, monkeypatch, capsys):
        monkeypatch.setattr(native_module, "_NUMBA_IMPORT_ERROR", None)
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "'packed' runs on this host on numba kernels." in out
        assert "numpy kernels" not in out


class TestNumbaAbsentReload:
    def test_module_degrades_without_numba(self):
        """Reload the module with the numba import forcibly failing."""
        import builtins

        real_import = builtins.__import__

        def no_numba(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("No module named 'numba' (forced by test)")
            return real_import(name, *args, **kwargs)

        builtins.__import__ = no_numba
        try:
            importlib.reload(native_module)
            assert native_module.numba_available() is False
            assert "forced by test" in (
                native_module.numba_unavailable_reason() or ""
            )
            assert native_module.prange is range
            # The identity decorator keeps the kernels callable...
            best, dists = native_module.sweep_classify_packed(
                np.array([[5]], dtype=np.uint64),
                np.array([[0], [5]], dtype=np.uint64),
            )
            assert best.tolist() == [1]
            assert dists.tolist() == [[2, 0]]
            # ...threads pin to 1, and packed falls back to numpy.
            assert native_module.apply_native_threads(4) == 1
            assert engine_module.use_native_kernels() is False
            assert _packed_engine().native is False
            assert resolve_engine_name(AUTO_ENGINE) == PACKED_ENGINE
        finally:
            builtins.__import__ = real_import
            importlib.reload(native_module)


class TestThreadKnob:
    def test_unset_means_numba_default(self, monkeypatch):
        monkeypatch.delenv(NATIVE_THREADS_ENV, raising=False)
        assert requested_native_threads() == 0

    def test_parses_the_env_value(self, monkeypatch):
        monkeypatch.setenv(NATIVE_THREADS_ENV, " 3 ")
        assert requested_native_threads() == 3

    @pytest.mark.parametrize("bad", ["two", "-1", "1.5"])
    def test_rejects_bad_values(self, monkeypatch, bad):
        monkeypatch.setenv(NATIVE_THREADS_ENV, bad)
        with pytest.raises(ValueError, match=NATIVE_THREADS_ENV):
            requested_native_threads()

    def test_configure_writes_env_for_worker_children(self, monkeypatch):
        monkeypatch.setenv(NATIVE_THREADS_ENV, "0")  # records the original
        configure_native_threads(2)
        assert os.environ[NATIVE_THREADS_ENV] == "2"

    def test_configure_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            configure_native_threads(-1)

    def test_apply_clamps_to_launch_maximum(self):
        effective = apply_native_threads(10_000)
        if numba_available():
            assert 1 <= effective <= 10_000
        else:
            assert effective == 1
        apply_native_threads(0)

    def test_engine_records_effective_threads(
        self, native_kernels, monkeypatch
    ):
        monkeypatch.setenv(NATIVE_THREADS_ENV, "2")
        engine = _packed_engine()
        if numba_available():
            assert engine.threads >= 1
        else:
            assert engine.threads == 1

    def test_results_are_thread_count_invariant(self):
        queries = _random_words((8, 3), seed=1)
        protos = _random_words((3, 3), seed=2)
        masks = _random_words((9, 3), seed=3)
        baseline = None
        try:
            for n in (1, 2, 4):
                apply_native_threads(n)
                best, dists = sweep_classify_packed(queries, protos)
                bundle = native_bundle_exceeds(masks, 4)
                if baseline is None:
                    baseline = (best, dists, bundle)
                else:
                    np.testing.assert_array_equal(best, baseline[0])
                    np.testing.assert_array_equal(dists, baseline[1])
                    np.testing.assert_array_equal(bundle, baseline[2])
        finally:
            apply_native_threads(0)


class TestEngineParity:
    def test_full_pipeline_matches_numpy_kernels(self, monkeypatch):
        rng = np.random.default_rng(11)
        signal = rng.standard_normal((3 * 128, 4))
        predictions = {}
        for numba_kernels in (False, True):
            _select_kernels(monkeypatch, numba_kernels)
            detector = LaelapsDetector(
                4, LaelapsConfig(dim=129, fs=128.0, seed=5,
                                 backend=PACKED_ENGINE)
            )
            assert detector.engine.native is numba_kernels
            detector.fit_from_windows(
                random_bits((3, 129), np.random.default_rng(1)),
                random_bits((3, 129), np.random.default_rng(2)),
            )
            predictions[numba_kernels] = detector.predict(signal)
        numpy_preds, nat = predictions[False], predictions[True]
        assert len(nat) > 0
        np.testing.assert_array_equal(nat.labels, numpy_preds.labels)
        np.testing.assert_array_equal(nat.distances, numpy_preds.distances)
