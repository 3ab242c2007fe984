"""Tests for the fork-parallel block encoding (repro.hdc.parallel).

The parallel path is forced by pretending three CPUs are usable and
dropping the work threshold to zero; it must then match the serial
path bit-exactly.  The serial reference runs with the threshold out of
reach and ``os.fork`` patched to raise, so a test can never compare
the fork path against itself.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.core.training import TrainingSegments
from repro.hdc import parallel, temporal
from repro.hdc.engine import PACKED_ENGINE, UNPACKED_ENGINE, build_engine
from repro.hdc.item_memory import ItemMemory
from repro.hdc.native import NativeSpatialEncoder, NativeTemporalEncoder
from repro.hdc.parallel import ForkWorkerError, fork_map
from repro.signal.windows import WindowSpec

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the parallel path needs os.fork"
)

DIM = 256
N_ELECTRODES = 8
N_CODES = 64
SPEC = WindowSpec(window_samples=32, step_samples=16)
STEP = SPEC.step_samples
# "packed-fused" is a retired name that resolves to packed; it stays in
# the sweep so configs carrying it keep the bit-exact parallel path.
ENGINES = (UNPACKED_ENGINE, PACKED_ENGINE, "packed-fused")


def _no_fork():
    raise AssertionError("os.fork was called")


@pytest.fixture()
def forks(monkeypatch):
    """Force the fork path; returns the list of forked child pids."""
    real_fork = os.fork
    pids: list[int] = []

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(parallel, "_usable_cpus", lambda: [0, 1, 2])
    monkeypatch.setattr(parallel, "FORK_MIN_BYTES", 0)
    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


def _engine(name):
    return build_engine(
        name, ItemMemory(N_CODES, DIM, seed=1),
        ItemMemory(N_ELECTRODES, DIM, seed=2), SPEC,
    )


def _encode(engine, codes):
    return _engine(engine).temporal_encoder().encode_all(codes)


def _codes(n_samples, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, N_CODES, (n_samples, N_ELECTRODES))


def _serial(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "FORK_MIN_BYTES", 1 << 62)
        patch.setattr(os, "fork", _no_fork)
        return run()


def _stream(encoder, codes, cuts):
    """Feed ``codes`` cut at ``cuts``; every output plus the pending."""
    bounds = [0, *cuts, codes.shape[0]]
    outs = [encoder.feed(codes[a:b]) for a, b in zip(bounds, bounds[1:])]
    return np.concatenate(outs), encoder.state_dict()["pending"]


class TestBitExact:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 7])
    def test_whole_blocks(self, engine, n_blocks, forks, monkeypatch):
        codes = _codes(n_blocks * STEP, seed=n_blocks)
        expected = _serial(
            monkeypatch, lambda: _encode(engine, codes)
        )
        got = _encode(engine, codes)
        np.testing.assert_array_equal(got, expected)
        assert len(forks) == min(3, n_blocks) - 1
        _assert_reaped(forks)

    def test_long_feed_runs_in_rounds(self, forks, monkeypatch):
        monkeypatch.setattr(temporal, "_ROUND_BLOCKS", 3)
        codes = _codes(7 * STEP + 3, seed=8)
        expected = _serial(
            monkeypatch, lambda: _encode(UNPACKED_ENGINE, codes)
        )
        np.testing.assert_array_equal(
            _encode(UNPACKED_ENGINE, codes), expected
        )
        assert len(forks) == 2 + 2  # rounds of 3, 3 and 1 blocks

    @pytest.mark.parametrize("engine", ENGINES)
    def test_chunks_ending_mid_block(self, engine, forks, monkeypatch):
        codes = _codes(11 * STEP + 5, seed=3)
        cuts = [STEP // 2, 4 * STEP + 3, 9 * STEP - 1]
        out_s, pending_s = _serial(
            monkeypatch,
            lambda: _stream(_engine(engine).temporal_encoder(), codes, cuts),
        )
        out_f, pending_f = _stream(
            _engine(engine).temporal_encoder(), codes, cuts
        )
        np.testing.assert_array_equal(out_f, out_s)
        np.testing.assert_array_equal(pending_f, pending_s)
        assert forks

    @pytest.mark.parametrize("engine", ENGINES)
    def test_state_dict_round_trip_mid_stream(
        self, engine, forks, monkeypatch
    ):
        codes = _codes(12 * STEP + 7, seed=4)
        cut = 5 * STEP + 9
        expected = _serial(
            monkeypatch,
            lambda: _engine(engine).temporal_encoder().feed(codes),
        )
        first = _engine(engine).temporal_encoder()
        head = first.feed(codes[:cut])
        resumed = _engine(engine).temporal_encoder()
        resumed.restore_state(first.state_dict())
        tail = resumed.feed(codes[cut:])
        np.testing.assert_array_equal(
            np.concatenate([head, tail]), expected
        )
        assert forks

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fit_prototypes_and_detect(
        self, engine, forks, monkeypatch, mini_recording
    ):
        segments = TrainingSegments(
            ictal=((100.0, 110.0),), interictal=(40.0, 60.0)
        )
        data = mini_recording.data[: int(130 * mini_recording.fs)]

        def fit_detect():
            detector = LaelapsDetector(
                mini_recording.n_electrodes,
                LaelapsConfig(dim=DIM, fs=mini_recording.fs, seed=7,
                              backend=engine),
            ).fit(data, segments)
            memory = detector.memory
            return (
                [memory.prototype(label) for label in (0, 1)],
                detector.predict(data[: int(30 * mini_recording.fs)]),
            )

        (protos_s, preds_s) = _serial(monkeypatch, fit_detect)
        protos_f, preds_f = fit_detect()
        for got, want in zip(protos_f, protos_s):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(preds_f.labels, preds_s.labels)
        np.testing.assert_array_equal(preds_f.distances, preds_s.distances)
        assert forks


class TestGuards:
    """With ``os.fork`` patched to raise, each guard must keep it unused."""

    @pytest.fixture()
    def forced(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: [0, 1, 2])
        monkeypatch.setattr(parallel, "FORK_MIN_BYTES", 0)
        monkeypatch.setattr(os, "fork", _no_fork)

    def test_no_fork_while_a_second_thread_is_alive(self, forced):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10.0,))
        other.start()
        try:
            out = _encode(PACKED_ENGINE, _codes(4 * STEP))
        finally:
            release.set()
            other.join(timeout=10.0)
        assert not other.is_alive()
        assert out.shape[0] == 3

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API"
    )
    def test_no_fork_with_single_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(parallel, "FORK_MIN_BYTES", 0)
        monkeypatch.setattr(os, "fork", _no_fork)
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(before)})
        try:
            assert parallel._usable_cpus() == [min(before)]
            out = _encode(PACKED_ENGINE, _codes(4 * STEP))
        finally:
            os.sched_setaffinity(0, before)
        assert out.shape[0] == 3

    def test_no_fork_on_a_one_block_streaming_push(self, forced):
        encoder = _engine(PACKED_ENGINE).temporal_encoder()
        codes = _codes(3 * STEP + 4)
        encoder.feed(codes[:STEP])
        encoder.feed(codes[STEP : 2 * STEP + 4])  # pending + one block
        assert encoder.feed(codes[2 * STEP + 4 :]).shape[0] == 1

    def test_native_encoder_never_forks(self, forced):
        spatial = NativeSpatialEncoder(
            ItemMemory(N_CODES, DIM, seed=1),
            ItemMemory(N_ELECTRODES, DIM, seed=2),
        )
        encoder = NativeTemporalEncoder(spatial, SPEC)
        assert encoder.feed(_codes(3 * STEP)).shape[0] == 2

    def test_fork_oserror_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: [0, 1, 2])
        monkeypatch.setattr(parallel, "FORK_MIN_BYTES", 0)
        calls = []

        def failing_fork():
            calls.append(1)
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", failing_fork)
        fds = _open_fds()
        assert list(fork_map(lambda x: x * x, range(5), 1)) == [
            0, 1, 4, 9, 16
        ]
        assert calls == [1]
        assert _open_fds() == fds

    def test_second_fork_failing_keeps_the_first_child(self, forks,
                                                       monkeypatch):
        counting_fork = os.fork

        def fork_once():
            if forks:
                raise OSError("fork refused")
            return counting_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        assert list(fork_map(lambda x: x + 1, range(7), 1)) == list(
            range(1, 8)
        )
        assert len(forks) == 1
        _assert_reaped(forks)


def _fail_on(bad):
    def fn(item):
        if item == bad:
            raise ValueError(f"bad item {item}")
        return item * 10

    return fn


class TestChildFailure:
    def test_child_exception_reraised_with_its_traceback(self, forks):
        fds = _open_fds()
        with pytest.raises(ValueError, match="bad item 1") as info:
            fork_map(_fail_on(1), list(range(6)), 1)
        cause = info.value.__cause__
        assert isinstance(cause, ForkWorkerError)
        assert "Traceback" in str(cause) and "bad item 1" in str(cause)
        assert len(forks) == 2
        _assert_reaped(forks)
        assert _open_fds() == fds

    def test_parent_exception_reaps_every_child(self, forks):
        fds = _open_fds()
        with pytest.raises(ValueError, match="bad item 5"):
            fork_map(_fail_on(5), list(range(6)), 1)
        _assert_reaped(forks)
        assert _open_fds() == fds

    def test_child_dying_without_a_report_is_a_typed_error(self, forks):
        def die(item):
            if item == 0:
                os._exit(3)
            return item

        fds = _open_fds()
        with pytest.raises(ForkWorkerError, match="exit code 3"):
            fork_map(die, list(range(6)), 1)
        _assert_reaped(forks)
        assert _open_fds() == fds

    def test_unpicklable_child_exception_is_a_typed_error(self, forks):
        class Local(Exception):  # a local class pickle cannot name
            pass

        def fn(item):
            if item == 0:
                raise Local("nope")
            return item

        with pytest.raises(ForkWorkerError, match="Local: nope"):
            fork_map(fn, list(range(3)), 1)
        _assert_reaped(forks)

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API"
    )
    def test_affinity_is_restored(self, forks):
        before = os.sched_getaffinity(0)
        fork_map(lambda x: x, list(range(3)), 1)
        assert os.sched_getaffinity(0) == before


def test_child_resets_signal_handlers_and_wakeup_fd(forks):
    def handler(signum, frame):  # pragma: no cover - must never run
        raise AssertionError("parent handler ran")

    read_fd, write_fd = os.pipe()
    os.set_blocking(write_fd, False)
    old_int = signal.signal(signal.SIGINT, handler)
    old_term = signal.signal(signal.SIGTERM, handler)
    old_fd = signal.set_wakeup_fd(write_fd)
    try:
        def probe(item):
            wakeup = signal.set_wakeup_fd(-1)
            signal.set_wakeup_fd(wakeup)
            return (
                signal.getsignal(signal.SIGINT) is signal.SIG_DFL,
                signal.getsignal(signal.SIGTERM) is signal.SIG_DFL,
                wakeup,
            )

        results = fork_map(probe, list(range(3)), 1)
    finally:
        signal.set_wakeup_fd(old_fd)
        signal.signal(signal.SIGINT, old_int)
        signal.signal(signal.SIGTERM, old_term)
        os.close(read_fd)
        os.close(write_fd)
    # Items 0 and 1 ran in the two children, item 2 in the parent.
    assert results[:2] == [(True, True, -1)] * 2
    assert results[2] == (False, False, write_fd)
