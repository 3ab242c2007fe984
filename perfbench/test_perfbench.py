"""Tests of the benchmark's own arithmetic and bookkeeping.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.  None of these runs a workload.
"""

from __future__ import annotations

import itertools

import fleet
import measure
import numpy as np
import pytest
from spans import (
    Span,
    Tracer,
    coverage_pct,
    layer_totals,
    overhead_pct,
    overlap_s,
    self_times,
)


def _clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


class TestSelfTime:
    def test_nested_and_sibling_spans(self):
        spans = [
            Span("root", 0.0, 10.0, -1, 0),
            Span("a", 1.0, 3.0, 0, 0),
            Span("b", 4.0, 8.0, 0, 0),
            Span("c", 5.0, 6.0, 2, 0),
        ]
        assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]
        # Self times partition the root: nothing counted twice.
        assert sum(self_times(spans)) == spans[0].duration

    def test_root_siblings_keep_their_whole_duration(self):
        spans = [Span("x", 0.0, 2.0, -1, 0), Span("y", 3.0, 7.0, -1, 1)]
        assert self_times(spans) == [2.0, 4.0]

    def test_layer_totals_filter_by_time_window(self):
        spans = [
            Span("gw", 0.0, 4.0, -1, 0, work=3),
            Span("worker", 1.0, 2.0, 0, 0),
            Span("gw", 5.0, 6.0, -1, 1, work=5, error=True),
        ]
        # The second tick straddles the window's end: left out whole.
        totals = layer_totals(spans, window=(0.0, 5.5))
        assert totals["gw"].busy == 4.0
        assert totals["gw"].self == 3.0
        assert totals["gw"].work == 3
        assert totals["gw"].errors == 0
        everything = layer_totals(spans)
        assert everything["gw"].calls == 2
        assert everything["gw"].errors == 1


class TestTracer:
    def test_wrapped_calls_nest_and_same_layer_calls_merge(self):
        tracer = Tracer(clock=_clock(*range(100)))

        class Layer:
            def outer(self, n):
                return self.inner(n) + self.again(n)

            def inner(self, n):
                return n

            def again(self, n):
                return self.inner(n)

        tracer.wrap(Layer, "outer", "up", work=lambda a, k, r: r)
        tracer.wrap(Layer, "inner", "down")
        tracer.wrap(Layer, "again", "down")
        assert Layer().outer(2) == 4
        names = [span.name for span in tracer.spans]
        # ``again`` calling ``inner`` stays one "down" span.
        assert names == ["up", "down", "down"]
        assert [span.parent for span in tracer.spans] == [-1, 0, 0]
        assert tracer.spans[0].work == 4
        tracer.restore()
        assert "outer" in vars(Layer) and Layer.outer.__name__ == "outer"
        Layer().outer(1)
        assert len(tracer.spans) == 3

    def test_wrap_inherited_staticmethod_and_restore(self):
        tracer = Tracer()

        class Base:
            kernel = staticmethod(lambda x: x + 1)

        class Child(Base):
            pass

        tracer.wrap(Child, "kernel", "k")
        assert Child().kernel(1) == 2
        assert tracer.spans[0].name == "k"
        tracer.restore()
        assert "kernel" not in vars(Child)

    def test_errors_are_recorded_on_the_span(self):
        tracer = Tracer()

        def boom():
            raise ValueError("x")

        wrapped = tracer.traced("serve.service", boom)
        with pytest.raises(ValueError):
            wrapped()
        assert tracer.spans[0].error
        assert tracer.innermost() is None


class TestCoverageAndOverhead:
    def test_coverage(self):
        assert coverage_pct(9.0, 10.0) == pytest.approx(90.0)

    def test_overlap_counts_shared_time_once(self):
        assert overlap_s([(0.0, 10.0)], [(1.0, 3.0), (2.0, 6.0)]) == 5.0
        assert overlap_s([(0.0, 2.0), (4.0, 6.0)], [(1.0, 5.0)]) == 2.0
        assert overlap_s([(0.0, 1.0)], [(1.0, 2.0)]) == 0.0
        assert overlap_s([], [(0.0, 1.0)]) == 0.0

    def test_collect_wait_without_shard_work_is_not_explained(self):
        service = [
            Span("serve.gateway", 0.0, 10.0, -1, 0),
            Span("serve.worker.collect", 2.0, 10.0, 0, 0),
            Span("serve.worker.collect", 12.0, 14.0, -1, 1),
        ]
        shard_a = [Span("core.sessions", 1.0, 5.0, -1, 0),
                   Span("lbp", 1.5, 2.5, 0, 0)]
        shard_b = [Span("core.sessions", 4.0, 7.0, -1, 0)]
        # Shards cover 2..7 of the 2..10 wait; the second collect lies
        # outside the window.
        assert fleet.shard_explained_s(
            service, [shard_a, shard_b], (0.0, 11.0)) == 5.0

    def test_overhead(self):
        assert overhead_pct(11.0, 10.0) == pytest.approx(10.0)
        assert overhead_pct(9.5, 10.0) == pytest.approx(-5.0)

    @pytest.mark.parametrize("func", [coverage_pct, overhead_pct])
    def test_needs_positive_reference(self, func):
        with pytest.raises(ValueError):
            func(1.0, 0.0)


class TestPercentiles:
    def test_nearest_rank_is_the_load_harness_function(self, monkeypatch):
        from repro.serve import loadgen

        calls = []

        def spy(samples, p):
            calls.append((list(samples), p))
            return 7.0

        monkeypatch.setattr(loadgen, "nearest_rank_percentile", spy)
        assert measure.latency_percentile_ms([1.0, 2.0], 0, 99) == 7.0
        assert calls == [([1.0, 2.0], 99)]

    def test_nearest_rank_values(self):
        samples = [float(v) for v in range(1, 101)]
        assert measure.latency_percentile_ms(samples, 0, 50) == 50.0
        assert measure.latency_percentile_ms(samples, 0, 99) == 99.0

    def test_failed_request_misses_every_limit(self):
        assert measure.latency_percentile_ms(
            [5.0], 1, 99) == measure.MISSED_LIMIT_MS
        assert measure.latency_percentile_ms([5.0], 1, 50) == 5.0
        samples = [float(v) for v in range(1, 101)]
        # Two failures among 102 samples push p99 onto a failure.
        assert measure.latency_percentile_ms(
            samples, 2, 99) == measure.MISSED_LIMIT_MS
        assert measure.latency_percentile_ms(samples, 2, 50) == 51.0


class TestMedianTimed:
    def test_discards_every_result_but_the_last(self):
        made = iter(range(10))
        discarded = []
        median_s, last = measure.median_timed(
            3, lambda: next(made), discard=discarded.append
        )
        assert last == 2 and discarded == [0, 1]
        assert median_s >= 0.0


class TestEngineLabel:
    def test_recorded_engine_is_the_detector_backend(self):
        from repro.core.config import LaelapsConfig
        from repro.core.detector import LaelapsDetector
        from repro.hdc.engine import resolve_engine_name

        for backend in ("auto", "unpacked"):
            detector = LaelapsDetector(
                4, LaelapsConfig(dim=128, fs=256.0, backend=backend)
            )
            assert measure.recorded_engine(detector) == detector.backend
            assert detector.backend == detector.engine.name
        # The mislabel the recorder guards against: a detector built
        # with the default config does not run what "auto" names.
        if resolve_engine_name("auto") != "unpacked":
            assert measure.recorded_engine(detector) != resolve_engine_name(
                "auto")

    def test_engine_runs_checks_the_engine_object(self):
        from repro.core.config import LaelapsConfig
        from repro.core.detector import LaelapsDetector

        detector = LaelapsDetector(
            4, LaelapsConfig(dim=128, fs=256.0, backend="unpacked")
        )
        assert measure.engine_runs(detector.engine, "unpacked")
        assert not measure.engine_runs(detector.engine, "packed")
        assert not measure.engine_runs(detector.engine, "auto")


class TestFleetSchedule:
    def test_window_completions_spread_evenly_across_rounds(self):
        stream = fleet.Packets(seed=0)
        packets, completes = stream.round(first=True)
        assert completes == fleet.N_SESSIONS
        for _ in range(12):
            packets, completes = stream.round()
            assert completes == fleet.N_SESSIONS // 4
        assert all(p.shape == (fleet.PACKET_SAMPLES, fleet.N_ELECTRODES)
                   for p in packets.values())

    def test_windows_after_matches_a_stream(self):
        from repro.core.config import LaelapsConfig
        from repro.core.detector import LaelapsDetector
        from repro.core.streaming import StreamingLaelaps
        from repro.data.synthetic import ClockedEEGSource

        detector = LaelapsDetector(2, LaelapsConfig(dim=128, fs=fleet.FS))
        detector.memory.store(0, np.zeros(128, dtype=np.uint8))
        detector.memory.store(1, np.ones(128, dtype=np.uint8))
        stream = StreamingLaelaps(detector)
        source = ClockedEEGSource(2, fleet.FS, seed=3)
        total = 0
        for n in itertools.islice(itertools.cycle((32, 7, 300)), 20):
            total += n
            stream.push(source.next_chunk(n))
            assert stream.windows_emitted == fleet.windows_after(total)
