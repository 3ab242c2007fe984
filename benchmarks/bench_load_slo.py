"""Load harness with latency SLOs: the perf-trajectory instrument.

Drives :class:`~repro.serve.loadgen.LoadGenerator` — many concurrent
clocked-source patient sessions against a
:class:`~repro.serve.ShardedStreamGateway` — and serialises the result
to the versioned benchmark-record schema
(:mod:`repro.evaluation.benchrec`).  The committed repo-root
``BENCH_load_slo.json`` is this bench's full-mode output on the
recording host; re-running the bench refreshes it (see
``docs/benchmarking.md``).

Every run is also an **SLO check**: when a committed baseline exists,
the fresh record is compared against it and the per-metric deltas are
printed.  The comparison is report-only by default (runner shapes
vary); schema violations and emit failures are always hard errors, and
setting ``REPRO_SLO_ENFORCE=1`` additionally asserts the throughput /
p99-latency floors below — gated through
:func:`benchmarks._gating.gate_speedup` on the *baseline host's* core
count, so a smaller machine reports instead of failing.

Run directly with ``pytest benchmarks/bench_load_slo.py -s``;
``--smoke`` shrinks the fleet for the CI ``perf-trajectory`` job and
writes the record to ``BENCH_load_slo.smoke.json`` instead of the
committed baseline.  ``REPRO_BENCH_RECORD`` overrides the output path
either way.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks._gating import gate_speedup, usable_cores
from benchmarks.conftest import smoke_mode
from repro.hdc.engine import engine_names
from repro.serve import loadgen
from repro.serve.loadgen import LoadConfig, run_load_test

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The committed perf-trajectory baseline this bench writes/compares.
BASELINE_PATH = REPO_ROOT / "BENCH_load_slo.json"
#: Opt-in SLO floors (fresh vs baseline): throughput may drop to 2/3,
#: p99 tick latency may grow to 1.5x, before the enforced check fails.
SLO_THROUGHPUT_FLOOR = 0.67
SLO_P99_FLOOR = 0.67


#: The CI smoke fleet: small enough for any host.
SMOKE_CONFIG = LoadConfig(
    n_sessions=8,
    n_electrodes=8,
    dim=256,
    n_ticks=12,
    warmup_ticks=3,
    n_workers=2,
    mode="inline",
    seed=1,
)


def _config() -> LoadConfig:
    if smoke_mode():
        return SMOKE_CONFIG
    cores = usable_cores()
    # Enough measured ticks to resolve every reported tail percentile:
    # nearest-rank p99.9 needs min_samples_for_percentile(99.9) = 1001
    # samples, below which p99 == p99.9 == max and the record tracks a
    # degenerate tail (the harness warns in that case).
    return LoadConfig(
        n_sessions=256,
        n_electrodes=16,
        dim=2_000,
        n_ticks=1_024,
        warmup_ticks=8,
        n_workers=4 if cores >= 4 else 2,
        mode="process" if cores >= 4 else "inline",
        seed=1,
    )


def _output_path() -> Path:
    override = os.environ.get("REPRO_BENCH_RECORD")
    if override:
        return Path(override)
    if smoke_mode():
        return REPO_ROOT / "BENCH_load_slo.smoke.json"
    return BASELINE_PATH


@pytest.mark.parametrize("backend", engine_names())
def test_record_names_the_engine_that_ran(backend, monkeypatch):
    built: list[str] = []

    class Spy(loadgen.LaelapsDetector):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self.backend)

    monkeypatch.setattr(loadgen, "LaelapsDetector", Spy)
    report = run_load_test(replace(SMOKE_CONFIG, backend=backend))
    assert built
    assert {report.engine} == set(built) == {backend}
    assert report.record("load_slo").engine == report.engine


def test_load_slo_trajectory():
    from repro.evaluation.benchrec import (
        read_record,
        render_comparison,
        write_record,
    )

    config = _config()
    report = run_load_test(config, progress=lambda m: print(f"[load slo] {m}"))
    metrics = report.metrics

    # Harness invariants — these hold on any host, so they hard-fail.
    assert metrics["dropped_sessions"] == 0, (
        f"{metrics['dropped_sessions']:.0f} sessions produced no events"
    )
    assert (
        metrics["tick_latency_p50_ms"]
        <= metrics["tick_latency_p99_ms"]
        <= metrics["tick_latency_p99_9_ms"]
    )
    assert metrics["throughput_windows_per_s"] > 0
    # One drain per cycle against a bounded queue: backpressure must
    # begin exactly one chunk past the queue bound.
    assert metrics["backpressure_onset_chunks"] == config.max_pending + 1

    out = _output_path()
    write_record(report.record("load_slo"), out)
    fresh = read_record(out)  # emit/schema gate: always enforced
    print(
        f"\n[load slo] {config.n_sessions} sessions x {config.n_ticks} "
        f"ticks on {config.n_workers} {config.mode} workers "
        f"({report.engine}): p50 {metrics['tick_latency_p50_ms']:.2f} ms, "
        f"p99 {metrics['tick_latency_p99_ms']:.2f} ms, p99.9 "
        f"{metrics['tick_latency_p99_9_ms']:.2f} ms, "
        f"{metrics['throughput_windows_per_s']:,.0f} windows/s, "
        f"backpressure onset {metrics['backpressure_onset_chunks']:.0f} "
        f"chunks, worker-cycle recovery "
        f"{metrics.get('worker_cycle_recovery_s', float('nan')):.3f} s"
    )
    print(f"[load slo] record written to {out}")

    if not BASELINE_PATH.exists() or out.resolve() == BASELINE_PATH.resolve():
        return
    baseline = read_record(BASELINE_PATH)  # schema errors hard-fail
    print(render_comparison(baseline, fresh))
    if os.environ.get("REPRO_SLO_ENFORCE") != "1":
        print("[load slo] deltas are report-only (REPRO_SLO_ENFORCE!=1)")
        return
    baseline_cores = int(baseline.machine.get("cpu_count", 1))
    gate_speedup(
        fresh.metrics["throughput_windows_per_s"]
        / baseline.metrics["throughput_windows_per_s"],
        SLO_THROUGHPUT_FLOOR,
        min_cores=baseline_cores,
        label="load slo",
        detail="fresh throughput vs committed baseline",
    )
    gate_speedup(
        baseline.metrics["tick_latency_p99_ms"]
        / fresh.metrics["tick_latency_p99_ms"],
        SLO_P99_FLOOR,
        min_cores=baseline_cores,
        label="load slo",
        detail="fresh p99 tick latency vs committed baseline",
    )
