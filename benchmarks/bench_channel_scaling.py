"""Channel scaling of the out-of-core pipeline: 64 to 1024 electrodes.

For each channel count a disk-backed cohort member is synthesised with
:func:`repro.data.outofcore.generate_cohort`, then trained and evaluated
end to end through the *streamed* driver path
(``run_patient(..., chunk_samples=...)``) with real engines.  Two
numbers are recorded per count: decision throughput (windows/s over the
streamed predict sweeps) and peak evaluation memory (tracemalloc, which
counts numpy buffers but not reclaimable memmap pages).  Process peak
RSS (``ru_maxrss``) rides along for context.

The point of the bench is the **RAM-budget contract**: evaluation peak
must stay under ``BUDGET_MB`` at *every* channel count, while the
in-memory path's floor — the batch generator's float64 working array
alone — provably exceeds the budget at high channel counts (recorded
per count as ``c{n}_in_memory_floor_mb``).

The committed repo-root ``BENCH_channel_scaling.json`` is this bench's
full-mode output on the recording host; re-running refreshes it (see
``docs/benchmarking.md``).  ``--smoke`` shrinks the channel grid for
the CI ``perf-trajectory`` job and writes
``BENCH_channel_scaling.smoke.json`` instead.  ``REPRO_BENCH_RECORD``
overrides the output path either way.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

from benchmarks.conftest import bench_dim, smoke_mode
from repro.core.config import LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.data.outofcore import (
    CohortSpec,
    MemberSpec,
    default_member_plans,
    generate_cohort,
)
from repro.data.synthetic import SynthesisParams
from repro.evaluation.runner import run_patient

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The committed perf-trajectory baseline this bench writes/compares.
BASELINE_PATH = REPO_ROOT / "BENCH_channel_scaling.json"
#: Out-of-core evaluation ceiling (matches the acceptance test in
#: ``tests/integration/test_outofcore_memory.py``).
BUDGET_MB = 200.0

FS = 256.0
DURATION_S = 240.0
N_SEIZURES = 2
CHUNK_SAMPLES = 2_048


def _channel_grid() -> tuple[int, ...]:
    if smoke_mode():
        return (16, 32)
    return (64, 128, 256, 512, 1024)


def _output_path() -> Path:
    override = os.environ.get("REPRO_BENCH_RECORD")
    if override:
        return Path(override)
    if smoke_mode():
        return REPO_ROOT / "BENCH_channel_scaling.smoke.json"
    return BASELINE_PATH


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_member(
    n_channels: int, dim: int, root: Path
) -> tuple[dict[str, float], str]:
    """One channel count end to end: its metrics and the engine that ran."""
    spec = CohortSpec(
        f"scaling-{n_channels}",
        (
            MemberSpec(
                "m0",
                n_channels,
                DURATION_S,
                default_member_plans(DURATION_S, N_SEIZURES),
                seed=n_channels,
            ),
        ),
        params=SynthesisParams(fs=FS),
        seed=13,
    )
    t0 = time.perf_counter()
    cohort = generate_cohort(spec, root)
    gen_s = time.perf_counter() - t0
    patient = cohort.member("m0").patient()

    engines: set[str] = set()

    def factory(n_electrodes: int, fs: float) -> LaelapsDetector:
        detector = LaelapsDetector(
            n_electrodes, LaelapsConfig(dim=dim, fs=fs, seed=3)
        )
        engines.add(detector.backend)
        return detector

    gc.collect()
    tracemalloc.start()
    t0 = time.perf_counter()
    run = run_patient(
        factory, patient, method="laelaps", chunk_samples=CHUNK_SAMPLES
    )
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    n_windows = len(run.train_preds) + len(run.test_preds)
    assert n_windows > 0
    n_samples = int(DURATION_S * FS)
    (engine,) = engines
    return {
        "windows_per_s": n_windows / elapsed,
        "eval_peak_mb": peak / 1e6,
        "rss_mb": _rss_mb(),
        "gen_s": gen_s,
        "eval_s": elapsed,
        "in_memory_floor_mb": n_samples * n_channels * 8 / 1e6,
    }, engine


def _measure(channels: tuple[int, ...], dim: int, root: Path):
    """Run every channel count into one record.

    The record names the engine of the detectors that actually ran, not
    what ``auto`` would resolve to: the factory builds the default
    config, whose backend is ``unpacked``.
    """
    from repro.evaluation.benchrec import (
        BenchRecord,
        current_git_sha,
        machine_fingerprint,
    )

    metrics: dict[str, float] = {}
    engines: set[str] = set()
    print(
        f"\n[channel scaling] {DURATION_S:.0f} s @ {FS:.0f} Hz, d={dim}, "
        f"chunk={CHUNK_SAMPLES}, budget {BUDGET_MB:.0f} MB"
    )
    for n_channels in channels:
        row, engine = _run_member(n_channels, dim, root / f"c{n_channels}")
        engines.add(engine)
        for key, value in row.items():
            metrics[f"c{n_channels}_{key}"] = value
        print(
            f"  {n_channels:>5} ch  {row['windows_per_s']:>8,.0f} windows/s  "
            f"eval peak {row['eval_peak_mb']:>6.1f} MB  "
            f"rss {row['rss_mb']:>7.1f} MB  "
            f"(in-memory floor {row['in_memory_floor_mb']:>7.1f} MB)"
        )
        # The RAM-budget contract, enforced at every scale on any host.
        assert row["eval_peak_mb"] < BUDGET_MB, (
            f"{n_channels} ch: streamed eval peak "
            f"{row['eval_peak_mb']:.0f} MB blows the {BUDGET_MB:.0f} MB budget"
        )
    (engine,) = engines
    return BenchRecord(
        name="channel_scaling",
        machine=machine_fingerprint(),
        git_sha=current_git_sha(),
        engine=engine,
        config={
            "channels": list(channels),
            "duration_s": DURATION_S,
            "fs": FS,
            "dim": dim,
            "n_seizures": N_SEIZURES,
            "chunk_samples": CHUNK_SAMPLES,
            "budget_mb": BUDGET_MB,
        },
        metrics=metrics,
    )


def test_record_names_the_engine_that_ran(tmp_path, monkeypatch):
    built: list[str] = []

    class Spy(LaelapsDetector):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self.backend)

    monkeypatch.setattr(sys.modules[__name__], "LaelapsDetector", Spy)
    record = _measure((16,), 64, tmp_path)
    assert built
    assert {record.engine} == set(built)


def test_channel_scaling_trajectory(tmp_path):
    from repro.evaluation.benchrec import (
        read_record,
        render_comparison,
        write_record,
    )

    dim = bench_dim(1_000, smoke=256)
    channels = _channel_grid()
    record = _measure(channels, dim, tmp_path)
    if not smoke_mode():
        # At the top of the grid the in-memory path cannot fit the
        # budget even before encoding a single window.
        assert record.metrics["c1024_in_memory_floor_mb"] > 2 * BUDGET_MB

    out = _output_path()
    write_record(record, out)
    fresh = read_record(out)  # emit/schema gate: always enforced
    print(f"[channel scaling] record written to {out}")

    if not BASELINE_PATH.exists() or out.resolve() == BASELINE_PATH.resolve():
        return
    baseline = read_record(BASELINE_PATH)  # schema errors hard-fail
    print(render_comparison(baseline, fresh))
    print("[channel scaling] deltas are report-only (runner shapes vary)")
