"""Cross-engine benchmark matrix plus the packed engine's fused microbenches.

Two instruments in one file:

* **engine matrix** (``test_engine_matrix_record``) — every registered
  compute engine (the ``unpacked`` oracle and ``packed``), timed on the
  same whole-recording workload at d = 2000 and d = 10000 (the
  golden-model dimension), reported as windows/s and speedup vs the
  unpacked reference, and serialised to the versioned benchmark-record
  schema (:mod:`repro.evaluation.benchrec`).  The record's ``engine``
  names the engines of the detectors actually timed, and the
  ``numba_kernels_available`` metric says which kernels ``packed`` ran
  on.  The committed repo-root ``BENCH_engine_matrix.json`` is this
  bench's full-mode output on the recording host.  On numba-backed
  hosts the matrix also times ``packed`` on its numpy kernels and
  asserts the native floor: the numba kernels at least 3x faster at
  d = 10000 (report-only below 4 cores, see :mod:`benchmarks._gating`).

* **fused microbenches** — the two wins the packed engine's fused paths
  promise over the primitives they replace: the preallocated
  single-window streaming classify vs
  :meth:`~repro.hdc.associative.AssociativeMemory.classify_packed`
  (asserted >= 1.2x where timing is trustworthy) and the fused block
  sweep vs ``encode_all`` followed by ``classify_packed`` (checked
  bit-exact, reported).  Both run ``packed`` on its numpy kernels,
  where the fused paths live in numpy.

Run directly with ``pytest benchmarks/bench_engine_fused.py -s``;
``--smoke`` shrinks the sizes for the CI jobs and writes the matrix
record to ``BENCH_engine_matrix.smoke.json`` instead of the committed
baseline.  ``REPRO_BENCH_RECORD_MATRIX`` overrides the output path
either way.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

import repro.hdc.engine as engine_module
from benchmarks._gating import gate_speedup
from benchmarks.conftest import bench_dim, bench_seconds, smoke_mode
from repro.core.config import GOLDEN_DIM, LaelapsConfig
from repro.core.detector import LaelapsDetector
from repro.hdc.backend import random_bits
from repro.hdc.engine import (
    PACKED_ENGINE,
    UNPACKED_ENGINE,
    engine_names,
    use_native_kernels,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The committed cross-engine matrix baseline this bench writes/compares.
MATRIX_BASELINE_PATH = REPO_ROOT / "BENCH_engine_matrix.json"

DIM = bench_dim(GOLDEN_DIM, smoke=512)
FS = 256.0
N_ELECTRODES = 32
#: Acceptance floor: fused single-window classify vs classify_packed.
MIN_SPEEDUP = 1.2
#: Acceptance floor: packed on the numba kernels vs on its numpy
#: kernels at the golden dimension, asserted only on numba-backed hosts
#: with >= 4 cores.
MIN_NATIVE_SPEEDUP = 3.0
#: Streaming-classify repetitions (single windows, like live ticks).
N_TICKS = 64 if smoke_mode() else 3_000


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _fitted(
    backend: str, dim: int = DIM, native: bool | None = None
) -> LaelapsDetector:
    """A fitted detector; ``native`` forces packed's kernel set."""
    with pytest.MonkeyPatch.context() as patch:
        if native is not None:
            patch.setattr(engine_module, "use_native_kernels", lambda: native)
        detector = LaelapsDetector(
            N_ELECTRODES,
            LaelapsConfig(dim=dim, fs=FS, seed=7, backend=backend),
        )
    detector.fit_from_windows(
        random_bits((4, dim), np.random.default_rng(1)),
        random_bits((4, dim), np.random.default_rng(2)),
    )
    return detector


# ----------------------------------------------------------------------
# The cross-engine matrix
# ----------------------------------------------------------------------


def _matrix_dims() -> tuple[int, ...]:
    return (256,) if smoke_mode() else (2_000, GOLDEN_DIM)


def _matrix_output_path() -> Path:
    override = os.environ.get("REPRO_BENCH_RECORD_MATRIX")
    if override:
        return Path(override)
    if smoke_mode():
        return REPO_ROOT / "BENCH_engine_matrix.smoke.json"
    return MATRIX_BASELINE_PATH


def test_engine_matrix_record():
    """Every registered engine on one workload, recorded as a benchrec."""
    from repro.evaluation.benchrec import (
        BenchRecord,
        current_git_sha,
        machine_fingerprint,
        read_record,
        render_comparison,
        write_record,
    )

    dims = _matrix_dims()
    seconds = bench_seconds(6.0, smoke=2.0)
    repeats = 1 if smoke_mode() else 3
    rng = np.random.default_rng(9)
    signal = rng.standard_normal((int(seconds * FS), N_ELECTRODES))
    numba_kernels = use_native_kernels()
    metrics: dict[str, float] = {
        "numba_kernels_available": 1.0 if numba_kernels else 0.0,
    }
    timed_backends: dict[str, None] = {}  # insertion-ordered set

    times: dict[int, dict[str, float]] = {}
    for dim in dims:
        times[dim] = {}
        reference = None
        # On numba hosts packed also runs on its numpy kernels, for the
        # native floor below.
        variants = [(name, None) for name in engine_names()]
        if numba_kernels:
            variants.append((PACKED_ENGINE, False))
        for engine, native in variants:
            detector = _fitted(engine, dim, native)
            timed_backends[detector.backend] = None
            key = engine if native is None else f"{engine}_numpy_kernels"
            preds = detector.predict(signal)
            assert len(preds) > 0
            if reference is None:
                reference = preds  # the unpacked reference, always first
            else:  # every engine bit-exact before any timing
                np.testing.assert_array_equal(
                    preds.labels, reference.labels
                )
                np.testing.assert_array_equal(
                    preds.distances, reference.distances
                )
            elapsed = _best_of(repeats, lambda d=detector: d.predict(signal))
            times[dim][key] = elapsed
            metrics[f"d{dim}_{key}_windows_per_s"] = len(preds) / elapsed
        for key, elapsed in times[dim].items():
            speedup = times[dim][UNPACKED_ENGINE] / elapsed
            metrics[f"d{dim}_{key}_speedup_vs_unpacked"] = speedup
        print(f"\n[engine matrix] d={dim}, {seconds:.0f} s of signal "
              f"(packed on {'numba' if numba_kernels else 'numpy'} "
              f"kernels):")
        for key in times[dim]:
            print(
                f"  {key:<22} {metrics[f'd{dim}_{key}_windows_per_s']:>10,.0f} windows/s  "
                f"({metrics[f'd{dim}_{key}_speedup_vs_unpacked']:.2f}x vs unpacked)"
            )

    # The native floor, at the largest dim on numba-backed hosts.
    top = dims[-1]
    if numba_kernels:
        native_speedup = (
            times[top][f"{PACKED_ENGINE}_numpy_kernels"]
            / times[top][PACKED_ENGINE]
        )
        metrics[f"d{top}_native_speedup_vs_numpy"] = native_speedup
        gate_speedup(
            native_speedup,
            MIN_NATIVE_SPEEDUP,
            min_cores=4,
            label="engine matrix",
            detail=f"packed numba kernels vs numpy kernels at d={top}",
        )

    record = BenchRecord(
        name="engine_matrix",
        machine=machine_fingerprint(),
        git_sha=current_git_sha(),
        engine=",".join(timed_backends),
        config={
            "dims": list(dims),
            "seconds": seconds,
            "n_electrodes": N_ELECTRODES,
            "fs": FS,
            "repeats": repeats,
            "engines": list(engine_names()),
        },
        metrics=metrics,
    )
    out = _matrix_output_path()
    write_record(record, out)
    fresh = read_record(out)  # emit/schema gate: always enforced
    print(f"[engine matrix] record written to {out}")

    if (
        not MATRIX_BASELINE_PATH.exists()
        or out.resolve() == MATRIX_BASELINE_PATH.resolve()
    ):
        return
    baseline = read_record(MATRIX_BASELINE_PATH)  # schema errors hard-fail
    print(render_comparison(baseline, fresh))
    print("[engine matrix] deltas are report-only (runner shapes vary)")


# ----------------------------------------------------------------------
# The fused microbenches
# ----------------------------------------------------------------------


def test_fused_single_window_streaming_classify():
    """The fused scratch query beats classify_packed per tick."""
    rng = np.random.default_rng(0)
    detector = _fitted(PACKED_ENGINE, native=False)
    engine, memory = detector.engine, detector.memory
    windows = engine.pack_queries(random_bits((N_TICKS, DIM), rng))

    def drive(classify):
        for i in range(N_TICKS):
            classify(windows[i : i + 1])

    for i in range(N_TICKS):  # bit-exactness before timing
        labels_p, dists_p = memory.classify_packed(windows[i : i + 1])
        labels_f, dists_f = engine.classify_windows(
            memory, windows[i : i + 1]
        )
        np.testing.assert_array_equal(labels_f, labels_p)
        np.testing.assert_array_equal(dists_f, dists_p)

    repeats = 1 if smoke_mode() else 5
    packed_s = _best_of(repeats, lambda: drive(memory.classify_packed))
    fused_s = _best_of(
        repeats, lambda: drive(lambda w: engine.classify_windows(memory, w))
    )
    speedup = packed_s / fused_s
    print(
        f"\n[fused streaming classify] d={DIM}, {N_TICKS} single-window "
        f"ticks: classify_packed {packed_s * 1e3:.1f} ms "
        f"({N_TICKS / packed_s:,.0f}/s), fused {fused_s * 1e3:.1f} ms "
        f"({N_TICKS / fused_s:,.0f}/s) -> {speedup:.2f}x"
    )
    # On a single core the timing is too scheduler-noisy to trust.
    gate_speedup(
        speedup,
        MIN_SPEEDUP,
        min_cores=2,
        label="fused streaming classify",
        detail="fused single-window classify vs classify_packed",
    )


def test_fused_block_sweep_recording():
    """Whole-recording sweep: fused vs encode_all + classify_packed."""
    seconds = bench_seconds(20.0, smoke=2.0)
    rng = np.random.default_rng(3)
    signal = rng.standard_normal((int(seconds * FS), N_ELECTRODES))
    detector = _fitted(PACKED_ENGINE, native=False)

    def unfused():
        return detector.memory.classify_packed(detector.encode(signal))

    labels, dists = unfused()
    preds = detector.predict(signal)
    np.testing.assert_array_equal(preds.labels, labels)
    np.testing.assert_array_equal(preds.distances, dists)
    assert len(preds) > 0

    repeats = 1 if smoke_mode() else 3
    unfused_s = _best_of(repeats, unfused)
    fused_s = _best_of(repeats, lambda: detector.predict(signal))
    n_windows = len(preds)
    print(
        f"\n[fused block sweep] d={DIM}, {seconds:.0f} s of signal "
        f"({n_windows} windows): encode_all + classify_packed "
        f"{unfused_s:.2f} s, fused sweep {fused_s:.2f} s "
        f"({unfused_s / fused_s:.2f}x), peak H scratch "
        f"{min(n_windows, 512)} windows instead of {n_windows}"
    )
