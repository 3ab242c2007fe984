"""Measurement arithmetic shared by the workloads.

Percentiles are nearest-rank, through the load harness's own
:func:`repro.serve.loadgen.nearest_rank_percentile`, so the benchmark
and ``repro loadtest`` can never disagree about what a p99 is.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Reported in place of a latency percentile that lands on a failed or
#: refused request: such a request misses every limit, so the value is
#: the largest any limit could be (one minute, far past any label
#: period), never the latency of the requests that did succeed.
MISSED_LIMIT_MS = 60_000.0

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def latency_percentile_ms(latencies_ms: list[float], n_failed: int,
                          p: float) -> float:
    """Nearest-rank ``p`` over successes plus ``n_failed`` missed samples.

    A failed or refused request counts as missing every latency limit:
    it enters the ranking as an infinitely late sample, and a
    percentile that lands on one reads :data:`MISSED_LIMIT_MS`.
    """
    from repro.serve.loadgen import nearest_rank_percentile

    samples = list(latencies_ms) + [math.inf] * n_failed
    value = nearest_rank_percentile(samples, p)
    return MISSED_LIMIT_MS if math.isinf(value) else value


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` are the end-to-end metrics (untraced run), ``layers``
    the per-layer ones (traced run); ``report`` holds further numbers
    printed for the reader with their units.
    """

    engine: str
    attempted: int
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)


def scratch_dir() -> Path:
    """Temporary files live in the checkout, under an ignored directory."""
    root = Path(".perfbench_tmp")
    root.mkdir(exist_ok=True)
    return root


def timed_repeats(seconds: float, func):
    """Run ``func`` while the next run is expected to fit in ``seconds``.

    At least once.  Returns the per-run wall times and the last result.
    """
    times: list[float] = []
    result = None
    while not times or sum(times) + times[-1] <= seconds:
        start = time.perf_counter()
        result = func()
        times.append(time.perf_counter() - start)
    return times, result


def median_timed(repeats: int, func, discard=None):
    """Call ``func()`` ``repeats`` times; ``(median seconds, last result)``.

    ``discard(result)``, if given, releases every result but the last,
    outside the timed calls (e.g. stops a service before the next
    set-up starts one).
    """
    times = []
    result = None
    for i in range(repeats):
        if i and discard is not None:
            discard(result)
        start = time.perf_counter()
        result = func()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def peak_mem_mb(func):
    """``(tracemalloc peak in MB over func(), result)``, in its own pass."""
    tracemalloc.start()
    try:
        result = func()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6, result


def same_predictions(a, b) -> bool:
    """Labels, distances and decision times identical (bit-exact)."""
    return (
        np.array_equal(a.labels, b.labels)
        and np.array_equal(a.distances, b.distances)
        and np.array_equal(a.times, b.times)
    )


def recorded_engine(detector) -> str:
    """The engine name a workload records: the one the detector built.

    Read from ``detector.backend`` — never from
    ``resolve_engine_name("auto")``, which names what ``auto`` would
    pick now, not what a given detector actually runs.
    """
    return detector.backend


def engine_runs(engine, name: str) -> bool:
    """Whether ``engine`` is exactly the class registered as ``name``.

    Checks a recorded engine name against the engine object doing the
    work, through the engine registry rather than the name the engine
    reports about itself.
    """
    from repro.hdc import engine as registry

    return (name in registry.engine_names()
            and type(engine) is registry._REGISTRY[name])
