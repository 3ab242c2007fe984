"""The two offline workloads: ``paper_offline`` and ``wide_outofcore``.

Both build their detectors with ``backend="auto"`` and check every
output against the ``unpacked`` reference engine on the same input,
outside the timed region.  An untraced run times the set-up (median of
:data:`SETUP_REPEATS`) and the sweeps; a traced run times one untraced
pass, then the same pass with the layer wrappers installed.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
from measure import (
    SETUP_REPEATS,
    Outcome,
    engine_runs,
    median_timed,
    peak_mem_mb,
    recorded_engine,
    same_predictions,
    scratch_dir,
    timed_repeats,
)
from perlayer import per_layer_metrics
from spans import coverage_pct, layer_totals, overhead_pct, self_times

#: Oracle engine every output is compared against.
ORACLE = "unpacked"

#: The out-of-core RAM budget the streamed evaluation must stay under.
OUTOFCORE_BUDGET_MB = 200.0


def traced_pass(tracer, one_pass):
    """One untraced then one traced ``one_pass()``: per-layer table.

    Coverage is the share of the traced pass's wall time inside named
    layer spans; overhead compares the two passes' wall times.  Returns
    ``(layers, result of the untraced pass)``.
    """
    from layers import install_pipeline

    start = time.perf_counter()
    result = one_pass()
    untraced_s = time.perf_counter() - start
    install_pipeline(tracer)
    try:
        start = time.perf_counter()
        one_pass()
        traced_s = time.perf_counter() - start
    finally:
        tracer.restore()
    layers = per_layer_metrics(layer_totals(tracer.spans), {
        "trace.coverage_pct": coverage_pct(
            sum(self_times(tracer.spans)), traced_s
        ),
        "trace.overhead_pct": overhead_pct(traced_s, untraced_s),
    })
    return layers, result


def quality_report(metrics) -> dict[str, tuple[float, str]]:
    """The paper's headline quality numbers, from ``compute_metrics``."""
    return {
        "sensitivity_pct": (100.0 * metrics.sensitivity, "%"),
        "false_alarms_per_h": (metrics.fdr_per_hour, "1/h"),
        "onset_delay_s": (metrics.mean_delay_s, "s"),
    }


# ----------------------------------------------------------------------
# paper_offline
# ----------------------------------------------------------------------

#: The paper's golden-model shape: 64 electrodes (as P3 and P13),
#: 512 Hz, d = 10 000, LBP l = 6, 1 s windows on a 0.5 s hop.
PAPER_ELECTRODES = 64
PAPER_FS = 512.0
PAPER_DIM = 10_000
#: Two minutes with two clinical seizures.  ``fit`` takes 10 s of the
#: first (the paper's minimum ictal segment) and 30 s of interictal
#: signal; ``detect`` sweeps the held-out span after it, which holds
#: the second seizure.
PAPER_DURATION_S = 120.0
PAPER_SEIZURES = ((40.0, 15.0), (85.0, 15.0))
PAPER_ICTAL = ((40.0, 50.0),)
PAPER_INTERICTAL = (5.0, 35.0)
PAPER_TEST_START_S = 65.0


def _paper_input(seed: int):
    """The recording and its held-out test span."""
    from repro.data.synthetic import (
        SeizurePlan,
        SynthesisParams,
        SyntheticIEEGGenerator,
    )

    generator = SyntheticIEEGGenerator(
        PAPER_ELECTRODES, SynthesisParams(fs=PAPER_FS), seed=seed
    )
    recording = generator.generate(
        PAPER_DURATION_S, [SeizurePlan(*plan) for plan in PAPER_SEIZURES]
    )
    return recording, recording.slice_time(
        PAPER_TEST_START_S, PAPER_DURATION_S
    )


def _paper_setup(recording, seed: int, backend: str):
    """Detector construction plus ``fit``: the paper workload's set-up."""
    from repro.core.config import LaelapsConfig
    from repro.core.detector import LaelapsDetector
    from repro.core.training import TrainingSegments

    detector = LaelapsDetector(
        PAPER_ELECTRODES,
        LaelapsConfig(dim=PAPER_DIM, fs=PAPER_FS, seed=seed, backend=backend),
    )
    return detector.fit(
        recording.data,
        TrainingSegments(ictal=PAPER_ICTAL, interictal=PAPER_INTERICTAL),
    )


def _paper_score(test, result):
    """``finalize_run``-style scoring of the held-out span."""
    from repro.evaluation.metrics import compute_metrics

    return compute_metrics(result.alarm_times, test.seizures,
                           test.duration_s)


def _same_detection(a, b) -> bool:
    return (
        same_predictions(a.predictions, b.predictions)
        and np.array_equal(a.flags, b.flags)
        and np.array_equal(a.alarm_times, b.alarm_times)
    )


def paper_offline(seed: int, seconds: float, tracer=None) -> Outcome:
    recording, test = _paper_input(seed)

    def setup():
        return _paper_setup(recording, seed, "auto")

    if tracer is None:
        setup_s, detector = median_timed(SETUP_REPEATS, setup)
        times, result = timed_repeats(
            seconds, lambda: detector.detect(test.data)
        )
        peak, peak_result = peak_mem_mb(lambda: detector.detect(test.data))
        results = [result, peak_result]
    else:
        def one_pass():
            detector = setup()
            result = detector.detect(test.data)
            _paper_score(test, result)
            return detector, result

        layers, (detector, result) = traced_pass(tracer, one_pass)
        results = [result]

    oracle = _paper_setup(recording, seed, ORACLE)
    expected = oracle.detect(test.data)
    n_windows = len(result.predictions)
    outcome = Outcome(
        engine=recorded_engine(detector),
        attempted=n_windows * len(results),
        checks={
            "recorded_engine_runs": engine_runs(
                detector.engine, recorded_engine(detector)
            ),
            "prototypes_equal_oracle": all(
                np.array_equal(detector.memory.prototype(label),
                               oracle.memory.prototype(label))
                for label in (0, 1)
            ),
            "detection_equals_oracle": all(
                _same_detection(r, expected) for r in results
            ),
        },
    )
    if tracer is not None:
        outcome.layers = layers
        return outcome
    outcome.attempted = n_windows * (len(times) + 1)
    outcome.metrics = {
        "setup_s": setup_s,
        "windows_per_s": float(np.median([n_windows / t for t in times])),
    }
    outcome.report = {
        "peak_mem_mb": (peak, "MB"),
        **quality_report(_paper_score(test, result)),
        "windows": (n_windows, "count"),
        "detect_sweeps": (len(times), "count"),
    }
    return outcome


# ----------------------------------------------------------------------
# wide_outofcore
# ----------------------------------------------------------------------

#: The many-electrode, small-d corner of the spatial crossover table.
WIDE_ELECTRODES = 512
WIDE_FS = 256.0
WIDE_DIM = 1_000
#: Three minutes, two evenly spaced 20 s clinical seizures
#: (``default_member_plans``): one trains, one is scored.
WIDE_DURATION_S = 180.0
WIDE_SEIZURES = 2
#: Raw samples per streamed block (the runner's default size).
WIDE_CHUNK_SAMPLES = 4096


def _wide_detector(seed: int, backend: str, n_electrodes: int, fs: float):
    from repro.core.config import LaelapsConfig
    from repro.core.detector import LaelapsDetector

    return LaelapsDetector(
        n_electrodes,
        LaelapsConfig(dim=WIDE_DIM, fs=fs, seed=seed, backend=backend),
    )


def _wide_run(patient, seed: int, backend: str):
    """Streamed train and test sweep (``run_patient``), then scoring."""
    from repro.evaluation import runner

    built: list = []

    def factory(n_electrodes, fs):
        built.append(_wide_detector(seed, backend, n_electrodes, fs))
        return built[-1]

    run = runner.run_patient(factory, patient,
                             chunk_samples=WIDE_CHUNK_SAMPLES)
    return built[-1], run, runner.finalize_run(run)


def _same_run(a, b) -> bool:
    return (
        same_predictions(a[1].train_preds, b[1].train_preds)
        and same_predictions(a[1].test_preds, b[1].test_preds)
        and np.array_equal(a[2].alarm_times, b[2].alarm_times)
    )


def wide_outofcore(seed: int, seconds: float, tracer=None) -> Outcome:
    from repro.data import outofcore
    from repro.data.synthetic import SynthesisParams

    spec = outofcore.CohortSpec(
        name="wide",
        members=(outofcore.MemberSpec(
            "wide0", WIDE_ELECTRODES, WIDE_DURATION_S,
            outofcore.default_member_plans(WIDE_DURATION_S, WIDE_SEIZURES),
        ),),
        params=SynthesisParams(fs=WIDE_FS),
        seed=seed,
    )
    scratch = Path(tempfile.mkdtemp(prefix="wide-", dir=scratch_dir()))
    try:
        return _wide_measure(spec, scratch, seed, seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _wide_measure(spec, scratch: Path, seed, seconds, tracer) -> Outcome:
    from repro.data import outofcore

    if tracer is None:
        start = time.perf_counter()
        cohort = outofcore.generate_cohort(spec, scratch / "cohort")
        synth_s = time.perf_counter() - start
        patient = cohort.members[0].patient()
        split, train, test = _wide_split(patient)
        setup_s, detector = median_timed(
            SETUP_REPEATS, lambda: _wide_setup(patient, split, train, seed)
        )
        times: list[float] = []
        swept: list = []

        def sweep():
            # run_patient's two streamed sweeps, timed one by one.
            for span in (train, test):
                start = time.perf_counter()
                swept.append(_stream(detector, span))
                times.append(time.perf_counter() - start)

        timed_repeats(seconds, sweep)
        peak, result = peak_mem_mb(lambda: _wide_run(patient, seed, "auto"))
    else:
        def one_pass():
            cohort = outofcore.generate_cohort(spec, scratch / "cohort")
            patient = cohort.members[0].patient()
            return patient, _wide_run(patient, seed, "auto")

        layers, (patient, result) = traced_pass(tracer, one_pass)

    expected = _wide_run(patient, seed, ORACLE)
    detector, run, _ = result
    n_windows = len(run.train_preds) + len(run.test_preds)
    outcome = Outcome(
        engine=recorded_engine(detector),
        attempted=n_windows,
        checks={
            "recorded_engine_runs": engine_runs(
                detector.engine, recorded_engine(detector)
            ),
            "predictions_and_alarms_equal_oracle": _same_run(result, expected),
        },
    )
    if tracer is not None:
        outcome.layers = layers
        return outcome
    oracle_run = expected[1]
    outcome.checks["timed_sweeps_equal_oracle"] = all(
        same_predictions(preds, reference)
        for preds, reference in zip(
            swept, itertools.cycle((oracle_run.train_preds,
                                    oracle_run.test_preds))
        )
    )
    outcome.checks["eval_peak_under_budget"] = peak < OUTOFCORE_BUDGET_MB
    outcome.attempted = n_windows + sum(len(preds) for preds in swept)
    outcome.metrics = {
        "setup_s": setup_s,
        "windows_per_s": float(np.median(
            [len(preds) / t for preds, t in zip(swept, times)]
        )),
    }
    outcome.report = {
        "synth_s": (synth_s, "s"),
        "peak_mem_mb": (peak, "MB"),
        **quality_report(result[2].metrics),
        "windows": (n_windows, "count"),
        "streamed_sweeps": (len(times), "count"),
    }
    return outcome


def _wide_split(patient):
    """``run_patient``'s split and the train and test spans it sweeps."""
    from repro.data.splits import split_patient

    split = split_patient(patient)
    recording = patient.recording
    end = split.train_span_s[1]
    return (split, recording.slice_time(0.0, end),
            recording.slice_time(end, recording.duration_s))


def _stream(detector, span):
    from repro.evaluation.runner import predict_windows_streamed

    return predict_windows_streamed(detector, span.data, WIDE_CHUNK_SAMPLES)


def _wide_setup(patient, split, train, seed: int):
    """Construction plus ``fit``, exactly as ``run_patient`` does them."""
    detector = _wide_detector(seed, "auto", patient.n_electrodes,
                              patient.recording.fs)
    return detector.fit(train.data, split.training_segments)
