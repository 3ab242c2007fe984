"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload paper_offline --seed 1 \
        --seconds 10 --trace 0

Run from the repository root.  The report lines name every metric with
its unit and the engine the workload's detectors resolved to; the last
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  Any output mismatch against the
reference engine prints ``"correct": false`` and exits 1.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

#: End-to-end metrics of every workload, with their units.
END_TO_END = {"setup_s": "s", "windows_per_s": "windows/s"}

#: Where traced runs leave their span files (ignored by git).
TRACE_ROOT = Path(".perfbench_out")


def _workloads():
    from fleet import live_fleet
    from offline import paper_offline, wide_outofcore

    return {
        "paper_offline": paper_offline,
        "wide_outofcore": wide_outofcore,
        "live_fleet": live_fleet,
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(TRACE_ROOT / args.workload)
        tracer.directory.mkdir(parents=True, exist_ok=True)
    outcome = workloads[args.workload](args.seed, args.seconds, tracer)
    if tracer is not None:
        tracer.dump(tracer.directory / "benchmark.json")

    correct = all(outcome.checks.values())
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"  engine (detector.backend)        {outcome.engine}")
    if args.trace:
        from perlayer import METRIC_UNITS

        metrics = {
            name: {"value": outcome.layers[name], "unit": unit}
            for name, unit in METRIC_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:>14.4f} {entry['unit']}")
    for name, (value, unit) in outcome.report.items():
        print(f"  {name:<32} {value:>14.4f} {unit}  (report only)")
    for name, ok in outcome.checks.items():
        print(f"  check {name:<26} {'ok' if ok else 'MISMATCH'}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
