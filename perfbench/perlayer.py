"""The per-layer metric table printed by a traced run.

Every workload prints every metric; a layer the workload never calls
reads 0.  ``busy`` metrics are whole span durations, ``self`` metrics
subtract the named child layers' spans (see :mod:`spans`).  Totals
cover the traced region of the workload (see ``README.md``).
"""

from __future__ import annotations

from dataclasses import fields

from spans import LayerTotal

_MS = 1e3

#: (metric, unit, span name, field of :class:`spans.LayerTotal`, scale).
SPAN_METRICS = (
    ("lbp.busy_ms", "ms", "lbp", "busy", _MS),
    ("lbp.samples", "count", "lbp", "work", 1),
    ("hdc.spatial.busy_ms", "ms", "hdc.spatial", "busy", _MS),
    ("hdc.spatial.calls", "count", "hdc.spatial", "calls", 1),
    ("hdc.spatial.sample_electrodes", "count", "hdc.spatial", "work", 1),
    ("hdc.temporal.self_ms", "ms", "hdc.temporal", "self", _MS),
    ("hdc.temporal.windows", "count", "hdc.temporal", "work", 1),
    ("hdc.associative.busy_ms", "ms", "hdc.associative", "busy", _MS),
    ("hdc.associative.queries", "count", "hdc.associative", "work", 1),
    ("core.detector.fit_ms", "ms", "core.detector", "busy", _MS),
    ("core.detector.train_windows", "count", "core.detector", "work", 1),
    ("core.postprocess.busy_ms", "ms", "core.postprocess", "busy", _MS),
    ("core.postprocess.labels", "count", "core.postprocess", "work", 1),
    ("core.sessions.self_ms", "ms", "core.sessions", "self", _MS),
    ("core.sessions.ticks", "count", "core.sessions", "calls", 1),
    ("serve.gateway.self_ms", "ms", "serve.gateway", "self", _MS),
    ("serve.gateway.ticks", "count", "serve.gateway", "calls", 1),
    ("serve.worker.dispatch_ms", "ms", "serve.worker.dispatch", "busy", _MS),
    ("serve.worker.collect_wait_ms", "ms", "serve.worker.collect", "busy",
     _MS),
    ("serve.worker.payload_bytes", "bytes", "serve.worker.dispatch", "work",
     1),
    ("serve.service.codec_ms", "ms", "serve.service.codec", "self", _MS),
    ("serve.service.errors", "count", "serve.service", "errors", 1),
    ("evaluation.runner.self_ms", "ms", "evaluation.runner", "self", _MS),
    ("evaluation.runner.chunks", "count", "evaluation.runner", "work", 1),
    ("data.outofcore.synth_ms", "ms", "data.outofcore", "busy", _MS),
    ("data.outofcore.bytes_written", "bytes", "data.outofcore", "work", 1),
    ("loadgen.chunk_ms", "ms", "loadgen", "busy", _MS),
)

#: Metrics that are not one span field: (metric, unit).  The workload
#: computes them; a workload without the layer reports 0.
DERIVED_METRICS = (
    ("serve.worker.errors", "count"),
    ("serve.worker.transport_ms", "ms"),
    ("serve.service.wire_ms", "ms"),
    ("serve.service.frame_bytes", "bytes"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
)

METRIC_UNITS = {
    name: unit for name, unit, *_ in SPAN_METRICS + DERIVED_METRICS
}


def merge(*tables: dict[str, LayerTotal]) -> dict[str, LayerTotal]:
    """Sum layer totals of several processes' traces."""
    merged: dict[str, LayerTotal] = {}
    for table in tables:
        for name, total in table.items():
            into = merged.setdefault(name, LayerTotal())
            for f in fields(LayerTotal):
                setattr(into, f.name,
                        getattr(into, f.name) + getattr(total, f.name))
    return merged


def per_layer_metrics(totals: dict[str, LayerTotal],
                      derived: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, in table order."""
    values = {}
    for name, _, span, attr, scale in SPAN_METRICS:
        total = totals.get(span, LayerTotal())
        values[name] = getattr(total, attr) * scale
    errors = (totals.get("serve.worker.dispatch", LayerTotal()).errors
              + totals.get("serve.worker.collect", LayerTotal()).errors)
    values["serve.worker.errors"] = errors
    for name, _ in DERIVED_METRICS:
        values.setdefault(name, derived.get(name, 0.0))
    return values
