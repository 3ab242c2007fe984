"""Where each named layer is timed: the calls the traced run wraps.

Every entry wraps a public (or engine-hook) callable of ``src/repro``
from outside; nothing here edits the program.  The layer names are the
module names the per-layer table in ``README.md`` uses.  A span name is
either the layer itself or ``<layer>.<call>`` where one layer has two
calls worth separating (the shard worker's dispatch and collect).
"""

from __future__ import annotations

import json
import math

import numpy as np


# Work functions: ``work(args, kwargs, result)`` -> the amount of work
# one call did, in the unit of the layer's count metric.  ``args[0]``
# is ``self`` for methods.

def _rows(args, kwargs, result):
    return np.asarray(args[1]).shape[0]


def _spatial_sample_electrodes(args, kwargs, result):
    return np.asarray(args[1]).size


def _windows_out(args, kwargs, result):
    return result.shape[0]


def _queries(args, kwargs, result):
    return result[0].shape[0]


def _train_windows(args, kwargs, result):
    report = result.fit_report
    return report.n_ictal_windows + report.n_interictal_windows


def _chunks(args, kwargs, result):
    chunk = kwargs.get("chunk_samples", args[2] if len(args) > 2 else None)
    if chunk is None:
        from repro.evaluation.runner import DEFAULT_CHUNK_SAMPLES

        chunk = DEFAULT_CHUNK_SAMPLES
    return math.ceil(np.asarray(args[1]).shape[0] / chunk)


def _cohort_bytes(args, kwargs, result):
    return sum(
        member.n_samples * member.n_electrodes * 4 for member in result
    )


def _payload_bytes(args, kwargs, result):
    op, payload = args[1], args[2]
    if op != "push_many":
        return 0
    return sum(
        np.asarray(chunk).nbytes for chunk in payload["chunks"].values()
    )


def install_pipeline(tracer) -> None:
    """Detector-side layers: lbp, hdc.*, core.*, evaluation, data."""
    from repro.core import sessions
    from repro.core.detector import LaelapsDetector
    from repro.core.postprocess import AlarmStateMachine, Postprocessor
    from repro.core.sessions import StreamSessionManager
    from repro.core.symbolizers import LBPSymbolizer
    from repro.data import outofcore
    from repro.evaluation import runner
    from repro.hdc.engine import PackedFusedEngine, _EngineBase
    from repro.hdc.spatial import SpatialEncoder
    from repro.hdc.spatial_packed import PackedSpatialEncoder
    from repro.hdc.temporal import WindowBundler

    tracer.wrap(LBPSymbolizer, "codes", "lbp", _rows)
    for owner, attr in ((PackedSpatialEncoder, "encode_packed"),
                        (SpatialEncoder, "encode"),
                        (SpatialEncoder, "counts")):
        tracer.wrap(owner, attr, "hdc.spatial", _spatial_sample_electrodes)
    tracer.wrap(WindowBundler, "feed", "hdc.temporal", _windows_out)
    for owner, attr in ((_EngineBase, "classify_windows"),
                        (PackedFusedEngine, "classify_windows"),
                        (PackedFusedEngine, "_fused_query"),
                        (_EngineBase, "grouped_kernel"),
                        (sessions, "grouped_classify_packed")):
        tracer.wrap(owner, attr, "hdc.associative", _queries)
    tracer.wrap(LaelapsDetector, "fit", "core.detector", _train_windows)
    for owner, attr in ((AlarmStateMachine, "update"),
                        (Postprocessor, "flags"),
                        (Postprocessor, "onsets")):
        tracer.wrap(owner, attr, "core.postprocess", _rows)
    tracer.wrap(StreamSessionManager, "push_many", "core.sessions",
                new_request=True)
    tracer.wrap(runner, "predict_windows_streamed", "evaluation.runner",
                _chunks)
    tracer.wrap(outofcore, "generate_cohort", "data.outofcore",
                _cohort_bytes)


def install_gateway(tracer) -> None:
    """Service-process layers: the wire codec, the gateway tick and its
    worker calls.

    The codec span covers the request's JSON parse, the arrays' decode,
    the events' encode and the reply frame's JSON dump; what the
    service does around them (the asyncio loop, socket reads and
    writes) is left to no named layer.
    """
    from repro.serve import service
    from repro.serve.gateway import ShardedStreamGateway
    from repro.serve.worker import ProcessShardWorker

    for owner, attr in ((json, "loads"), (service, "decode_value"),
                        (service, "events_to_wire"), (service, "_frame")):
        tracer.wrap(owner, attr, "serve.service.codec")
    tracer.wrap(ShardedStreamGateway, "push_many", "serve.gateway",
                new_request=True)
    tracer.wrap(ProcessShardWorker, "dispatch", "serve.worker.dispatch",
                _payload_bytes)
    tracer.wrap(ProcessShardWorker, "collect", "serve.worker.collect")


def install_client(tracer) -> None:
    """Load-generator-process layers: packet synthesis, round trips and
    the client's side of the wire codec.

    The load generator sets ``tracer.request`` to the round number
    itself, so the packets it synthesises for a round share its id.
    """
    from repro.data.synthetic import ClockedEEGSource
    from repro.serve import service

    tracer.wrap(ClockedEEGSource, "next_chunk", "loadgen")
    tracer.wrap(service.ServiceClient, "push_many", "serve.service")
    for owner, attr in ((json, "dumps"), (json, "loads"),
                        (service, "encode_value"),
                        (service, "events_from_wire")):
        tracer.wrap(owner, attr, "serve.service.codec")
