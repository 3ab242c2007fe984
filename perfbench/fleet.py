"""The ``live_fleet`` workload: ``repro serve-http`` under packet load.

The service runs in its own process (``service_main.py`` around the
real CLI entry point) with two process shards; this process is the load
generator and the service's only client connection.  It trains the
detector templates, opens every session over the wire with a detector
payload, and then drives 0.125 s packets:

* warm-up rounds, which also stagger the sessions' window phases so
  that a quarter of the sessions complete a window in every round;
* phase A, a closed loop with one request in flight, which gives
  ``windows_per_s``;
* phase B, an open loop with one round due every
  :data:`ROUND_INTERVAL_S`, which gives label latency, timed from each
  round's due time, and how late the generator ran.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from measure import (
    SETUP_REPEATS,
    Outcome,
    latency_percentile_ms,
    median_timed,
    recorded_engine,
    scratch_dir,
)
from perlayer import merge, per_layer_metrics
from spans import (
    coverage_pct,
    inside,
    layer_totals,
    load_spans,
    overhead_pct,
    overlap_s,
)

HERE = Path(__file__).resolve().parent

N_SESSIONS = 64
N_ELECTRODES = 16
DIM = 2_000
FS = 256.0
#: 0.125 s packets; four make one 0.5 s label hop.
PACKET_SAMPLES = 32
N_WORKERS = 2
N_TEMPLATES = 4
#: Phase B round interval.  It leaves the service about half busy on
#: a 2-core host, so the latency tail shows queueing without a backlog.
ROUND_INTERVAL_S = 0.040
WARMUP_ROUNDS = 8
#: Sessions whose events are checked against an in-process stream.
SAMPLED_SESSIONS = (0, 21, 42, 63)
#: Phase A rounds per throughput block; ``windows_per_s`` is the median
#: block, so a burst of interference on a shared host moves a few
#: blocks, not the figure.
BLOCK_ROUNDS = 16

LBP_LENGTH = 6
WINDOW_SAMPLES = 256
HOP_SAMPLES = 128


def windows_after(samples: int) -> int:
    """Windows a stream has completed after ``samples`` raw samples."""
    codes = samples - LBP_LENGTH
    if codes < WINDOW_SAMPLES:
        return 0
    return (codes - WINDOW_SAMPLES) // HOP_SAMPLES + 1


def first_packet_samples(index: int) -> int:
    """Warm-up packet of session ``index``: one window, phase-shifted.

    Every session completes its first window at once; the extra
    ``32 * (index % 4)`` samples put the sessions a quarter hop apart,
    so later windows complete evenly across rounds.
    """
    return LBP_LENGTH + WINDOW_SAMPLES + PACKET_SAMPLES * (index % 4)


def session_id(index: int) -> str:
    return f"p{index:03d}"


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def train_templates(seed: int) -> list:
    """Fitted detectors the sessions cycle through (``backend="auto"``)."""
    from repro.core.config import LaelapsConfig
    from repro.core.detector import LaelapsDetector
    from repro.core.training import TrainingSegments
    from repro.data.synthetic import (
        SeizurePlan,
        SynthesisParams,
        SyntheticIEEGGenerator,
    )

    templates = []
    for i in range(N_TEMPLATES):
        recording = SyntheticIEEGGenerator(
            N_ELECTRODES, SynthesisParams(fs=FS), seed=seed * 1_000 + i
        ).generate(46.0, [SeizurePlan(32.0, 12.0)])
        detector = LaelapsDetector(N_ELECTRODES, LaelapsConfig(
            dim=DIM, fs=FS, seed=seed * 1_000 + i, backend="auto",
        ))
        detector.fit(recording.data, TrainingSegments(
            ictal=((32.0, 44.0),), interictal=(1.0, 31.0)
        ))
        templates.append(detector)
    return templates


def build_sources(seed: int) -> list:
    from repro.data.synthetic import ClockedEEGSource

    return [
        ClockedEEGSource(N_ELECTRODES, FS, seed=seed * 1_000 + 500 + i)
        for i in range(N_SESSIONS)
    ]


class Packets:
    """Per-session packet streams, with what the oracle needs kept."""

    def __init__(self, seed: int) -> None:
        self.sources = build_sources(seed)
        self.samples = [0] * N_SESSIONS
        self.sent = {i: [] for i in SAMPLED_SESSIONS}

    def round(self, first: bool = False) -> tuple[dict, int]:
        """The next round's packets and the windows they complete."""
        packets = {}
        completes = 0
        for i, source in enumerate(self.sources):
            n = first_packet_samples(i) if first else PACKET_SAMPLES
            packets[session_id(i)] = source.next_chunk(n)
            completes += (windows_after(self.samples[i] + n)
                          - windows_after(self.samples[i]))
            self.samples[i] += n
            if i in self.sent:
                self.sent[i].append(packets[session_id(i)])
        return packets, completes


# ----------------------------------------------------------------------
# The service process
# ----------------------------------------------------------------------

class Service:
    """``repro serve-http`` in a child process, ready for one client."""

    def __init__(self, run_dir: Path, trace_dir: Path | None = None):
        self.log_path = run_dir / f"service-{time.perf_counter_ns()}.log"
        cmd = [sys.executable, str(HERE / "service_main.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--", "serve-http", "--workers", str(N_WORKERS),
                "--mode", "process", "--port", "0"]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT
            )
        self.address = self._wait_listening()

    def _wait_listening(self, timeout_s: float = 60.0):
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            for line in self.log_path.read_text().splitlines():
                if line.startswith("{"):
                    entry = json.loads(line)
                    if entry.get("event") == "service listening":
                        return entry["host"], entry["port"]
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(
            "service did not start:\n" + self.log_path.read_text()
        )

    def stop(self) -> None:
        """Graceful SIGTERM drain; kill if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


def setup(seed: int, run_dir: Path, trace_dir: Path | None = None):
    """Templates, service start, every session opened over the wire."""
    from repro.serve.service import ServiceClient

    templates = train_templates(seed)
    service = Service(run_dir, trace_dir)
    try:
        client = ServiceClient(*service.address)
        for i in range(N_SESSIONS):
            client.open(session_id(i), templates[i % N_TEMPLATES])
    except BaseException:
        service.stop()
        raise
    return templates, service, client


def shut(fleet) -> None:
    """Stop what :func:`setup` started."""
    _, service, client = fleet
    client.close()
    service.stop()


def shard_engines(client, directory: Path) -> set[str]:
    """Engines the shard processes run, read from a fleet checkpoint.

    Each shard writes its sessions with the name of the engine its own
    detector objects run; this reads those names back.
    """
    from repro.core.persistence import load_sessions, read_fleet_manifest

    manifest = Path(client.checkpoint(directory))
    engines = set()
    for shard_file in read_fleet_manifest(manifest)["shards"].values():
        manager = load_sessions(manifest.parent / shard_file)
        engines.update(manager.session(sid).detector.backend
                       for sid in manager.session_ids)
    return engines


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------

def _failures():
    """What a failed request raises on the client side.

    Server-side failures (``Backpressure``, ``WorkerDiedError``,
    ``WorkerTimeoutError``, ...) arrive as ``ServiceError`` carrying the
    server's class name; a dead connection raises ``OSError``
    (``ConnectionError`` is one).
    """
    from repro.serve.service import ServiceError

    return (ServiceError, OSError)


class Bookkeeping:
    """Requests, received events and latencies of one phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sent = 0
        self.succeeded = 0
        self.failed = 0
        self.missed_windows = 0
        self.windows = 0
        self.round_windows: list[int] = []
        self.round_trips: list[float] = []
        self.latencies_ms: list[float] = []
        self.lateness_ms: list[float] = []
        self.errors: dict[str, int] = {}
        self.wall_s = 0.0
        self.rounds = range(0)
        self.window = (0.0, 0.0)


def push_round(client, packet_round, book: Bookkeeping, received: dict):
    """One request; ``(receive time, events)``, or None when it failed.

    A failed request's windows are tallied as missed: they miss every
    latency limit.
    """
    packets, completes = packet_round
    book.sent += 1
    start = time.perf_counter()
    try:
        events = client.push_many(packets)
    except _failures() as exc:
        name = getattr(exc, "error_type", type(exc).__name__)
        book.errors[name] = book.errors.get(name, 0) + 1
        book.failed += 1
        book.missed_windows += completes
        return None
    done = time.perf_counter()
    book.succeeded += 1
    book.round_trips.append(done - start)
    book.round_windows.append(sum(len(session_events)
                                  for session_events in events.values()))
    book.windows += book.round_windows[-1]
    for i in SAMPLED_SESSIONS:
        received[i].extend(events.get(session_id(i), []))
    return done, events


def warm_up(client, stream: Packets, received: dict, tracer=None):
    book = Bookkeeping("warm-up")
    for k in range(WARMUP_ROUNDS):
        if tracer is not None:
            tracer.request = k
        push_round(client, stream.round(first=k == 0), book, received)
    return book


def phase_a(client, stream: Packets, received: dict, budget_s: float,
            tracer=None):
    """Closed loop: the next round is sent when the last one returned."""
    book = Bookkeeping("A")
    start = time.perf_counter()
    k = WARMUP_ROUNDS
    while time.perf_counter() - start < budget_s:
        if tracer is not None:
            tracer.request = k
        push_round(client, stream.round(), book, received)
        k += 1
    end = time.perf_counter()
    book.wall_s = end - start
    book.rounds = range(WARMUP_ROUNDS, k)
    book.window = (start, end)
    return book


def phase_b(client, stream: Packets, received: dict, budget_s: float,
            first_round: int, tracer=None):
    """Open loop: round ``k`` is due at ``t0 + k * ROUND_INTERVAL_S``."""
    book = Bookkeeping("B")
    n_rounds = max(1, int(budget_s / ROUND_INTERVAL_S))
    if tracer is not None:
        tracer.request = first_round
    rounds = [stream.round() for _ in range(n_rounds)]
    t0 = time.perf_counter() + ROUND_INTERVAL_S
    for k, packet_round in enumerate(rounds):
        due = t0 + k * ROUND_INTERVAL_S
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        book.lateness_ms.append((time.perf_counter() - due) * 1e3)
        if tracer is not None:
            tracer.request = first_round + k
        reply = push_round(client, packet_round, book, received)
        if reply is not None:
            done, events = reply
            n_events = sum(len(e) for e in events.values())
            book.latencies_ms.extend([(done - due) * 1e3] * n_events)
    return book


def oracle_matches(templates, stream: Packets, received: dict) -> bool:
    """Sampled sessions' events equal an in-process stream's."""
    from repro.core.streaming import StreamingLaelaps

    for i in SAMPLED_SESSIONS:
        reference = StreamingLaelaps(templates[i % N_TEMPLATES])
        expected = []
        for packet in stream.sent[i]:
            expected.extend(reference.push(packet))
        if expected != received[i]:
            return False
    return True


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------

def live_fleet(seed: int, seconds: float, tracer=None) -> Outcome:
    run_dir = Path(tempfile.mkdtemp(prefix="fleet-", dir=scratch_dir()))
    try:
        if tracer is None:
            return _untraced(seed, seconds, run_dir)
        return _traced(seed, seconds, run_dir, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _drive(seed, seconds, templates, client, tracer=None, phase_b_too=True):
    stream = Packets(seed)
    received = {i: [] for i in SAMPLED_SESSIONS}
    books = [warm_up(client, stream, received, tracer)]
    books.append(phase_a(client, stream, received, seconds / 2, tracer))
    if phase_b_too:
        books.append(phase_b(client, stream, received, seconds / 2,
                             books[1].rounds.stop, tracer))
    return stream, received, books


def _base_outcome(templates, stream, received, books,
                  on_shards: set[str]) -> Outcome:
    engines = {recorded_engine(t) for t in templates}
    return Outcome(
        engine=",".join(sorted(engines)),
        attempted=sum(book.sent for book in books),
        failed=sum(book.failed for book in books),
        checks={
            "recorded_engine_runs_on_shards": on_shards == engines,
            "sampled_sessions_equal_in_process_stream":
                oracle_matches(templates, stream, received),
        },
    )


def _untraced(seed, seconds, run_dir) -> Outcome:
    setup_s, fleet = median_timed(
        SETUP_REPEATS, lambda: setup(seed, run_dir), discard=shut
    )
    templates, _, client = fleet
    try:
        stream, received, books = _drive(seed, seconds, templates, client)
        on_shards = shard_engines(client, run_dir / "checkpoint")
    finally:
        shut(fleet)
    _, a, b = books
    outcome = _base_outcome(templates, stream, received, books, on_shards)
    outcome.metrics = {
        "setup_s": setup_s,
        "windows_per_s": block_rate(a.round_windows, a.round_trips),
    }
    n_failed_b = b.missed_windows
    outcome.report = {
        "label_latency_p50_ms": (
            latency_percentile_ms(b.latencies_ms, n_failed_b, 50), "ms"),
        "label_latency_p99_ms": (
            latency_percentile_ms(b.latencies_ms, n_failed_b, 99), "ms"),
        "label_latency_samples": (len(b.latencies_ms) + n_failed_b, "count"),
        "loadgen.lag_p99_ms": (
            latency_percentile_ms(b.lateness_ms, 0, 99), "ms"),
        "phase_b_interval_ms": (ROUND_INTERVAL_S * 1e3, "ms"),
    }
    for book in books:
        outcome.report[f"requests_{book.name}_sent"] = (book.sent, "count")
        outcome.report[f"requests_{book.name}_succeeded"] = (
            book.succeeded, "count")
        outcome.report[f"requests_{book.name}_failed"] = (
            book.failed, "count")
    return outcome


def block_rate(windows: list[int], round_trips: list[float]) -> float:
    """Median windows/s over blocks of :data:`BLOCK_ROUNDS` rounds."""
    rates = [
        sum(windows[i:i + BLOCK_ROUNDS]) / sum(round_trips[i:i + BLOCK_ROUNDS])
        for i in range(0, len(windows) - BLOCK_ROUNDS + 1, BLOCK_ROUNDS)
    ] or [sum(windows) / sum(round_trips)]
    return statistics.median(rates)


class _CountingSocket:
    """Counts the bytes a client socket sends and receives."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.bytes = 0

    def sendall(self, data) -> None:
        self.bytes += len(data)
        self._sock.sendall(data)

    def recv(self, n: int) -> bytes:
        data = self._sock.recv(n)
        self.bytes += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _traced(seed, seconds, run_dir, tracer) -> Outcome:
    from layers import install_client

    # The same closed loop untraced first: the overhead reference.
    fleet = setup(seed, run_dir)
    try:
        _, _, (_, plain) = _drive(seed, seconds, fleet[0], fleet[2],
                                  phase_b_too=False)
    finally:
        shut(fleet)

    trace_dir = tracer.directory / "service"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for stale in trace_dir.glob("*.json"):
        stale.unlink()
    fleet = setup(seed, run_dir, trace_dir)
    templates, _, client = fleet
    counting = _CountingSocket(client._sock)
    client._sock = counting
    install_client(tracer)
    try:
        stream = Packets(seed)
        received = {i: [] for i in SAMPLED_SESSIONS}
        warm = warm_up(client, stream, received, tracer)
        client.stats_reset()
        bytes_before = counting.bytes
        a = phase_a(client, stream, received, seconds / 2, tracer)
        frame_bytes = counting.bytes - bytes_before
        ticks_s = client.stats()["latencies_s"]
        b = phase_b(client, stream, received, seconds / 2,
                    a.rounds.stop, tracer)
    finally:
        tracer.restore()
    try:
        on_shards = shard_engines(client, run_dir / "checkpoint")
    finally:
        shut(fleet)

    outcome = _base_outcome(templates, stream, received, [warm, a, b],
                            on_shards)
    service_spans = load_spans(trace_dir / "service.json")
    shard_spans = [load_spans(path)
                   for path in sorted(trace_dir.glob("shard-*.json"))]
    totals = merge(*(
        layer_totals(spans, window=a.window)
        for spans in [tracer.spans, service_spans, *shard_spans]
    ))
    collect_s = totals["serve.worker.collect"].busy
    shard_work_s = shard_explained_s(service_spans, shard_spans, a.window)
    # Time on the phase A critical path that a named span measured.  Left
    # out, so that coverage falls when they grow: the client's loop, the
    # socket and the service's asyncio loop (a round trip's time outside
    # the codec and the gateway tick), and the collect wait while no
    # shard ran (transport).
    named_s = (
        totals["loadgen"].self + totals["serve.service.codec"].self
        + totals["serve.gateway"].self + totals["serve.worker.dispatch"].busy
        + shard_work_s
    )
    per_window = a.wall_s / a.windows
    plain_per_window = plain.wall_s / plain.windows
    outcome.layers = per_layer_metrics(totals, {
        "serve.worker.transport_ms": (collect_s - shard_work_s) * 1e3,
        "serve.service.wire_ms":
            (totals["serve.service"].busy - sum(ticks_s)) * 1e3,
        "serve.service.frame_bytes": frame_bytes,
        "loadgen.lag_p99_ms": latency_percentile_ms(b.lateness_ms, 0, 99),
        "trace.coverage_pct": coverage_pct(named_s, a.wall_s),
        "trace.overhead_pct": overhead_pct(per_window, plain_per_window),
    })
    return outcome


def shard_explained_s(service_spans, shard_spans, window) -> float:
    """Gateway ``collect`` wait during which some shard ran named work.

    Span timestamps share one clock across the processes, so this is
    the length of time that lies both inside a ``collect`` span and
    inside a top-level span of some shard (its ``push_many`` tick, which
    holds the shard's lbp, hdc and postprocess spans).  The rest of the
    wait — pickling, pipe transfer, process wake-ups — is transport.
    """
    collects = [(span.start, span.end) for span in service_spans
                if span.name == "serve.worker.collect"
                and inside(span, window)]
    shard_work = [(span.start, span.end) for spans in shard_spans
                  for span in spans
                  if span.parent < 0 and inside(span, window)]
    return overlap_s(collects, shard_work)
