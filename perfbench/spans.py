"""In-memory span tracer and the arithmetic the per-layer table rests on.

A span is one timed call at a layer boundary: ``name`` (the layer),
``start``/``end`` (``time.perf_counter`` seconds — CLOCK_MONOTONIC on
Linux, so timestamps from the service and shard processes line up with
the load generator's), ``parent`` (index of the enclosing span in the
same process, -1 for a root) and ``request`` (the tick or call sequence
number the span served, so spans of one request can be joined across
processes).  Spans stay in memory and are written out once, when the
traced process ends.

Self time: a span's duration minus the part of it its direct children
cover.  Children are properly nested because each tracer serves one
thread.  A call into a layer from inside the same layer (e.g.
``Postprocessor.flags`` calling ``AlarmStateMachine.update``) opens no
second span, so a layer's busy time never counts an interval twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    """One timed call at a layer boundary."""

    name: str
    start: float
    end: float
    parent: int
    request: int
    work: float = 0.0
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one thread of one process.

    ``wrap`` replaces a function or method on its owner with a timing
    wrapper; ``restore`` puts every original back.  Nothing is wrapped
    unless a traced run asks for it, so untraced runs execute the
    program's own code objects only.
    """

    def __init__(self, directory: Path | None = None,
                 clock: Callable[[], float] = time.perf_counter):
        #: Where this run's span files are written.
        self.directory = directory
        self.clock = clock
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def reset(self) -> None:
        """Drop recorded spans (wrappers stay installed)."""
        self.spans = []
        self.request = -1
        self._stack = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.request))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def traced(self, layer: str, func: Callable,
               work: Callable | None = None,
               new_request: bool = False) -> Callable:
        """``func`` wrapped in a ``layer`` span.

        Args:
            work: ``work(args, kwargs, result)`` gives the amount of
                work the call did (samples, windows, bytes...), stored
                on the span.
            new_request: Advance the request sequence number on entry
                (the call is one tick of the traced process).
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.innermost() == layer:
                return func(*args, **kwargs)
            if new_request:
                tracer.request += 1
            index = tracer.begin(layer)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.spans[index].error = True
                raise
            finally:
                tracer.finish(index)
            if work is not None:
                tracer.spans[index].work = float(work(args, kwargs, result))
            return result

        return wrapper

    def wrap(self, owner, attr: str, layer: str,
             work: Callable | None = None,
             new_request: bool = False) -> None:
        """Install a ``layer`` span around ``owner.attr`` until restore."""
        own = vars(owner).get(attr)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(
                self.traced(layer, raw.__func__, work, new_request)
            )
        else:
            replacement = self.traced(layer, raw, work, new_request)
        setattr(owner, attr, replacement)
        if own is None:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._undo:
            self._undo.pop()()

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps([asdict(span) for span in self.spans])
        )


def load_spans(path: str | Path) -> list[Span]:
    """Spans written by :meth:`Tracer.dump`."""
    return [Span(**span) for span in json.loads(Path(path).read_text())]


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus what direct children cover."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


@dataclass
class LayerTotal:
    """Sums over the spans of one span name."""

    busy: float = 0.0
    self: float = 0.0
    calls: int = 0
    work: float = 0.0
    errors: int = 0


def inside(span: Span, window: tuple[float, float] | None) -> bool:
    """Whether ``span`` lies wholly within ``window`` (None: anywhere)."""
    return window is None or window[0] <= span.start and span.end <= window[1]


def layer_totals(spans: list[Span], *,
                 window: tuple[float, float] | None = None
                 ) -> dict[str, LayerTotal]:
    """Per span name: busy (whole durations), self time, calls, work.

    Self times are taken over all of ``spans`` (one process's trace),
    then only spans wholly inside ``window`` (``perf_counter`` start
    and end, the same clock in every process) are summed.
    """
    own = self_times(spans)
    totals: dict[str, LayerTotal] = {}
    for span, self_s in zip(spans, own):
        if not inside(span, window):
            continue
        entry = totals.setdefault(span.name, LayerTotal())
        entry.busy += span.duration
        entry.self += self_s
        entry.calls += 1
        entry.work += span.work
        entry.errors += span.error
    return totals


def _merged(intervals):
    """Sorted, disjoint intervals covering the same points."""
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def overlap_s(a, b) -> float:
    """Length of time covered by some interval of ``a`` and of ``b``.

    Each argument is an iterable of ``(start, end)`` pairs; overlaps
    within one argument count once.
    """
    a, b = _merged(a), _merged(b)
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        total += max(0.0, hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def coverage_pct(named_self_s: float, wall_s: float) -> float:
    """Share of a traced wall time that named layers' self times explain."""
    if wall_s <= 0:
        raise ValueError(f"wall time must be positive, got {wall_s}")
    return 100.0 * named_self_s / wall_s


def overhead_pct(traced_wall_s: float, untraced_wall_s: float) -> float:
    """How much longer the traced pass took than the same untraced pass."""
    if untraced_wall_s <= 0:
        raise ValueError(
            f"untraced wall time must be positive, got {untraced_wall_s}"
        )
    return 100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s
