"""Fork-parallel map for the per-block encoding work of one feed.

The paper's encoding kernel (Fig. 2) spreads the XOR/popcount majority
of many samples across the GPU's cores.  On a CPU the NumPy tile loop
hands the GIL over on every one of its short ufunc calls, so threads do
not scale; forked processes do.  :func:`fork_map` splits a list of
items into contiguous shares, forks one child for every share but the
last, computes the last share itself while the children work, and
returns every result in item order.  Each child pickles its results to
a pipe and leaves with ``os._exit``, so it runs no exit handler and
flushes none of the parent's buffered output.

A map forks only when that is safe and pays off; otherwise it is a
plain, lazy ``map``:

* ``os.fork`` exists and at least two CPUs are usable;
* no other Python thread is alive (a fork copies only the calling
  thread, so a lock another thread holds would stay held in the child);
* there are at least two items, and the caller's work estimate reaches
  :data:`FORK_MIN_BYTES`.

``fn`` must be a pure function of its item and of state that does not
change during the call: a child works on a copy-on-write snapshot of
the parent, and nothing it changes reaches the parent.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
import warnings
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Smallest work estimate, in gathered bytes, worth a fork.  Below it
#: the fork, pickle and reap overhead outweighs the share of the work a
#: child takes off the parent (see docs/benchmarking.md for the sweep).
FORK_MIN_BYTES = 64 * 1024 * 1024


class ForkWorkerError(RuntimeError):
    """A forked child failed; the message carries its traceback.

    Raised directly when a child died without reporting (killed, or its
    exception could not be pickled back); otherwise it is the
    ``__cause__`` of the child's own exception, re-raised in the parent.
    """


def _usable_cpus() -> list[int]:
    """The CPUs this process may run on, in ascending order."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _worker_cpus(n_items: int, work_bytes: int) -> list[int]:
    """One CPU per process to spread ``n_items`` over; under 2: serial."""
    if (
        n_items < 2
        or work_bytes < FORK_MIN_BYTES
        or not hasattr(os, "fork")
        or threading.active_count() != 1
    ):
        return []
    return _usable_cpus()[:n_items]


def _pin(cpu: int) -> None:
    """Keep this process on ``cpu``, where the platform allows it.

    A scheduler may leave a freshly forked child on its parent's CPU
    for the child's whole short life (measured on a 2-vCPU x86 VM), so
    each process of a map gets a CPU of its own.
    """
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # no affinity API, or not usable
        pass


def fork_map(
    fn: Callable[[T], R], items: Sequence[T], work_bytes: int
) -> Iterable[R]:
    """``map(fn, items)``, spread over forked children when it pays.

    Args:
        fn: Pure function of one item (see the module docstring).
        items: The inputs, split into contiguous per-process shares.
        work_bytes: The caller's estimate of the work in ``items``,
            compared against :data:`FORK_MIN_BYTES`.

    Returns:
        The results in item order: a lazy ``map`` when the call runs
        serially, a list when it forked.  If a fork fails (``OSError``),
        the parent computes the shares left without a child.

    Raises:
        Whatever ``fn`` raised, in the parent or in a child; a child's
        exception is chained from a :class:`ForkWorkerError` holding its
        traceback.  :class:`ForkWorkerError` itself when a child died
        without reporting.  Either way every child has been reaped and
        every pipe closed.
    """
    cpus = _worker_cpus(len(items), work_bytes)
    n_workers = len(cpus)
    if n_workers < 2:
        return map(fn, items)
    size, extra = divmod(len(items), n_workers)
    bounds = [i * size + min(i, extra) for i in range(n_workers + 1)]
    shares = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    affinity = (
        os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    )
    children: list[tuple[int, int]] = []  # (pid, read fd) in share order
    try:
        for cpu, share in zip(cpus, shares[:-1]):
            child = _fork_child(fn, share, cpu)
            if child is None:
                break
            children.append(child)
        _pin(cpus[-1])
        own = [fn(item) for share in shares[len(children):] for item in share]
        results: list[R] = []
        while children:
            results.extend(_collect(*children.pop(0)))
        return results + own
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if affinity is not None:
            os.sched_setaffinity(0, affinity)


def _fork_child(
    fn: Callable, share: Sequence, cpu: int
) -> tuple[int, int] | None:
    """Fork a child computing ``share``; ``None`` if the fork failed."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns on fork() whenever the OS thread count is
            # above one, which includes the BLAS pool threads.  The fork
            # is safe here all the same: no other Python thread is alive
            # (checked by _worker_cpus), BLAS quiesces its pool around
            # fork, and the child runs only NumPy element-wise and
            # gather kernels plus pickle before os._exit.
            warnings.filterwarnings(
                "ignore", message=r".*fork\(\) may lead to deadlocks",
                category=DeprecationWarning,
            )
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        os.close(read_fd)
        _run_child(fn, share, cpu, write_fd)
    os.close(write_fd)
    return pid, read_fd


def _run_child(
    fn: Callable, share: Sequence, cpu: int, write_fd: int
) -> None:
    """Child side: compute, report ``(traceback, payload)``, exit."""
    status = 1
    try:
        _pin(cpu)
        # A signal meant for the parent (a service's drain handler, an
        # asyncio wakeup fd) must not run its handler here.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.set_wakeup_fd(-1)
        try:
            report = pickle.dumps((None, [fn(item) for item in share]))
        except Exception as exc:
            report = pickle.dumps((traceback.format_exc(), _pickled(exc)))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(report)
        status = 0
    finally:
        os._exit(status)


def _pickled(exc: Exception) -> bytes | None:
    try:
        return pickle.dumps(exc)
    except Exception:  # an exception object pickle cannot carry
        return None


def _collect(pid: int, read_fd: int) -> list:
    """Read one child's report to EOF, reap it, return its results."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            report = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not report:
        raise ForkWorkerError(
            f"forked worker {pid} exited without a result "
            f"(exit code {os.waitstatus_to_exitcode(status)})"
        )
    # Bytes written by our own child (same program, same process image).
    tb, payload = pickle.loads(report)
    if tb is None:
        return payload
    error = ForkWorkerError(f"forked worker {pid} failed:\n{tb}")
    try:
        exc = pickle.loads(payload) if payload is not None else None
    except Exception:  # the exception pickled but cannot be rebuilt
        exc = None
    if exc is None:
        raise error
    raise exc from error
