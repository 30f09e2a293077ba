"""Fork-join over fixed shares of a list, the package's one parallel mechanism.

``fork_map(fn, items, processes)`` deals ``items`` into at most
``processes`` shares.  This process computes the first share, and one child
forked from it computes each other share and sends its results back, pickled,
through a pipe.  A child sees the caller's state as it was at the fork, so
``fn`` may be any function, closures and test doubles among them; only the
results and exceptions cross a process boundary.  ``numpy.random``, which
every sample and forest draws from, is loaded before the first fork, so
that no child loads it again.  No process outlives the call: every child
is reaped, on success and on failure, before it returns or raises.
"""

from __future__ import annotations

import os
import pickle
import sys
from collections.abc import Callable, Sequence


def _deal(weights: Sequence[float], k: int) -> list[list[int]]:
    """The item indices of each of at most ``k`` non-empty shares: items in
    order of falling weight (ties by index), each to the share that weighs
    least so far (ties to the first)."""
    shares: list[list[int]] = [[] for _ in range(min(k, len(weights)))]
    loads = [0.0] * len(shares)
    for i in sorted(range(len(weights)), key=lambda i: (-weights[i], i)):
        p = loads.index(min(loads))
        shares[p].append(i)
        loads[p] += weights[i]
    return shares


def _child(fn, items, share, fd) -> None:
    """A child's whole life: ``fn`` of its share's items, pickled to ``fd``
    as ``(True, results)`` or ``(False, exception)``, then ``os._exit``.  An
    exception that does not survive a pickle round trip goes as a
    RuntimeError carrying its repr."""
    status = 1
    try:
        try:
            payload = pickle.dumps((True, [fn(items[i]) for i in share]), -1)
        except BaseException as exc:  # noqa: BLE001 - the parent re-raises it
            try:
                payload = pickle.dumps((False, exc), -1)
                pickle.loads(payload)
            except BaseException:  # noqa: BLE001
                payload = pickle.dumps((False, RuntimeError(repr(exc))), -1)
        with os.fdopen(fd, "wb") as out:
            out.write(payload)
        status = 0
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BaseException:  # noqa: BLE001
                pass
        os._exit(status)


def _reap(pid: int, fd: int) -> tuple[bytes, int]:
    """A child's bytes from its pipe, read to the end, and its wait status."""
    with os.fdopen(fd, "rb") as pipe:
        data = pipe.read()
    return data, os.waitpid(pid, 0)[1]


def _outcome(pid: int, data: bytes, status: int) -> tuple[bool, object]:
    """A reaped child's ``(ok, value)``."""
    if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0 and data:
        return pickle.loads(data)
    if os.WIFSIGNALED(status):
        why = f"was killed by signal {os.WTERMSIG(status)}"
    else:
        why = f"exited with status {os.waitstatus_to_exitcode(status)}"
    return False, RuntimeError(f"fork_map worker {pid} {why} without a result")


def fork_map(fn: Callable, items: Sequence, processes: int = 1,
             weights: Sequence[float] | None = None) -> list:
    """``[fn(item) for item in items]``, computed in ``processes`` processes.

    The items are dealt into at most ``processes`` non-empty shares,
    heaviest first (by ``weights``, one per item; equal if not given), each
    to the lightest share so far.  This process computes the first share
    while one forked child computes each other, so ``len(items) - 1``
    children at most, and none for one process or one item.  The results come back in item order.  If any
    share fails, the exception of the first failing share (this process's
    first) is raised once every child has been reaped; a child that ends
    without sending a result is a RuntimeError naming its exit status.
    """
    shares = _deal([1] * len(items) if weights is None else weights, processes)
    if len(shares) <= 1:
        return [fn(item) for item in items]
    # Loaded once here, so that no child loads it again: every sample and
    # every forest draws from it.
    import numpy.random  # noqa: F401
    for stream in (sys.stdout, sys.stderr):  # no buffered text is written twice
        stream.flush()
    children = []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child(fn, items, share, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        try:
            outcomes = [(True, [fn(items[i]) for i in shares[0]])]
        except Exception as exc:
            outcomes = [(False, exc)]
    finally:
        # every child forked so far, also when a pipe, a fork or an
        # interrupt breaks this off
        reaped = [(pid, *_reap(pid, fd)) for pid, fd in children]
    outcomes += [_outcome(*child) for child in reaped]
    for ok, value in outcomes:
        if not ok:
            raise value
    results: list = [None] * len(items)
    for share, (_, values) in zip(shares, outcomes):
        for i, value in zip(share, values):
            results[i] = value
    return results
