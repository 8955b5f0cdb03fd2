"""The CPUs this process may use, and calls split across forked processes.

Table ingest and scoring are pure Python, so threads cannot share them
(the GIL); ``in_processes`` runs them in children made with ``os.fork``.
A child shares the parent's memory as it was at the fork, so a call's
arguments are never pickled (a spawned child would import the package
again and be sent its inputs): only its result comes back, over a pipe.
Each caller splits its work by a fixed minimum share per worker, so small
inputs stay in this process, and joins the results in order, so every
output equals the one-process output byte for byte.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from collections.abc import Callable

from .errors import AdapterQaError


def usable_cpus() -> int:
    """The CPUs this process may run on; every CPU where the platform has
    no ``os.sched_getaffinity`` (it is Linux-only)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(size: int, share: int) -> int:
    """Workers for ``size`` units of work when each must take at least
    ``share`` of them: at most one per usable CPU, and at least one."""
    return max(1, min(usable_cpus(), size // share))


def _child(call: Callable[[], object], write_fd: int):
    """Run ``call`` in a forked child, send ``pickle((ok, value or
    exception))`` to ``write_fd`` and end the child: with status 0 once
    that is sent, else 1. It never returns, and flushes nothing that the
    parent had buffered."""
    status = 1
    try:
        try:
            payload = (True, call())
        except BaseException as exc:  # raised again in the parent
            payload = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def in_processes(calls: list[Callable[[], object]]) -> list:
    """Run ``calls[0]`` in this process and each other call in a child made
    with ``os.fork``. Returns the results in order once every call has
    ended, or raises the error of the lowest-numbered call that failed; a
    child that ends without a result is an ``AdapterQaError``.

    A lone call runs as a plain call, and every call runs in this process,
    in order, where the platform has no ``os.fork`` or another thread is
    alive: a child would inherit any lock such a thread holds, but not the
    thread that releases it. (OpenBLAS stops its own threads before a fork
    and starts them again when next called, so those do not count.) Every
    child is reaped before this returns or raises, and killed first when
    this process stops waiting for it: a lower-numbered call failed, or
    this process was interrupted.
    """
    if len(calls) == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [call() for call in calls]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), until reaped
    try:
        for k in range(1, len(calls)):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child(calls[k], write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [calls[0]()]
        while children:
            pid, read_fd = children[0]
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            os.close(read_fd)
            if not data:
                raise AdapterQaError(f"worker {len(results)} ended without a result "
                                     f"(exit status {os.waitstatus_to_exitcode(status)})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, read_fd in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            os.close(read_fd)
