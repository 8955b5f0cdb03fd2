"""The CPUs this process may use, calls split across threads or forked
processes, and the allocator policy of training and the gradient audit.

The toy model's row shards spend their time in numpy, which releases the
GIL, so ``in_threads`` runs them on threads of this process. Table ingest
and scoring are pure Python, so threads cannot share them (the GIL);
``in_processes`` runs them in children made with ``os.fork``. A child
shares the parent's memory as it was at the fork, so a call's arguments
are never pickled (a spawned child would import the package again and be
sent its inputs): only its result comes back, over a pipe. Each caller
splits its work by a fixed minimum share per worker, so small inputs stay
in this process, and joins the results in order, so every output equals
the one-process output byte for byte.

Training allocates the same large arrays on every step, and the gradient
audit on every copy forward, and glibc by default gives freed blocks of
128 KiB or more back to the kernel, so each step would fault them in
again. ``keep_freed_heap`` has it keep them, and caps malloc's arenas at
one per usable CPU: ``in_threads`` starts a fresh thread for every call,
and on a busy host glibc would at times give it an arena of its own,
which then kept freed blocks of its own too.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import pickle
import signal
import threading
from collections.abc import Callable

import numpy as np

from .errors import AdapterQaError


def usable_cpus() -> int:
    """The CPUs this process may run on; every CPU where the platform has
    no ``os.sched_getaffinity`` (it is Linux-only)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# mallopt(3) parameters and the values keep_freed_heap gives them: blocks
# under 32 MiB come from the heap, and the heap keeps up to 64 MiB free at
# its top. On a 2-core host either alone made a train-full-shaped training
# step slower than both, since setting one stops glibc adjusting the other.
# And malloc opens at most one arena per usable CPU, so a fresh shard thread
# shares one, with the freed blocks it keeps, rather than opening another.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 * 2**20), (_M_TRIM_THRESHOLD, 64 * 2**20),
               (_M_ARENA_MAX, usable_cpus()))
_heap_kept: bool | None = None  # keep_freed_heap's result, once it has run


def _mallopt() -> Callable[[int, int], int] | None:
    """The C library's ``mallopt``, or None where it has none."""
    import ctypes  # only training and the audit need it

    try:
        return ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None


def keep_freed_heap() -> bool:
    """Have malloc keep freed blocks in the heap, for the next training
    step or audit forward to reuse without faulting in fresh pages
    (``HEAP_POLICY``), and say whether it does. The first call in a
    process sets the policy, and it holds for the rest of the process:
    mallopt cannot give back glibc's dynamic thresholds. Later calls do
    nothing. Where the C library has no ``mallopt``, or it refuses a
    setting, nothing changes but speed."""
    global _heap_kept
    if _heap_kept is None:
        mallopt = _mallopt()
        _heap_kept = mallopt is not None and all(
            mallopt(param, value) == 1 for param, value in HEAP_POLICY)
    return _heap_kept


def worker_count(size: int, share: int) -> int:
    """Workers for ``size`` units of work when each must take at least
    ``share`` of them: at most one per usable CPU, and at least one."""
    return max(1, min(usable_cpus(), size // share))


def in_threads(calls: list[Callable[[], object]]) -> list:
    """Run ``calls[0]`` on this thread and each other call on a thread of
    its own, each in a copy of this thread's context and under its numpy
    error state (numpy 2 keeps that state in the context, numpy 1 per
    thread). Returns the results in order once every call has ended, or
    raises the error of the lowest-numbered call that failed. A lone call
    runs as a plain call."""
    if len(calls) == 1:
        return [calls[0]()]
    results: list = [None] * len(calls)
    errors: list[BaseException | None] = [None] * len(calls)
    errstate = {**np.geterr(), "call": np.geterrcall()}

    def run(k: int):
        try:
            results[k] = calls[k]()
        except BaseException as exc:  # re-raised below, on the calling thread
            errors[k] = exc

    def run_off_thread(k: int):
        with np.errstate(**errstate):
            run(k)

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run_off_thread, k))
               for k in range(1, len(calls))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results


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
