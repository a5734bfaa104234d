"""Fork-join over worker processes, for work made of independent tasks
whose results are float arrays.

The caller is worker 0 and ``os.fork`` starts workers 1..W-1 for one call
alone, so no pool outlives it. Every worker writes its results into arrays
made with ``shared_empty`` before the fork, which all workers see. Nothing
else crosses between processes but a failed worker's exception. A task
reads only what the fork copied and writes only its own part of a shared
array, so its results do not depend on the worker that ran it.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import sys
import threading

import numpy as np


def worker_count(tasks):
    """Workers to spread `tasks` independent tasks over: the CPUs this
    process may run on, at most one per task, when forking is safe and
    pays, and 1 otherwise. Forking is safe on Linux (macOS's Accelerate is
    not fork-safe) from a process that runs one thread (forking a
    multi-threaded process can deadlock the child). It pays when BLAS runs
    each call on one thread (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, is
    1), as BLAS's own threads would contend with the workers for the cores."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    if blas != "1" or sys.platform != "linux" or threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), tasks))


def shared_empty(shape):
    """An uninitialised float64 array of `shape` in memory that the workers
    forked after it share with the caller."""
    size = math.prod(shape)
    buffer = mmap.mmap(-1, max(8 * size, 1))  # an empty map is refused
    return np.frombuffer(buffer, np.float64, count=size).reshape(shape)


def for_each(fn, items):
    """Call fn(item) for every item of the sequence `items`, item k on
    worker k mod W, with W from ``worker_count``."""
    workers = worker_count(len(items))

    def work(k):
        for item in items[k::workers]:
            fn(item)

    fork_join(work, workers)


def fork_join(work, workers):
    """Run work(k) for every k below `workers`: k 0 on the caller, each
    other k in a child forked for it. Returns once every child has ended.
    An exception of the caller's own work(0) propagates; otherwise the
    first child's exception is raised again here, with its own type."""
    children = []
    try:
        for k in range(1, workers):
            children.append(_fork(work, k))
        work(0)
    finally:
        errors = [_reap(pid, fd) for pid, fd in children]
    for error in errors:
        if error is not None:
            raise error


def _fork(work, k):
    """Start work(k) in a child; its pid and the pipe it reports a failure on."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            work(k)
            status = 0
        except BaseException as exc:
            with os.fdopen(write, "wb") as fh:
                fh.write(_pickled(exc))
        finally:
            os._exit(status)  # no atexit handler or buffer flush of the caller's
    os.close(write)
    return pid, read


def _pickled(exc):
    """exc pickled, or a ChildProcessError naming it if it does not load back."""
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(ChildProcessError(f"{type(exc).__name__}: {exc}"))


def _reap(pid, fd):
    """Wait for child `pid`: the exception it sent down `fd`, a
    ChildProcessError if it failed without one, else None."""
    try:
        with os.fdopen(fd, "rb") as fh:
            data = fh.read()  # before waiting, so a long report cannot block
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if data:
        return pickle.loads(data)
    if code != 0:
        return ChildProcessError(f"worker process {pid} ended with exit code {code}")
    return None
