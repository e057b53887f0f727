"""The one thread pool that the encoder's window shards and the quantizer's
scan blocks run on.

`run_parallel` runs a list of tasks at once, the first on the calling thread
and the rest on a module-level pool of one thread per further CPU this
process may run on (`os.sched_getaffinity`), made the first time a call has
more than one task; numpy releases the GIL inside its kernels. A process
pinned to one CPU never has more than one task per call, so it starts no
pool thread. A call made on a pool thread runs its tasks there, one after
another: submitting them would wait on the pool's own busy threads.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_thread = threading.local()


def cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _mark_pool_thread() -> None:
    _thread.in_pool = True


@functools.cache
def _pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(
        max_workers=max(1, cpus() - 1), thread_name_prefix="motionprim-shard", initializer=_mark_pool_thread
    )


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's pool threads; it makes its own
    os.register_at_fork(after_in_child=_pool.cache_clear)


def run_parallel(tasks: list) -> list:
    """Run every task, the first on the calling thread and the others on the
    pool under the caller's numpy error state (numpy before 2.0 keeps it per
    thread); return their results in order once all have ended, or raise the
    first failure in task order."""
    if getattr(_thread, "in_pool", False):
        return [task() for task in tasks]
    err = np.geterr()
    futures = [_pool().submit(_with_errstate, err, task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        wait(futures)
    return [first, *(future.result() for future in futures)]


def _with_errstate(err: dict, task):
    with np.errstate(**err):
        return task()
