"""The package's workers: the one thread pool that the encoder's window
shards and the quantizer's scan blocks run on, and `fork_map`'s forked
processes.

`run_parallel` runs a list of tasks at once, the first on the calling thread
and the rest on a module-level pool of one thread per further CPU this
process may run on (`os.sched_getaffinity`), made the first time a call has
more than one task; numpy releases the GIL inside its kernels. A process
pinned to one CPU never has more than one task per call, so it starts no
pool thread. A call made on a pool thread runs its tasks there, one after
another: submitting them would wait on the pool's own busy threads.

Work that holds the GIL, such as formatting text, gains nothing from
threads; `fork_map` runs it in forked children instead.
"""

from __future__ import annotations

import contextlib
import functools
import os
import signal
import threading
from collections.abc import Callable, Iterator
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


@contextlib.contextmanager
def fork_map(produce: Callable[[int], bytes], count: int) -> Iterator[Iterator[bytes]]:
    """An iterator over `produce(i)` for i in range(count), in order. Item i
    is made by worker i % k, k = min(cpus(), count) where `os.fork` exists
    and 1 elsewhere: worker 0 is the caller, as the iterator reaches the
    item; the others are children forked on entry, before the block opens
    anything, each sending its items over its own pipe as length-prefixed
    frames, which the iterator reads one at a time. A child that ends early
    makes the iterator raise OSError. Leaving the block reaps every child,
    killed first if the block raised.

    A child only runs `produce` and writes its pipe, and its body ends in
    `os._exit`: it never returns into the caller's stack, runs none of its
    cleanup and flushes no inherited buffer. `produce` must take no lock
    another thread may hold at the fork (Python 3.12+ warns on forking
    while the shard pool's threads are alive)."""
    k = max(1, min(cpus(), count)) if hasattr(os, "fork") else 1
    pids: list[int] = []
    readers: list = []
    try:
        for w in range(1, k):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as writer:  # the parent's end closes on leaving
                pid = os.fork()
                if pid == 0:
                    _serve(produce, range(w, count, k), writer, readers)
            pids.append(pid)
        yield (produce(i) if i % k == 0 else _receive(readers[i % k - 1]) for i in range(count))
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for reader in readers:
            reader.close()  # a child still writing gets EPIPE and exits
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(produce: Callable[[int], bytes], items: range, writer, readers: list) -> None:
    """A forked child's whole life: send `produce(i)` for each of `items` to
    `writer` as length-prefixed frames, then exit, with status 0 only if
    every frame was sent."""
    status = 1
    try:
        for reader in readers:
            reader.close()
        for i in items:
            data = produce(i)
            writer.write(len(data).to_bytes(8, "big"))
            writer.write(data)
        writer.flush()
        status = 0
    finally:
        os._exit(status)


def _receive(reader) -> bytes:
    """The next frame from a child's pipe; OSError if the child ended first."""
    head = reader.read(8)
    size = int.from_bytes(head, "big")
    data = reader.read(size)
    if len(head) < 8 or len(data) < size:
        raise OSError("a forked worker ended before it sent all its results")
    return data
