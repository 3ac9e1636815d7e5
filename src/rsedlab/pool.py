"""An ordered thread pool for the independent work items of one kernel
call, and the one BLAS policy: BLAS never threads, this module owns the
cores.

The column-batch f-average and the small-K ZZ trace kernel hand their items
to _ordered_map, which runs them on WORKERS threads and yields the results
in item order, so every ordered reduction over them adds the same floats in
the same order as a serial loop: the outputs do not depend on WORKERS.

cli.main runs every driver and verify inside one_blas_thread(), which sets
numpy's OpenBLAS to one thread, so no numpy product or eigensolver threads,
whatever its size or OPENBLAS_NUM_THREADS, and their outputs do not depend
on that variable either.  A threaded OpenBLAS call leaves one of its
threads spinning a full core for about 0.13 s after it returns (2 cores,
OpenBLAS 0.3.31: 23-28 ms of CPU in each of five successive 25 ms idle
windows), which a pool pass or the next product would otherwise share its
cores with.  scipy's separate OpenBLAS copy, which computes the Schur form,
keeps the environment's thread count.  Library calls made outside cli.main
run at whatever thread count numpy's BLAS has; wrap them in
one_blas_thread() for the same policy.
"""

from __future__ import annotations

import ctypes
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import cache
from itertools import chain, islice
from pathlib import Path

import numpy as np

WORKERS = len(os.sched_getaffinity(0))


@cache
def _numpy_blas_threads():
    """(get, set) for the thread count of the OpenBLAS that numpy's wheel
    bundles in numpy.libs, or None where numpy has no such library (conda,
    MKL or a system BLAS).  scipy's own OpenBLAS copy, in scipy.libs, is a
    separate library with its own count and is never matched."""
    path = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"), None)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run numpy's OpenBLAS on one thread inside the block and restore its
    previous thread count on exit; where that library cannot be found this
    does nothing."""
    blas = _numpy_blas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def zz_chunks_pooled(K: int) -> bool:
    """Whether the ZZ trace kernel at subsystem dimension K maps its seed
    chunks over the pool: K <= 64.  At K = 256 pooling the chunks gained
    nothing (trace-deep on 2 cores, one BLAS thread: 0.329 s pooled
    against 0.315 s inline, medians of 14 fresh processes), and each
    worker's buffers grow as chunk * (K/2)**2."""
    return K <= 64


def _ordered_map(fn: Callable, items: Iterable, scratch: Callable[[], object], threaded: bool = True) -> Iterator:
    """fn(item, buffers) for each item, yielded in item order.

    items is drawn lazily on the calling thread, at most WORKERS ahead of
    the result being yielded, so the work that produces an item (block
    positions, say) never runs on a worker.  Each fn call gets buffers made
    by scratch() that no concurrent call holds: at most WORKERS sets are
    made, and one set serves a serial run.  threaded=False, a single item,
    or WORKERS = 1 runs the items inline and starts no thread.
    """
    items = iter(items)
    head = list(islice(items, 2))
    if not threaded or WORKERS < 2 or len(head) < 2:
        bufs = scratch()
        for item in chain(head, items):
            yield fn(item, bufs)
        return
    free: list = []

    def run(item):
        bufs = free.pop() if free else scratch()  # list.pop and append are atomic
        try:
            return fn(item, bufs)
        finally:
            free.append(bufs)

    with ThreadPoolExecutor(WORKERS) as pool:
        pending = deque(pool.submit(run, item) for item in chain(head, islice(items, WORKERS - 2)))
        while pending:
            done = pending.popleft().result()
            pending.extend(pool.submit(run, item) for item in islice(items, 1))
            yield done
