"""An ordered thread pool for the independent work items of one kernel call.

The column-batch f-average and the small-K ZZ trace kernel hand their items
to _ordered_map, which runs them on WORKERS threads and yields the results
in item order, so every ordered reduction over them adds the same floats in
the same order as a serial loop: the outputs do not depend on WORKERS.
Each item's own arithmetic must stay on one thread too, so its BLAS
products are kept at most BLAS_SERIAL_SIZE multiply-adds if real and
COMPLEX_BLAS_SERIAL_SIZE if complex, which OpenBLAS runs on the calling
thread.  A larger product wakes OpenBLAS's threads, and they spin for a
while after it returns, so a product made just before a pool call is kept
to these sizes as well (subsystem._eigenpath's gates at K <= 64):
then the pool's threads and BLAS's never stack.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from itertools import chain, islice

WORKERS = len(os.sched_getaffinity(0))
# OpenBLAS runs a real GEMM of M * N * K <= 65536 * GEMM_MULTITHREAD_THRESHOLD
# (4) multiply-adds on one thread, whatever OPENBLAS_NUM_THREADS says (OpenBLAS
# 0.3.31 on 2 cores: serial up to 2**19, threaded from 2**20).
BLAS_SERIAL_SIZE = 1 << 18
# A complex GEMM is threaded from a far smaller size: on the same host 64 x 64
# x 8 = 2**15 complex multiply-adds run on one thread, 64 x 64 x 16 on two.
COMPLEX_BLAS_SERIAL_SIZE = 1 << 15


def zz_chunks_pooled(K: int) -> bool:
    """Whether the ZZ trace kernel at subsystem dimension K maps its seed
    chunks over the pool: where one Gram product, (K/2)**3 multiply-adds,
    runs on the calling thread for a real or a complex gate (K <= 64)."""
    return (K // 2) ** 3 <= COMPLEX_BLAS_SERIAL_SIZE


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
