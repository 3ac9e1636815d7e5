"""The ordered pool of the column-batch f-average and the small-K ZZ kernel:
the same bits at any worker count, no thread for a single item or for
K >= 128, and the traced layers called on the calling thread only."""

import json
import sys
import threading

import numpy as np
import pytest

from rsedlab import cli, otoc, pool, subsystem
from rsedlab.bitcore import SystemShape
from rsedlab.cli import hadamard_sign_f_average, main, scaling_curve
from rsedlab.otoc import otoc_zz_exact, otoc_zz_f_average, otoc_zz_sampled
from rsedlab.randomness import SubsetPermutation, sample_permutation, sample_sign_function
from rsedlab.rng import RngSeed
from rsedlab.rsed import RsedOperator
from rsedlab.subsystem import column_batches, hadamard_layer, hadamard_sign_power, random_sign_hadamard, unitary_power


def _executors(monkeypatch) -> list[int]:
    """Record the worker count of every executor the pool starts."""
    started, executor = [], pool.ThreadPoolExecutor

    def counted(workers):
        started.append(workers)
        return executor(workers)

    monkeypatch.setattr(pool, "ThreadPoolExecutor", counted)
    return started


def _at_each_worker_count(monkeypatch, fn) -> list:
    """fn() with the pool's worker count patched to 1, 2 and 3; each of 2
    and 3 must start an executor of that many workers."""
    started, results = _executors(monkeypatch), []
    for workers in (1, 2, 3):
        monkeypatch.setattr(pool, "WORKERS", workers)
        del started[:]
        results.append(fn())
        assert set(started) == ({workers} if workers > 1 else set())
    return results


@pytest.mark.parametrize("n, k", [(16, 5), (17, 4)], ids=["table", "feistel"])
def test_zz_values_are_independent_of_the_worker_count(monkeypatch, n, k):
    """8 seed chunks (exact) and 8 chunks of draws (sampled), a real and a
    complex gate in one call: the same estimates bit for bit at 1, 2 and 3
    workers.  n = 17 is the Feistel permutation."""
    shape = SystemShape(n, k)
    chunk = otoc._CHUNK_ENTRIES // shape.subdim**2
    assert shape.num_seeds == 8 * chunk
    p, f = sample_permutation(shape, RngSeed(60, n)), sample_sign_function(shape, RngSeed(61, n))
    u = random_sign_hadamard(k, RngSeed(62, k))
    gates = [unitary_power(u, 3), unitary_power(u, 0.5)]
    assert [g.matrix.dtype for g in gates] == [np.float64, np.complex128]

    def estimates():
        exact = otoc_zz_exact(p, f, 0, n - 1, gates)
        sampled = otoc_zz_sampled(p, f, 0, n - 1, gates, 8 * chunk - 5, RngSeed(63))
        return [(e.value, e.std_error) for e in exact + sampled]

    first, *rest = _at_each_worker_count(monkeypatch, estimates)
    assert all(r == first for r in rest)


@pytest.mark.parametrize("k", [10, 12])
def test_f_average_is_independent_of_the_worker_count(monkeypatch, k):
    """8 (k = 10) and 128 (k = 12) column batches summed on 1, 2 and 3
    workers: each value equals the dense gate's sum bit for bit."""
    seed = RngSeed(64, k)
    assert len(column_batches(k)) == {10: 8, 12: 128}[k]
    dense = otoc_zz_f_average(hadamard_sign_power(k, seed, 4))
    assert _at_each_worker_count(monkeypatch, lambda: hadamard_sign_f_average(k, seed, 4)) == [dense] * 3


def test_scaling_curve_is_independent_of_the_worker_count(monkeypatch):
    """The scaling curve's points (k = 4, 7, 9, 12), recomputed past the
    memo at each worker count."""
    curve = scaling_curve.__wrapped__
    first, *rest = _at_each_worker_count(monkeypatch, lambda: curve((4, 6, 8, 11), 4, 1, 65))
    assert all(r == first for r in rest)


def test_each_concurrent_call_holds_its_own_buffers(monkeypatch):
    """4 workers on at most 2 cores, a 1 us switch interval and 400 items:
    each call fills its buffers with its item and reads them back after
    NumPy calls that release the interpreter lock, so a set shared by two
    running calls would read back a wrong item.  The results come back in
    item order, and at most 4 sets are made."""
    monkeypatch.setattr(pool, "WORKERS", 4)
    made, out = [], []

    def scratch():
        made.append(1)
        return np.empty(1 << 14)

    def fn(item, buf):
        buf.fill(item)
        np.sqrt(buf * buf, out=buf)
        return item, float(buf.min()), float(buf.max())

    def run():
        out.extend(pool._ordered_map(fn, range(400), scratch))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert out == [(i, float(i), float(i)) for i in range(400)]
    assert 2 <= len(made) <= 4


def test_single_items_and_large_blocks_start_no_thread(monkeypatch):
    """At 2 workers, a one-chunk ZZ call (criterion 2's n = 8, k = 3), a
    one-batch f-average (k <= 8) and a K = 128 call of 2 chunks all run on
    the calling thread: starting an executor raises."""

    def refuse(workers):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr(pool, "WORKERS", 2)
    monkeypatch.setattr(pool, "ThreadPoolExecutor", refuse)
    for n, k, chunks in ((8, 3, 1), (12, 7, 2)):
        shape = SystemShape(n, k)
        assert -(-shape.num_seeds // max(1, otoc._CHUNK_ENTRIES // shape.subdim**2)) == chunks
        p, f = sample_permutation(shape, RngSeed(66, n)), sample_sign_function(shape, RngSeed(67, n))
        otoc_zz_exact(p, f, 0, n - 1, [hadamard_layer(k)])
        otoc_zz_sampled(p, f, 0, n - 1, [hadamard_layer(k)], 20, RngSeed(68))
    for k in (3, 8):
        assert len(column_batches(k)) == 1
        hadamard_sign_f_average(k, RngSeed(69, k), 4)


def test_traced_layers_run_on_the_calling_thread(tmp_path, monkeypatch):
    """perfbench/tracing.py keeps one span stack and needs its wrapped
    layers called on the driver's thread: at 2 workers, otoc-trace at
    n = 17, k = 4 (8 chunks of Feistel positions) and otoc-scaling call
    block_positions, forward_array and cli.otoc_zz_f_average on the
    calling thread only, while the pool runs."""
    monkeypatch.setattr(pool, "WORKERS", 2)
    started = _executors(monkeypatch)
    threads = {"block_positions": [], "forward_array": [], "otoc_zz_f_average": []}

    def recorded(fn, name):
        def wrapper(*args, **kwargs):
            threads[name].append(threading.get_ident())
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(RsedOperator, "block_positions", recorded(RsedOperator.block_positions, "block_positions"))
    monkeypatch.setattr(SubsetPermutation, "forward_array", recorded(SubsetPermutation.forward_array, "forward_array"))
    monkeypatch.setattr(cli, "otoc_zz_f_average", recorded(cli.otoc_zz_f_average, "otoc_zz_f_average"))
    configs = [
        {"experiment": "otoc-trace", "n": 17, "k": 4, "sites": [0, 16], "ensemble": 2, "t_grid": [0.0, 0.5, 2.0]},
        {"experiment": "otoc-scaling", "n_list": [4, 6, 8, 11], "t_fixed": 4, "ensemble": 1, "seed": 70},
    ]
    for cfg in configs:
        del started[:]
        path = tmp_path / f"{cfg['experiment']}.json"
        path.write_text(json.dumps(cfg))
        assert main([cfg["experiment"], "--config", str(path), "--out", str(tmp_path / cfg["experiment"])]) == 0
        assert started and set(started) == {2}
    assert len(threads["block_positions"]) == 2 * 8 and threads["forward_array"]
    assert {t for ts in threads.values() for t in ts} == {threading.get_ident()}


@pytest.mark.parametrize("u_spec", [{"type": "random_sign_hadamard"}, {"type": "pauli_syk"}], ids=["power", "evolve"])
def test_fractional_powers_and_zz_products_stay_on_one_blas_thread(tmp_path, monkeypatch, u_spec):
    """otoc-trace at the Feistel shape n = 17, k = 6 with fractional t: every
    complex product that unitary_power (or evolve, for spin-SYK) and the ZZ
    kernel make is at most pool.COMPLEX_BLAS_SERIAL_SIZE multiply-adds and
    every real one at most pool.BLAS_SERIAL_SIZE, so no OpenBLAS thread
    wakes beside the pool's."""
    shapes = {np.dtype(np.float64): [], np.dtype(np.complex128): []}

    class CountedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, a, b, out):
            shapes[out.dtype].append((a.shape[-2], a.shape[-1], b.shape[-1]))
            return np.matmul(a, b, out=out)

    monkeypatch.setattr(subsystem, "np", CountedNumpy())
    monkeypatch.setattr(otoc, "np", CountedNumpy())
    cfg = {"experiment": "otoc-trace", "n": 17, "k": 6, "sites": [0, 16], "ensemble": 1, "t_grid": [0.5, 1.0, 1.5], "u_spec": u_spec}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["otoc-trace", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    real, complex_ = shapes.values()
    assert max(map(np.prod, real), default=0) <= pool.BLAS_SERIAL_SIZE
    assert max(map(np.prod, complex_)) == pool.COMPLEX_BLAS_SERIAL_SIZE
    assert (8, 64, 64) in complex_ and (32, 32, 32) in complex_  # a gate's row slice and a Gram product
    assert bool(real) == (u_spec["type"] == "random_sign_hadamard")  # its t = 1 gate is real
