"""The ordered pool of the column-batch f-average and the small-K ZZ kernel:
the same bits at any worker count, no thread for a single item or for
K >= 128, and the traced layers called on the calling thread only; and
numpy's OpenBLAS on one thread inside cli.main."""

import ctypes
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from rsedlab import cli, otoc, pool
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


def _numpy_openblas():
    """get() and set(n) of numpy's bundled OpenBLAS thread count, found here
    apart from pool's own lookup; skip where numpy bundles none."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        pytest.skip("numpy bundles no scipy-openblas64 library")
    lib = ctypes.CDLL(str(libs[0]))
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _write(tmp_path, cfg: dict) -> Path:
    path = tmp_path / f"{cfg['experiment']}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_main_runs_numpy_blas_on_one_thread_and_restores_the_count(tmp_path, monkeypatch):
    """Inside cli.main, in the driver and on the pool's workers (the k = 9
    f-average of the scaling curve, two column batches), numpy's OpenBLAS
    reports one thread; after main returns, from a driver or from a config
    error (exit 2), the count set before the call is back."""
    get, set_ = _numpy_openblas()
    previous, seen = get(), []
    sff = cli._DRIVERS["sff"]
    monkeypatch.setitem(cli._DRIVERS, "sff", lambda cfg, out: seen.append(get()) or sff(cfg, out))
    monkeypatch.setattr(pool, "WORKERS", 2)
    ordered_map = pool._ordered_map
    monkeypatch.setattr(cli, "_ordered_map", lambda fn, *a, **kw: ordered_map(lambda *b: seen.append(get()) or fn(*b), *a, **kw))
    runs = [
        ({"experiment": "sff", "n": 6, "k": 3}, 0),
        ({"experiment": "otoc-scaling", "n_list": [4, 6, 8], "t_fixed": 4, "ensemble": 1}, 0),
        ({"experiment": "sff", "n": 6, "k": 9}, 2),  # k > n: a config error
    ]
    set_(2)
    try:
        assert get() == 2
        for cfg, code in runs:
            assert main([cfg["experiment"], "--config", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "out")]) == code
            assert get() == 2
    finally:
        set_(previous)
    assert seen == [1] * 5  # the sff driver, then the batches: one each at k = 4 and 7, two at k = 9


@pytest.mark.parametrize(
    "cfg",
    [
        {"experiment": "otoc-trace", "n": 17, "k": 6, "sites": [0, 16], "ensemble": 1, "t_grid": [0.5, 1.0, 1.5]},
        {"experiment": "otoc-scaling", "n_list": [4, 6, 8], "t_fixed": 4, "ensemble": 1},
    ],
    ids=lambda cfg: cfg["experiment"],
)
def test_drivers_write_the_same_bytes_where_numpy_blas_cannot_be_found(tmp_path, monkeypatch, cfg):
    """With pool's lookup forced to find nothing, one_blas_thread leaves
    numpy's OpenBLAS at the two threads set before the call, and the driver
    writes the same bytes as with the pin."""
    get, set_ = _numpy_openblas()
    path = _write(tmp_path, cfg)
    assert main([cfg["experiment"], "--config", str(path), "--out", str(tmp_path / "pinned")]) == 0
    monkeypatch.setattr(pool, "_numpy_blas_threads", lambda: None)
    seen, driver = [], cli._DRIVERS[cfg["experiment"]]
    monkeypatch.setitem(cli._DRIVERS, cfg["experiment"], lambda c, o: seen.append(get()) or driver(c, o))
    previous = get()
    set_(2)
    try:
        assert main([cfg["experiment"], "--config", str(path), "--out", str(tmp_path / "unpinned")]) == 0
    finally:
        set_(previous)
    assert seen == [2]
    names = sorted(p.name for p in (tmp_path / "pinned").iterdir())
    assert names and all((tmp_path / "unpinned" / name).read_bytes() == (tmp_path / "pinned" / name).read_bytes() for name in names)
