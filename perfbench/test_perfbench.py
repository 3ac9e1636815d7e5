"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, coverage, layer_totals  # noqa: E402
from workloads import WORKLOADS, config  # noqa: E402


def _bench(*args, bench_dir=HERE):
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), *args], cwd=bench_dir.parent, capture_output=True, text=True,
        timeout=170,
    )
    return proc, (json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None)


def test_self_time_subtracts_children():
    spans = [
        ["cli.driver", 0.0, 10.0, -1, 0],
        ["otoc.otoc_zz_exact", 1.0, 7.0, 0, 64],
        ["rsed.RsedOperator.block_positions", 2.0, 3.0, 1, 0],
        ["rsed.RsedOperator.block_positions", 4.0, 4.5, 1, 0],
        ["cli.write_csv", 8.0, 9.0, 0, 0],
    ]
    totals = layer_totals(spans)
    assert totals["cli.driver"] == {"calls": 1, "self_s": 3.0, "count": 0}
    assert totals["otoc.otoc_zz_exact"] == {"calls": 1, "self_s": 4.5, "count": 64}
    assert totals["rsed.RsedOperator.block_positions"]["calls"] == 2
    assert totals["rsed.RsedOperator.block_positions"]["self_s"] == pytest.approx(1.5)
    assert coverage(spans) == pytest.approx(0.7)


def test_tracer_wraps_and_restores():
    class Owner:
        def work(self, xs):
            return len(xs)

    original = Owner.work
    tracer = Tracer("t")
    tracer.wrap(Owner, "work", "owner.work", count=lambda self, xs: len(xs))
    with tracer.span("root"):
        assert Owner().work([1, 2, 3]) == 3
    tracer.restore()
    assert Owner.work is original
    (root, work) = tracer.spans
    assert root[3] == -1 and work[0] == "owner.work" and work[3] == 0 and work[4] == 3


@pytest.mark.parametrize("workload", ["trace-deep", "level-stats"])
def test_check_rejects_a_perturbed_output(tmp_path, workload):
    from rsedlab.cli import main as rsed_main

    cfg = config(workload, seed=5, smoke=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert rsed_main([cfg["experiment"], "--config", str(cfg_path), "--out", str(out)]) == 0
    ref = reference.compute(cfg)
    assert reference.check(cfg, ref, out) == []
    if workload == "trace-deep":
        path = out / "otoc_trace.csv"
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-8)
        path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    else:
        path = out / "level_stats_summary.json"
        summary = json.loads(path.read_text())
        summary["spacing_count"] += 1
        path.write_text(json.dumps(summary))
    assert reference.check(cfg, ref, out)


def test_scaling_reference_matches_dense_power():
    from rsedlab.otoc import otoc_zz_f_average
    from rsedlab.rng import RngSeed
    from rsedlab.subsystem import hadamard_sign_power

    seed = RngSeed(3, 7)
    want = otoc_zz_f_average(hadamard_sign_power(7, seed, 3))
    assert abs(reference._hadamard_sign_f_average(7, seed, 3) - want) < 1e-12


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload(trace):
    proc, result = _bench("--workload", "all", "--smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS * len(WORKLOADS)
    names = ["wall_s", "setup_s", "cpu_s", "peak_rss_mb"] if trace == "0" else run.SPAN_METRICS + [
        "cli.output_bytes", "trace.coverage", "trace.overhead_frac"]
    for workload in WORKLOADS:
        for name in names:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == run.unit_of(name)
            assert np.isfinite(metric["value"])
    if trace == "1":
        m = result["metrics"]
        assert m["trace-wide.otoc.otoc_zz_exact.calls"]["value"] > 0
        assert m["scaling.otoc.otoc_zz_exact.calls"]["value"] == 0
        assert m["level-stats.subsystem.parent_spectrum.calls"]["value"] > 0


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "cpu_s", "peak_rss_mb"]
    per_layer = run.SPAN_METRICS + ["cli.output_bytes", "trace.coverage", "trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = _bench("--workload", "trace-wide", "--seed", "1", "--seconds", "1", bench_dir=tmp_path / HERE.name)
    assert proc.returncode != 0 and proc.stdout == ""
