#!/usr/bin/env python3
"""Driver-level benchmark for rsedlab.

    python3 perfbench/run.py --workload trace-wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1

A closed loop with one client: each job is a fresh worker process
(perfbench/worker.py) that runs one `rsed` driver in-process through
`rsedlab.cli.main` on a config generated from --seed, and the next job
starts after the previous one has exited.  Jobs start while the time spent
in jobs so far plus the last job's time fits in --seconds, and at least
MIN_JOBS run.  Every job's output is checked against perfbench/reference.py
outside the timed region; a job fails if it raises, exits non-zero or its
output is wrong.

--trace 0 reports the end-to-end metrics, each the median over the jobs:
  wall_s       the driver call, from the call to its return, output writes included
  setup_s      worker start to ready: interpreter, imports, config generation and validation
  cpu_s        user plus system CPU time of the job, all threads
  peak_rss_mb  ru_maxrss of the worker process
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics of perfbench/README.md from the traced ones.

Stdout carries an `env` line (versions, cores, BLAS threads, git SHA), one
summary line per workload, and as its last line the JSON result
{"correct", "attempted", "failed", "metrics"}.  With --workload all the
metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(ROOT / "src"))

from tracing import coverage, layer_totals  # noqa: E402
from workloads import WORKLOADS, config  # noqa: E402

MIN_JOBS = 3
# A job takes under 10 s; a hung one is cut short enough that a run still
# ends within 180 s after --seconds 25 of jobs.
JOB_TIMEOUT_S = 60
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Span metrics are "<span name>.<calls|self_s>"; these two sum a span's count.
COUNTS = {
    "otoc.zz.block_traces": "otoc.otoc_zz_exact",
    "randomness.SubsetPermutation.forward_array.points": "randomness.SubsetPermutation.forward_array",
}
SPAN_METRICS = [
    "otoc.otoc_zz_exact.calls", "otoc.otoc_zz_exact.self_s", "otoc.zz.block_traces",
    "rsed.RsedOperator.block_positions.calls", "rsed.RsedOperator.block_positions.self_s",
    "randomness.SubsetPermutation.forward_array.self_s", "randomness.SubsetPermutation.forward_array.points",
    "randomness.sample_permutation.calls", "randomness.sample_permutation.self_s",
    "randomness.sample_sign_function.self_s",
    "subsystem.SubUnitary.validate.calls", "subsystem.SubUnitary.validate.self_s",
    "subsystem.hadamard_sign_power.self_s", "otoc.otoc_zz_f_average.self_s",
    "subsystem.schur.calls", "subsystem.schur.self_s",
    "subsystem.unitary_power.calls", "subsystem.unitary_power.self_s",
    "subsystem.parent_spectrum.calls", "subsystem.parent_spectrum.self_s",
    "subsystem.random_sign_hadamard.self_s",
    "spectra.level_spacing_stats.self_s", "spectra.ks_distance.self_s",
    "cli.driver.self_s", "cli.write_csv.self_s", "cli.write_json.self_s",
]
UNITS = {"peak_rss_mb": "MB", "cli.output_bytes": "bytes", "trace.coverage": "frac", "trace.overhead_frac": "frac"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric, "s" if metric.endswith("_s") else "count")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": openblas, "nproc": NPROC, "blas_threads": BLAS_THREADS, "git_sha": git_sha(),
    }


def run_job(workload: str, args, jobdir: Path, traced: bool) -> dict:
    """One worker process; returns its report plus setup_s, life_s, ok."""
    jobdir.mkdir()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed), "--dir", str(jobdir)]
    cmd += ["--smoke"] * args.smoke + ["--trace"] * traced
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "timeout": True, "life_s": time.monotonic() - t0, "problems": ["timed out"]}
    job = {"life_s": time.monotonic() - t0, "traced": traced}
    try:
        job.update(json.loads(proc.stdout.splitlines()[-1]))
    except (IndexError, json.JSONDecodeError):
        return dict(job, ok=False, problems=[f"worker exited {proc.returncode} without a report"])
    job["setup_s"] = job["ready"] - t0
    problems = [] if job["exit"] == 0 and job["error"] is None else [f"exit {job['exit']}, error {job['error']}"]
    return dict(job, ok=not problems, problems=problems)


def layer_metrics(jobdir: Path) -> dict:
    spans = json.loads((jobdir / "spans.json").read_text())["spans"]
    totals = layer_totals(spans)
    out = {}
    for metric in SPAN_METRICS:
        span, field = (COUNTS[metric], "count") if metric in COUNTS else metric.rsplit(".", 1)
        out[metric] = totals.get(span, {}).get(field, 0)
    out["cli.output_bytes"] = sum(f.stat().st_size for f in (jobdir / "out").iterdir())
    out["trace.coverage"] = coverage(spans)
    return out


def run_workload(name: str, args, tmp: Path) -> dict:
    from reference import check, compute

    cfg = config(name, args.seed, args.smoke)
    ref = compute(cfg)
    # compile and cache the imports once, so no job pays for it
    subprocess.run([sys.executable, str(WORKER), "--warmup"], check=True, timeout=JOB_TIMEOUT_S)
    jobs, spent = [], 0.0
    while len(jobs) < MIN_JOBS or spent + jobs[-1]["life_s"] <= args.seconds:
        jobdir = tmp / f"{name}-{len(jobs)}"
        job = run_job(name, args, jobdir, traced=bool(args.trace) and len(jobs) % 2 == 1)
        spent += job["life_s"]
        jobs.append(job)
        if job.get("timeout"):
            break
        if job["ok"]:
            try:
                job["problems"] = check(cfg, ref, jobdir / "out")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                job["problems"] = [f"unreadable output: {exc!r}"]
            job["ok"] = not job["problems"]
            if job["traced"]:
                job["layers"] = layer_metrics(jobdir)
        for problem in job["problems"]:
            print(f"{name} job {len(jobs) - 1}: {problem}", file=sys.stderr)
        shutil.rmtree(jobdir)
    return {"jobs": jobs, "metrics": summarize(jobs, bool(args.trace))}


def med(key: str, jobs: list[dict]) -> float:
    return statistics.median(j[key] for j in jobs)


def summarize(jobs: list[dict], trace: bool) -> dict:
    timed = [j for j in jobs if "wall_s" in j]
    if not timed:
        raise RuntimeError("no job produced timings")
    if not trace:
        return {
            "wall_s": med("wall_s", timed),
            "setup_s": med("setup_s", timed),
            "cpu_s": med("cpu_s", timed),
            "peak_rss_mb": med("rss_kb", timed) / 1024.0,
        }
    traced = [j for j in timed if "layers" in j]
    plain = [j for j in timed if not j["traced"]]
    if not traced or not plain:
        raise RuntimeError("traced mode needs a traced and an untraced job that completed")
    out = {m: statistics.median(j["layers"][m] for j in traced) for m in traced[0]["layers"]}
    out["trace.overhead_frac"] = med("wall_s", traced) / med("wall_s", plain) - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark itself")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rsedlab" / "cli.py").is_file():
        print(f"perfbench: no rsedlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads, here and in every worker
        os.environ[var] = str(BLAS_THREADS)

    print("env " + json.dumps(environment()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    base = ROOT / ".bench_build"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-", dir=base))
    try:
        results = {name: run_workload(name, args, tmp) for name in names}
    finally:
        shutil.rmtree(tmp)

    metrics, attempted, failed = {}, 0, 0
    for name, res in results.items():
        n_jobs = len(res["jobs"])
        n_failed = sum(not j["ok"] for j in res["jobs"])
        attempted, failed = attempted + n_jobs, failed + n_failed
        shown = "  ".join(f"{m}={v:.6g} {unit_of(m)}" for m, v in res["metrics"].items())
        print(f"{name}: {shown}  fail_frac={n_failed / n_jobs:g} ({n_failed}/{n_jobs} jobs; medians over jobs)")
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + m: {"value": v, "unit": unit_of(m)} for m, v in res["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
