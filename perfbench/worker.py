"""One benchmark job in a fresh process: set up, run one rsed driver, report.

    python3 perfbench/worker.py --workload W --seed S --dir JOBDIR [--smoke] [--trace]
    python3 perfbench/worker.py --warmup

Set-up is interpreter start, imports, and generating and validating the
config.  The job is one in-process call to `rsedlab.cli.main`, from the call
to its return.  The last line of stdout is a JSON object: `ready` (the
system-wide monotonic clock at the end of set-up), `wall_s`, `cpu_s` (user
plus system, all threads), `rss_kb` (ru_maxrss), `exit` and `error`.  With
--trace the spans go to JOBDIR/spans.json.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dir")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warmup", action="store_true", help="import only, then exit")
    args = parser.parse_args()

    from rsedlab import cli

    if args.warmup:
        return 0
    from workloads import config

    cfg = config(args.workload, args.seed, args.smoke)
    cfg_path = os.path.join(args.dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    cli.ExperimentConfig(**cfg).validate()
    argv = [cfg["experiment"], "--config", cfg_path, "--out", os.path.join(args.dir, "out"), "--threads", "1"]
    ready = time.monotonic()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(run_id=os.path.basename(args.dir))
        tracing.install(tracer)
    code, error = None, None
    cpu0, t0 = _cpu(), time.perf_counter()
    try:
        if tracer:
            with tracer.span(tracing.ROOT_SPAN):
                code = cli.main(argv)
        else:
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failed job is reported, not fatal to the benchmark
        traceback.print_exc()
        error = repr(exc)
    wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
    if tracer:
        tracer.restore()
        tracer.dump(os.path.join(args.dir, "spans.json"))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "wall_s": wall, "cpu_s": cpu, "rss_kb": rss_kb, "exit": code, "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
