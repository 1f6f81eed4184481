"""Benchmark entry point: one workload per process, oracle-checked.

    python3 perfbench/run.py --workload serve-inline --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload with the layer wrappers of
``tracing.py`` installed and reports the per-layer split plus the tracing
overhead on ``converge_s``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--workload
all`` runs every workload in its own process, one after another.
"""

from __future__ import annotations

import os

# Numeric-library thread pools are pinned to one thread before numpy is
# imported (here and, by inheritance, in pool workers), and the kernel
# backend is pinned to the numpy reference.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_BACKEND"] = "numpy"

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads  # noqa: E402


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The first ``SharedMemory`` a pooled session publishes starts the
    tracker, a helper process that otherwise outlives this one: it only
    exits after reading EOF once every holder of its pipe has gone.
    Registered before anything can start it, so it runs last at exit,
    after every pool and spec store has shut down.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        tracker_module._resource_tracker._stop()


atexit.register(stop_resource_tracker)

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
#: Default ``--seconds``: the ``run_seconds`` of BENCHMARK.json.
SECONDS = 22.0

#: End-to-end metrics: name -> (unit, how the run aggregates it).
END_TO_END = {
    "setup_s": ("s", "median over passes"),
    "converge_s": ("s", "median over passes"),
    "churn_users_per_s": ("1/s", "events / churn-phase seconds"),
    "join_ms_p50": ("ms", "median over joins"),
    "join_ms_p95": ("ms", "95th percentile over joins"),
    "round_ms_p50": ("ms", "median over churn rounds"),
    "peak_rss_mb": ("MB", "ru_maxrss of this process"),
    "optimum_s": ("s", "sum over the CORN suite"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help="cold-pass budget; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code paths in seconds")
    return parser.parse_args(argv)


def run_in_process(name: str, seed: int, seconds: float = SECONDS,
                   trace: int = 0, size: str = "full"):
    """One workload in a fresh process: ``(result, proc)``, where
    ``result`` is the parsed last line, or None if the run failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0 and lines
    return (json.loads(lines[-1]) if ok else None), proc


def run_all(args) -> int:
    """Every workload in a fresh process; prints each one's metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        result, proc = run_in_process(name, args.seed, args.seconds,
                                      args.trace, args.size)
        sys.stderr.write(proc.stderr)
        for line in proc.stdout.strip().splitlines()[:-1]:
            print(f"[{name}] {line}")
        if result is None:
            print(f"[{name}] FAILED with exit code {proc.returncode}")
            result = {"correct": False}
        results[name] = result
    ok = all(r.get("correct") for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program source {SRC / 'repro'} is missing; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import oracle
    import tracing

    tracer = tracing.SpanRecorder() if args.trace else None
    run = workloads.Run()
    try:
        workloads.WORKLOADS[args.workload](
            run, args.seed, size=args.size,
            passes=workloads.pass_count(args.workload, args.seconds), tracer=tracer,
        )
    except oracle.OracleError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(1, sum(run.attempted.values())),
                          "failed": 0, "metrics": {}}))
        return 1

    # An operation that raises aborts the run, so a finished run failed none.
    attempted, failed = sum(run.attempted.values()), 0
    print("operations: " + ", ".join(
        f"{k}={v}" for k, v in sorted(run.attempted.items())
    ) + f"; failed={failed}")
    if tracer is None:
        values = run.end_to_end()
        units = {k: u for k, (u, _) in END_TO_END.items()}
        n = {"setup_s": len(run.samples["setup_s"]),
             "converge_s": len(run.samples["converge_s"]),
             "join_ms_p50": len(run.samples["join_s"]),
             "join_ms_p95": len(run.samples["join_s"]),
             "round_ms_p50": len(run.samples["round_s"]),
             "optimum_s": len(run.samples["optimum_s"]),
             "churn_users_per_s": run.churn_events}
        for key in ("setup_s", "converge_s", "optimum_s"):
            print(f"samples {key}: " + " ".join(f"{v:.3f}" for v in run.samples[key]))
        for key, (unit, stat) in END_TO_END.items():
            count = f", n={n[key]}" if key in n else ""
            print(f"{key:<20} {values[key]:>12.4f} {unit:<4} ({stat}{count})")
    else:
        tracer.active = False
        untraced, traced = run.overhead_pair
        overhead = 100.0 * (traced / untraced - 1.0)
        values = tracing.layer_metrics(tracer, overhead)
        units = tracing.LAYER_METRICS
        for key, value in values.items():
            print(f"{key:<28} {value:>16.4f} {units[key]}")
        print(f"tracing overhead on converge_s: {overhead:+.1f}% "
              f"({traced:.3f} s traced vs {untraced:.3f} s untraced, same instance)")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in values}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
