"""Steadiness command: repeat a workload and summarise each metric's spread.

    python3 perfbench/steady.py --workload paper --runs 5
    python3 perfbench/steady.py --workload all --runs 10 --seed0 1

Runs ``run.py`` (full size, untraced, default ``--seconds``) once per seed
``seed0 .. seed0+runs-1``, each in its own process, and prints per metric
the median, quartiles (Python's ``statistics.quantiles(values, n=4)``),
min, max and the quartile spread as a share of the median — the figure
each bound in BENCHMARK.json is compared with — after one line per run
with its wall time and metric values.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from run import WORKLOAD_NAMES, run_in_process


def run_once(workload: str, seed: int):
    t0 = time.perf_counter()
    result, proc = run_in_process(workload, seed)
    wall = time.perf_counter() - t0
    if result is None:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return result, wall


def summarise(workload: str, results: list[dict], walls: list[float]) -> None:
    names = list(results[0]["metrics"])
    print(f"\n== {workload}: {len(results)} runs, wall "
          f"{min(walls):.1f}-{max(walls):.1f} s per run")
    print(f"{'metric':<24} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'min':>11} {'max':>11} {'iqr/med':>8}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<24} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} "
              f"{min(values):>11.4f} {max(values):>11.4f} {spread:>8.3f}")
    failed = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(failed)}; "
          f"all correct: {all(r['correct'] for r in results)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for workload in names:
        results, walls = [], []
        for i in range(args.runs):
            result, wall = run_once(workload, args.seed0 + i)
            results.append(result)
            walls.append(wall)
            print(f"{workload} seed {args.seed0 + i} wall {wall:.1f} s: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
            ), flush=True)
        summarise(workload, results, walls)
    return 0


if __name__ == "__main__":
    sys.exit(main())
