"""Steadiness and exact-count check for the benchmark.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload pubsub_fanout --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed and reports, for every
end-to-end metric in ``BENCHMARK.json``, the distance between the first
and third quartile of its values as a share of their median, next to
the metric's bound.  It then runs ``run.py --trace 1`` twice at the
first seed and requires every count to be identical in all repetitions
of that seed, traced or not.  A count that differs is a determinism defect
and is reported as such, never averaged.  Exits 1 when any run is
incorrect, any spread except ``setup_s``'s exceeds its bound, or any
count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload: str, seed: int, seconds: int,
              trace: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed for {workload} seed {seed}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench" /
         f"run-{workload}-seed{seed}-trace{trace}.json").read_text())
    result["counts"] = [rep["counts"] for rep in record["reps"]]
    return result


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    ok = True

    runs = []
    for seed in args.seeds:
        result = bench_run(args.workload, seed, seconds, 0)
        runs.append(result)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)
        ok &= result["correct"] and result["failed"] == 0

    if len(runs) >= 2:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in runs]
            share = spread(values)
            within = share <= metric["bound"]
            if name != "setup_s":
                ok &= within
            print(f"{name}: median {statistics.median(values):.4f} "
                  f"{metric['unit']}, quartile spread {share:.4f} "
                  f"(bound {metric['bound']}, a third "
                  f"{metric['bound'] / 3:.4f}) "
                  f"{'ok' if within else 'OVER BOUND'}")

    seed = args.seeds[0]
    traced = [bench_run(args.workload, seed, seconds, 1) for _ in range(2)]
    reps = runs[0]["counts"] + [rep for run in traced for rep in run["counts"]]
    # Span counts exist only in traced runs: compare the two of them.
    reps += [{name: m["value"] for name, m in run["metrics"].items()
              if m["unit"] == "count"} for run in traced]
    identical = True
    for key in sorted(set().union(*reps)):
        seen = {rep[key] for rep in reps if key in rep}
        if len(seen) != 1:
            identical = False
            print(f"DETERMINISM DEFECT: {key} takes values {sorted(seen)} "
                  f"across the repetitions of seed {seed}")
    print(f"exact counts over every repetition of seed {seed}, traced and "
          f"untraced: {'identical' if identical else 'see above'}")
    ok &= identical and all(run["correct"] for run in traced)
    for run in traced:
        print(f"trace.overhead_s "
              f"{run['metrics']['trace.overhead_s']['value']:.4f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
