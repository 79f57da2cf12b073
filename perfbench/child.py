"""One repetition of one workload, in the fresh interpreter it runs in.

Started by ``run.py`` as ``python3 perfbench/child.py --workload W
--seed N --trace 0|1``; prints one JSON object as its last stdout line.
With ``--trace 0`` only ``Kernel.run`` is wrapped (arm boundaries); with
``--trace 1`` every layer function in ``spans.py`` is wrapped too and
the spans are written to ``.perfbench/trace-<workload>-seed<N>.json``.
``--warmup`` only imports the program, so bytecode compilation never
lands in a timed repetition.  ``--setup-only`` imports the program and
builds every arm's world, stopping each arm at its first ``Kernel.run``:
a cheap extra sample of ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Iterations of the calibration loop (about 0.1 s on a 2020s core).
CALIBRATION_ITERATIONS = 1_000_000


def calibration_rate() -> float:
    """Iterations per second of a fixed pure-Python reference loop.

    Timed in the same process as the workload, so a slow repetition
    can be blamed on the host (a low rate) or on the code (a normal
    rate)."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return CALIBRATION_ITERATIONS / (perf_counter() - start)


def payload_counts(results: list) -> dict:
    """Counts read off the arm payloads; identical in every run mode."""
    delivered = duplicates = 0
    for result in results:
        for row in getattr(result.payload, "reader_rows", ()):
            delivered += row.delivered
            duplicates += row.duplicates
    return {
        "sim.events": sum(r.events for r in results),
        "pubsub.delivered": delivered,
        "pubsub.duplicates": duplicates,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warmup", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_start = perf_counter()
    from repro.experiments import scenario_registry  # noqa: F401
    from repro.experiments.runner import ExperimentRunner, source_tree_digest
    from repro.sim.eventq import scheduler_from_env
    import spans
    import workloads
    import_s = perf_counter() - import_start
    if args.warmup:
        return 0

    recorder = spans.Recorder()
    recorder.install(trace=bool(args.trace))
    runner = ExperimentRunner(jobs=1, cache=False)
    if args.setup_only:
        recorder.setup_only = True
        build_s = sum(
            recorder.run_arm(lambda: runner.run([spec]))[1]["build_s"]
            for spec in workloads.collect_specs(ROOT, args.workload,
                                                args.seed))
        print(json.dumps({"import_s": import_s, "build_s": build_s}))
        return 0
    calibration = calibration_rate()
    arms = []
    transport = {"segments": 0, "retransmissions": 0}

    def run_arm(spec):
        result, split = recorder.run_arm(lambda: runner.run([spec])[0])
        arms.append(split)
        if args.trace:
            for key, value in recorder.take_transport_counters().items():
                transport[key] += value
        return result

    verdict = workloads.run_workload(ROOT, args.workload, args.seed, run_arm)
    results = verdict.pop("results")

    out = {
        "wall_s": sum(a["wall_s"] for a in arms),
        "import_s": import_s,
        "build_s": sum(a["build_s"] for a in arms),
        "run_s": sum(a["run_s"] for a in arms),
        "analysis_s": sum(a["analysis_s"] for a in arms),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": payload_counts(results),
        "calibration_per_s": calibration,
        "provenance": {
            "host": platform.node(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "scheduler": scheduler_from_env(),
            "source_tree_digest": source_tree_digest(),
        },
        **verdict,
    }
    if args.trace:
        out["totals"] = recorder.totals()
        out["layer_self"] = recorder.layer_self()
        out["counts"].update({f"net.transport.{k}": v
                              for k, v in transport.items()})
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        dump = recorder.dump()
        dump["origin"] = STARTED
        (trace_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(dump) + "\n", encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
