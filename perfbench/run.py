"""Cold, serial, fresh-process benchmark of the paper's figure workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload packet_qos --seed 1 --seconds 25 --trace 0

Every repetition runs in a new interpreter (``child.py``) with one
``ExperimentRunner`` worker and the result cache off; every arm must
come back with ``cached == False``.  ``--trace 0`` repeats the workload
while another repetition fits in ``--seconds``, fills the rest with
set-up-only repetitions, and reports the end-to-end metrics as medians.  ``--trace 1`` runs one
untraced and one traced repetition and reports the per-layer split, the
tracing overhead and the exact-count comparison between the two.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, plus the run's provenance.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (HELD_OUT_SEED, REFERENCE_SEED, WORKLOADS,  # noqa: E402
                       simulation_seed)

#: The whole run, child processes included, ends within this.
DEADLINE_S = 170.0
#: Set-up samples wanted per untraced run; set-up-only probes fill the
#: time the full repetitions leave, up to this many.
SETUP_SAMPLES = 5


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, trace: bool, timeout: float,
              mode: str = "") -> Dict[str, Any]:
    """One repetition in a fresh interpreter; ``mode`` is ``""``,
    ``"--warmup"`` or ``"--setup-only"``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if mode:
        cmd.append(mode)
    env = dict(os.environ, REPRO_CACHE="0", REPRO_JOBS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"repetition exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    if mode == "--warmup":
        return {}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("repetition printed no result")
    return json.loads(lines[-1])


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, and 0.0 when the layer saw no work."""
    return part / whole if whole else 0.0


def layer_metrics(untraced: Dict[str, Any],
                  traced: Dict[str, Any]) -> Dict[str, tuple]:
    """Per-layer metrics: traced spans plus the untraced boundary split."""
    totals = traced["totals"]
    self_s = traced["layer_self"]
    counts = traced["counts"]

    def calls(name: str) -> int:
        return totals.get(name, [0])[0]

    def outer(name: str) -> int:
        return totals.get(name, [0, 0, 0, 0, 0])[4]

    def refused(name: str) -> int:
        return totals.get(name, [0, 0, 0, 0, 0])[3]

    def spent(layer: str) -> float:
        return self_s.get(layer, 0.0)

    enqueues = outer("net.qdisc.enqueue")
    drops = refused("net.qdisc.enqueue")
    segments = counts["net.transport.segments"]
    retransmissions = counts["net.transport.retransmissions"]
    requests = calls("scale.admission.request")
    rejected = refused("scale.admission.request")
    return {
        "sim.run_s": (untraced["run_s"], "s"),
        "sim.events": (counts["sim.events"], "count"),
        "sim.events_per_s": (_ratio(counts["sim.events"], untraced["run_s"]),
                             "1/s"),
        "sim.self_s": (spent("sim"), "s"),
        "sim.schedule_calls": (calls("sim.schedule"), "count"),
        "net.link.sends": (calls("net.link.send"), "count"),
        "net.link.self_s": (spent("net.link"), "s"),
        "net.nic.self_s": (spent("net.nic"), "s"),
        "net.qdisc.enqueues": (enqueues, "count"),
        "net.qdisc.drops": (drops, "count"),
        "net.qdisc.accept_ratio": (_ratio(enqueues - drops, enqueues),
                                   "ratio"),
        "net.qdisc.self_s": (spent("net.qdisc"), "s"),
        "net.router.self_s": (spent("net.router"), "s"),
        "net.transport.messages": (calls("net.transport.send_message"),
                                   "count"),
        "net.transport.segments": (segments, "count"),
        "net.transport.retransmissions": (retransmissions, "count"),
        "net.transport.useful_ratio": (
            _ratio(segments - retransmissions, segments), "ratio"),
        "net.transport.self_s": (spent("net.transport"), "s"),
        "oskernel.cpu.submits": (calls("oskernel.cpu.submit"), "count"),
        "oskernel.cpu.self_s": (spent("oskernel.cpu"), "s"),
        "oskernel.reserve.self_s": (spent("oskernel.reserve"), "s"),
        "orb.invokes": (calls("orb.invoke"), "count"),
        "orb.self_s": (spent("orb"), "s"),
        "fluid.flows": (calls("fluid.add_flow"), "count"),
        "fluid.set_rates": (calls("fluid.set_rate"), "count"),
        "fluid.self_s": (spent("fluid"), "s"),
        "scale.admission.requests": (requests, "count"),
        "scale.admission.admit_ratio": (_ratio(requests - rejected, requests),
                                        "ratio"),
        "scale.admission.self_s": (spent("scale.admission"), "s"),
        "scale.farm.self_s": (spent("scale.farm"), "s"),
        "pubsub.writes": (calls("pubsub.write.call"), "count"),
        "pubsub.write.self_s": (spent("pubsub.write"), "s"),
        "pubsub.register_s": (totals.get("pubsub.register.call",
                                         [0, 0.0])[1], "s"),
        "pubsub.delivered": (counts["pubsub.delivered"], "count"),
        "pubsub.duplicates": (counts["pubsub.duplicates"], "count"),
        "experiments.import_s": (untraced["import_s"], "s"),
        "experiments.build_s": (untraced["build_s"], "s"),
        "experiments.analysis_s": (untraced["analysis_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
    }


def consistency_problems(reps: List[Dict[str, Any]]) -> List[str]:
    """Counts and renderings must repeat exactly across repetitions of
    one seed, traced or not; a difference is a determinism defect."""
    problems = []
    first = reps[0]
    for rep in reps[1:]:
        if rep["render_digest"] != first["render_digest"]:
            problems.append("rendered outputs differ between repetitions")
        for key in first["counts"].keys() & rep["counts"].keys():
            if rep["counts"][key] != first["counts"][key]:
                problems.append(
                    f"determinism defect: {key} is {first['counts'][key]} "
                    f"in one repetition and {rep['counts'][key]} in another")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begin = perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (perf_counter() - begin)

    try:
        # Imports the program once, untimed, so bytecode compilation of
        # a fresh checkout never lands in a measured repetition.
        run_child(args.workload, args.seed, False, remaining(), "--warmup")
        measure_start = perf_counter()
        setups: List[float] = []
        if args.trace:
            reps = [run_child(args.workload, args.seed, False, remaining()),
                    run_child(args.workload, args.seed, True, remaining())]
        else:
            reps = []
            while True:
                reps.append(run_child(args.workload, args.seed, False,
                                      remaining()))
                elapsed = perf_counter() - measure_start
                if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                    break
            setups = [r["import_s"] + r["build_s"] for r in reps]
            probe_s = statistics.median(setups)
            while (len(setups) < SETUP_SAMPLES and perf_counter()
                   - measure_start + probe_s <= args.seconds):
                probe_start = perf_counter()
                probe = run_child(args.workload, args.seed, False,
                                  remaining(), "--setup-only")
                probe_s = perf_counter() - probe_start
                setups.append(probe["import_s"] + probe["build_s"])
    except ChildFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    problems = consistency_problems(reps)
    for rep in reps:
        problems.extend(rep["problems"])
    attempted = sum(rep["arms"] for rep in reps)
    failed = sum(rep["arms_failed"] for rep in reps)
    if problems:
        failed = attempted

    if args.trace:
        metrics = layer_metrics(reps[0], reps[1])
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                            "MB"),
        }

    provenance = dict(reps[0]["provenance"])
    provenance["calibration_per_s"] = statistics.median(
        r["calibration_per_s"] for r in reps)
    figure = WORKLOADS[args.workload]
    sim_seed = simulation_seed(args.seed)
    check = ("bytes of results/" + figure + ".txt"
             if sim_seed == REFERENCE_SEED else "shape criteria only")
    print(f"workload {args.workload} ({figure}) seed {args.seed} "
          f"simulated at seed {sim_seed} [reference seed {REFERENCE_SEED}, "
          f"held-out seed {HELD_OUT_SEED}] check: {check}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for i, rep in enumerate(reps):
        print(f"repetition {i + 1}{' (traced)' if args.trace and i else ''}: "
              f"wall_s {rep['wall_s']:.4f} import_s {rep['import_s']:.4f} "
              f"build_s {rep['build_s']:.4f} run_s {rep['run_s']:.4f} "
              f"peak_rss_mb {rep['peak_rss_mb']:.1f}")
    if setups:
        print("setup_s samples " + " ".join(f"{v:.4f}" for v in setups))
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"failed_arm_frac {failed / attempted} ratio "
          f"({failed} of {attempted} arms)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    record_dir = ROOT / ".perfbench"
    record_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "provenance": provenance, "reps": reps,
              "setups": setups, "problems": problems}
    (record_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
