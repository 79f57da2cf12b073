"""Command-line experiment runner: ``python -m repro <experiment>``.

Runs any of the paper's experiments with configurable parameters and
prints the paper-style tables — the quickest way to poke at a scenario
without writing a script.  The figure subcommands (``fig4`` ...
``pubsub``) are generated from the figure table in
:mod:`repro.experiments.scenario_registry`; at default flags each
prints exactly the text published to ``results/<figure>.txt``.

Independent simulation arms fan out across a process pool (``--jobs``)
and completed runs are served from the on-disk result cache; both are
wired through :mod:`repro.experiments.runner`, so results are
bit-identical at any worker count.

Examples::

    python -m repro fig4 --duration 20
    python -m repro --jobs 4 fig6
    python -m repro table1 --duration 120 --load-start 30 --load-end 90
    python -m repro table2 --duration 60
    python -m repro fig7 --arm 5-partial-filtering
    python -m repro faults --duration 60
    python -m repro route --routers 120 --topology wan
    python -m repro --jobs 4 bench
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Tuple

from repro.sim.eventq import (
    DEFAULT_SCHEDULER,
    SCHEDULER_BACKENDS,
    SCHEDULER_ENV,
)

from repro.experiments.priority_exp import PriorityArm, run_priority_experiment
from repro.experiments.runner import ExperimentRunner, bench_entry
from repro.experiments.scenario_registry import FIGURES, figure_specs


def _runner(args: argparse.Namespace) -> ExperimentRunner:
    return ExperimentRunner(
        jobs=args.jobs, cache=False if args.no_cache else None)


def _counts(text: str) -> Tuple[int, ...]:
    """A ``--streams``/``--subscribers`` value: sorted distinct counts."""
    try:
        counts = sorted({int(part) for part in text.split(",")
                         if part.strip()})
    except ValueError:
        counts = []
    if not counts or counts[0] < 1:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of positive counts, "
            f"got {text!r}")
    return tuple(counts)


def _cmd_figure(args: argparse.Namespace) -> int:
    """Run one declared figure and print its published rendering."""
    figure = FIGURES[args.figure]
    arms = [arm for arm in figure.arms
            if args.arm is None or arm.name == args.arm]
    if not arms:
        names = ", ".join(arm.name for arm in figure.arms)
        raise SystemExit(f"unknown arm {args.arm!r}; choose from: {names}")
    sweep = figure.family.sweep
    counts = getattr(args, sweep) if sweep else ()
    overrides = {key: getattr(args, key) for key in args.params
                 if getattr(args, key) is not None}
    points = f" x {sweep}={','.join(map(str, counts))}" if sweep else ""
    print(f"running {', '.join(arm.name for arm in arms)}{points} "
          f"({args.duration:g}s simulated) ...", file=sys.stderr)
    specs = figure.specs(arms, counts, seed=args.seed, **overrides)
    print(figure.render(_runner(args).payloads(specs)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a scenario with tracing on; write JSONL and a breakdown."""
    from repro.obs import JsonlSink, LatencyBreakdown, RingBufferSink, Tracer

    breakdown = LatencyBreakdown()
    sinks = [breakdown]
    jsonl: Optional[JsonlSink] = None
    try:
        if args.output is not None:
            jsonl = JsonlSink(args.output)
            sinks.append(jsonl)
        else:
            sinks.append(RingBufferSink(capacity=args.buffer))
    except (OSError, ValueError) as exc:
        print(f"repro trace: error: {exc}", file=sys.stderr)
        return 2
    layers = None
    if args.layers is not None:
        layers = [layer.strip() for layer in args.layers.split(",")
                  if layer.strip()]
    tracer = Tracer(sinks=sinks, layers=layers)

    print(f"tracing scenario {args.scenario!r} ...", file=sys.stderr)
    if args.scenario == "quickstart":
        from repro.experiments.scenarios import run_quickstart

        run_quickstart(tracer=tracer, verbose=not args.quiet)
    elif args.scenario == "uav":
        from repro.experiments.scenarios import run_uav_pipeline

        result = run_uav_pipeline(
            duration=args.duration, seed=args.seed, tracer=tracer,
            verbose=not args.quiet)
        if not args.quiet:
            # Reconciliation: the trace's per-flow frame latency must
            # agree with what the endpoint recorders measured.
            frame_stats = breakdown.frame_stats()
            for name, receiver in (
                ("avflow:uav1-out", result["actors"]["receiver1"]),
                ("avflow:uav2-out", result["actors"]["receiver2"]),
            ):
                if name in frame_stats:
                    trace_mean = frame_stats[name].mean
                    endpoint_mean = receiver.delivery.latency.stats().mean
                    print(f"reconcile {name}: trace mean "
                          f"{trace_mean * 1e3:.6f} ms vs endpoint "
                          f"{endpoint_mean * 1e3:.6f} ms "
                          f"(|diff| {abs(trace_mean - endpoint_mean):.2e} s)")
    else:
        arm = {"fig4a": PriorityArm.figure4a,
               "fig4b": PriorityArm.figure4b}[args.scenario]()
        result = run_priority_experiment(
            arm, duration=args.duration, seed=args.seed, tracer=tracer)
        if not args.quiet:
            stage_stats = breakdown.stage_stats()
            for sender in ("sender1", "sender2"):
                key = f"video{sender[-1]}/sink"
                if key in stage_stats and "to_servant" in stage_stats[key]:
                    trace_mean = stage_stats[key]["to_servant"].mean
                    endpoint_mean = result.stats(sender).mean
                    print(f"reconcile {key}: trace mean "
                          f"{trace_mean * 1e3:.6f} ms vs endpoint "
                          f"{endpoint_mean * 1e3:.6f} ms "
                          f"(|diff| {abs(trace_mean - endpoint_mean):.2e} s)")

    print(file=sys.stderr)
    total = tracer.records_emitted
    by_layer: dict = {}
    for (layer, _kind), count in tracer.counts.items():
        by_layer[layer] = by_layer.get(layer, 0) + count
    summary = ", ".join(f"{layer}={count}"
                        for layer, count in sorted(by_layer.items()))
    print(f"emitted {total} trace records ({summary})", file=sys.stderr)
    if jsonl is not None:
        print(f"wrote {jsonl.records_written} records to {args.output}",
              file=sys.stderr)
    print()
    print(breakdown.render())
    tracer.close()
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    """Randomized invariant soak: random configs under the checkers."""
    from repro.check.soak import run_soak, run_soak_case

    if args.replay is not None:
        try:
            case = json.loads(args.replay)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"bad --replay JSON: {exc}")
        print(f"replaying case {case.get('index', '?')} "
              f"(seed {case.get('seed', '?')}) ...", file=sys.stderr)
        verdict = run_soak_case(case)
        if verdict["ok"]:
            print(f"replay clean: {verdict['events']} events, "
                  f"{verdict['delivered']}/{verdict['sent']} frames "
                  f"delivered, {verdict['checked']} records checked")
            return 0
        print(f"replay FAILED ({verdict['failure']}): "
              f"{verdict['message']}")
        return 1

    report = run_soak(
        root_seed=args.seed, runs=args.runs, duration=args.duration,
        max_streams=args.max_streams, jobs=args.jobs,
        shrink=not args.no_shrink,
        emit=lambda line: print(line, file=sys.stderr))
    for entry in report["failures"]:
        print()
        print(f"case {entry['case']['index']} FAILED "
              f"({entry['failure']}"
              + (f", checker {entry['checker']}" if entry["checker"] else "")
              + f"): {entry['message']}")
        print(f"  minimal reproducer: {json.dumps(entry['shrunk'], sort_keys=True)}")
        print(f"  replay: {entry['replay']}")
    if report["ok"]:
        print(f"soak clean: {report['runs']} cases, "
              f"{report['events']} events, 0 violations")
        return 0
    print(f"\nsoak FAILED: {len(report['failures'])}/{report['runs']} "
          f"cases violated an invariant")
    return 1


def _dump_profile(profiler, path: str, limit: int = 20) -> None:
    """Write a cProfile's top-N cumulative-time functions to ``path``."""
    import io
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(limit)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buffer.getvalue())


def _cmd_bench(args: argparse.Namespace) -> int:
    """Regenerate every figure through the parallel engine.

    Prints a per-figure timing table and writes ``BENCH_figures.json``
    (wall time, simulated-event throughput, worker count, cache hits
    per figure) to ``--output``.
    """
    runner = _runner(args)
    suite = figure_specs()
    if args.figure:
        missing = [name for name in args.figure if name not in suite]
        if missing:
            known = ", ".join(suite)
            raise SystemExit(
                f"unknown figure(s) {', '.join(missing)}; known: {known}")
        suite = {name: suite[name] for name in args.figure}
    profile_dir = None
    if args.profile:
        import cProfile

        profile_dir = os.path.join("results", "profiles")
        os.makedirs(profile_dir, exist_ok=True)
    entries = {}
    total_wall = 0.0
    for name, specs in suite.items():
        print(f"bench {name} ({len(specs)} arms) ...", file=sys.stderr)
        started = time.perf_counter()
        if profile_dir is not None:
            profiler = cProfile.Profile()
            profiler.enable()
            results = runner.run(specs)
            profiler.disable()
            _dump_profile(profiler, os.path.join(profile_dir, f"{name}.txt"))
        else:
            results = runner.run(specs)
        wall = time.perf_counter() - started
        total_wall += wall
        entries[name] = bench_entry(results, wall, runner.jobs)
    header = f"{'figure':<40} {'wall':>8} {'events/s':>10} {'hits':>5}"
    print(header)
    print("-" * len(header))
    for name, entry in entries.items():
        print(f"{name:<40} {entry['wall_seconds']:>7.2f}s "
              f"{entry['events_per_sec']:>10,} "
              f"{entry['cache_hits']:>3}/{entry['runs']}")
    print(f"{'total':<40} {total_wall:>7.2f}s   "
          f"(jobs={runner.jobs}, cache "
          f"{'on' if runner.cache_enabled else 'off'})")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's experiments from the command line.",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="root random seed (default 1)")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes for independent arms "
                             "(default: REPRO_JOBS or the CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every arm, ignoring the on-disk "
                             "result cache")
    parser.add_argument("--scheduler", default=None,
                        choices=sorted(SCHEDULER_BACKENDS),
                        help="pending-event backend for the simulation "
                             "kernel (default: REPRO_SCHEDULER or "
                             f"{DEFAULT_SCHEDULER}); results are identical "
                             "either way — this switches the engine, not "
                             "the experiment")
    sub = parser.add_subparsers(dest="command", required=True)

    for figure in FIGURES.values():
        if figure.command is None:
            continue
        family = figure.family
        p = sub.add_parser(figure.command, help=figure.help)
        params = []
        for key, value in family.params.items():
            if isinstance(value, bool):
                continue  # switched by one of the family's flags
            p.add_argument(f"--{key.replace('_', '-')}", type=type(value),
                           default=value,
                           help=f"{key.replace('_', ' ')} "
                                f"(default {value:g})")
            params.append(key)
        for flag, options in family.flags:
            p.add_argument(flag, **options)
            params.append(options["dest"])
        if family.sweep:
            default = ",".join(map(str, figure.counts))
            p.add_argument(f"--{family.sweep}", type=_counts,
                           default=figure.counts,
                           help=f"comma-separated {family.sweep} counts "
                                f"(default {default})")
        p.add_argument("--arm", default=None,
                       help="run a single arm ("
                            + ", ".join(arm.name for arm in figure.arms)
                            + ")")
        p.set_defaults(func=_cmd_figure, figure=figure.name, params=params)

    p = sub.add_parser(
        "soak",
        help="randomized invariant soak: run random scenario x fault x "
             "capacity configs under the runtime checkers",
    )
    p.add_argument("--runs", type=int, default=20,
                   help="number of random cases to run (default 20)")
    p.add_argument("--duration", type=float, default=6.0,
                   help="simulated seconds per case (default 6)")
    p.add_argument("--max-streams", type=int, default=8,
                   help="upper bound on streams per case (default 8)")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip minimizing failing cases")
    p.add_argument("--replay", default=None, metavar="JSON",
                   help="re-run one exact case from its JSON form "
                        "(as printed by a failure report)")
    # Also accepted after the subcommand (replay commands read
    # naturally as `repro soak --seed S ...`); SUPPRESS keeps the
    # global pre-subcommand values when these are omitted.
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="root seed deriving every case (default 1)")
    p.add_argument("-j", "--jobs", type=int, default=argparse.SUPPRESS,
                   help="worker processes (default: auto)")
    p.set_defaults(func=_cmd_soak)

    p = sub.add_parser(
        "bench",
        help="regenerate the full figure suite through the parallel "
             "engine and report per-figure timings",
    )
    p.add_argument("--figure", action="append", default=None,
                   help="limit to one figure (repeatable); default: all")
    p.add_argument("-o", "--output", default="BENCH_figures.json",
                   help="write per-figure timing JSON here "
                        "(default BENCH_figures.json; '' to skip)")
    p.add_argument("--profile", action="store_true",
                   help="cProfile each figure and dump the top-20 "
                        "cumulative functions to results/profiles/ "
                        "(profiles the coordinating process; run with "
                        "-j 1 --no-cache to capture the scenario code "
                        "itself)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "trace",
        help="run a scenario with structured tracing and report a "
             "latency breakdown",
    )
    p.add_argument("--scenario", default="quickstart",
                   choices=["quickstart", "uav", "fig4a", "fig4b"],
                   help="which scenario to trace (default quickstart)")
    p.add_argument("--duration", type=float, default=30.0,
                   help="simulated seconds for timed scenarios "
                        "(default 30)")
    p.add_argument("-o", "--output", default=None,
                   help="write the trace as JSON Lines to this path")
    p.add_argument("--buffer", type=int, default=65536,
                   help="ring-buffer capacity when not writing JSONL "
                        "(default 65536)")
    p.add_argument("--layers", default=None,
                   help="comma-separated layer allow-list "
                        "(sim,os,net,orb,av,quo,fault); default: all")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the scenario's own narrative output")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.scheduler is not None:
        # Exported rather than threaded through: worker processes and
        # every Kernel() construction read REPRO_SCHEDULER themselves.
        os.environ[SCHEDULER_ENV] = args.scheduler
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
