#!/usr/bin/env python
"""Per-figure wall-time regression gate for BENCH_figures.json.

Usage::

    python benchmarks/check_regression.py BASELINE CURRENT [--factor 2.0]

Compares each figure's ``wall_seconds`` in CURRENT against BASELINE
and exits non-zero if any figure regressed by more than ``--factor``.
Figures present in only one file are reported but never fail the gate
(new figures have no baseline; retired figures have no current run).
Only CURRENT entries marked ``"fresh": true`` -- measured by the run
that wrote the file -- count as current; an entry carried over from an
earlier run is reported as not measured and cannot satisfy
``--require`` or ``--min-rate``.
Cache-served figures are skipped — a ``wall_seconds`` measured with
cache hits says nothing about simulator speed.

A ``--min-rate`` failure also prints the entry's ``calibration_per_s``
(a fixed pure-Python loop timed on the same host) next to the
baseline's, so a slow host can be told apart from slow code.

Very fast figures are noisy in wall-clock terms, so figures whose
baseline is below ``--min-seconds`` (default 0.2 s) are compared
against ``baseline * factor + min-seconds`` instead of a bare ratio.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"check_regression: cannot read {path}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"check_regression: {path} is not a JSON object")
    return data


def _provenance(entry: dict) -> str:
    """An entry's calibration rate and host, or "not recorded"."""
    calibration = entry.get("calibration_per_s")
    if calibration is None:
        return "not recorded"
    return (f"{calibration:,.0f} loop iterations/s (nproc "
            f"{entry.get('nproc')}, Python {entry.get('python')}, "
            f"scheduler {entry.get('scheduler')})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_figures.json")
    parser.add_argument("current", help="freshly generated BENCH_figures.json")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="maximum allowed wall-time ratio (default 2.0)")
    parser.add_argument("--min-seconds", type=float, default=0.2,
                        help="noise floor added for sub-threshold baselines "
                             "(default 0.2)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="fail unless NAME was measured in the current "
                             "run, i.e. its entry is fresh (repeatable); "
                             "catches a figure silently dropping out of "
                             "the benchmark suite")
    parser.add_argument("--min-rate", action="append", default=[],
                        metavar="NAME=RATE",
                        help="fail if NAME's events_per_sec in the current "
                             "run is below RATE (repeatable); a throughput "
                             "floor that, unlike the wall-time ratio, does "
                             "not drift as the baseline is regenerated")
    args = parser.parse_args(argv)

    floors = {}
    for spec in args.min_rate:
        name, sep, rate = spec.partition("=")
        if not sep:
            raise SystemExit(
                f"check_regression: --min-rate wants NAME=RATE, got {spec!r}")
        try:
            floors[name] = float(rate)
        except ValueError:
            raise SystemExit(
                f"check_regression: bad --min-rate value in {spec!r}")

    baseline = load(args.baseline)
    current = load(args.current)
    fresh = {name: entry for name, entry in current.items()
             if isinstance(entry, dict) and entry.get("fresh") is True}
    failures = []
    for name in args.require:
        if name not in fresh:
            print(f"  required figure not measured in current run: {name}",
                  file=sys.stderr)
            failures.append(name)
    for name, floor in sorted(floors.items()):
        if name not in fresh:
            print(f"  --min-rate figure not measured in current run: "
                  f"{name}", file=sys.stderr)
            failures.append(name)
            continue
        entry = fresh[name]
        if entry.get("cache_hits", 0):
            print(f"  {name}: rate check skipped "
                  f"({entry['cache_hits']}/{entry.get('runs')} "
                  f"arms from cache)")
            continue
        rate = float(entry.get("events_per_sec", 0.0))
        verdict = "ok" if rate >= floor else "TOO SLOW"
        print(f"  {name}: {rate:,.0f} events/s (floor {floor:,.0f}) "
              f"{verdict}")
        if rate < floor:
            failures.append(name)
            print(f"    host calibration: {_provenance(entry)} now, "
                  f"{_provenance(baseline.get(name, {}))} in the baseline")
    for name in sorted(set(baseline) | set(fresh)):
        if name not in baseline:
            print(f"  new figure (no baseline): {name}")
            continue
        if name not in fresh:
            print(f"  not measured in current run: {name}")
            continue
        base_wall = float(baseline[name].get("wall_seconds", 0.0))
        cur = fresh[name]
        cur_wall = float(cur.get("wall_seconds", 0.0))
        if cur.get("cache_hits", 0):
            print(f"  {name}: skipped ({cur['cache_hits']}/{cur.get('runs')} "
                  f"arms from cache)")
            continue
        limit = base_wall * args.factor + (
            args.min_seconds if base_wall < args.min_seconds else 0.0)
        verdict = "ok" if cur_wall <= limit else "REGRESSED"
        print(f"  {name}: {base_wall:.2f}s -> {cur_wall:.2f}s "
              f"(limit {limit:.2f}s) {verdict}")
        if cur_wall > limit:
            failures.append(name)

    if failures:
        print(f"\ncheck_regression: {len(failures)} figure(s) regressed "
              f">{args.factor}x or missing: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("\ncheck_regression: all figures within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
