"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures,
writes the paper-style rendering to ``results/<name>.txt``, prints it,
and asserts the qualitative shape criteria recorded in EXPERIMENTS.md.

Benchmarks take their independent simulation arms from
:func:`repro.experiments.scenario_registry.figure_specs` and their text
from the figure's declared renderer, and execute the arms through
:func:`run_figure`, which fans them across the shared parallel
:class:`~repro.experiments.runner.ExperimentRunner` (worker count from
``REPRO_JOBS``, default: CPU count; result cache controlled by
``REPRO_CACHE``) and records per-figure wall time, simulated-event
throughput and cache hits.  ``benchmarks/conftest.py`` flushes those
records to ``BENCH_figures.json`` at the end of the session — the
repo's performance trajectory.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
import time
from typing import Any, Dict, List, Sequence

from repro.experiments.runner import ExperimentRunner, RunSpec, bench_entry

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_figures.json"
)

#: Per-figure benchmark entries recorded this session, flushed to
#: ``BENCH_figures.json`` by ``conftest.pytest_sessionfinish``.
BENCH_ENTRIES: Dict[str, Dict[str, Any]] = {}

_runner: ExperimentRunner = None


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Parallel workers and concurrent pytest sessions can publish the
    same artifact; the rename guarantees readers never observe an
    interleaved or truncated file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def publish(name: str, text: str) -> None:
    """Write a rendered table/figure to results/ and echo it."""
    atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")
    print(f"\n=== {name} ===\n{text}\n")


def shared_runner() -> ExperimentRunner:
    """The session-wide experiment runner (one pool config, shared cache)."""
    global _runner
    if _runner is None:
        _runner = ExperimentRunner()
    return _runner


def run_figure(name: str, specs: Sequence[RunSpec]) -> List[Any]:
    """Run one figure's arms through the parallel engine.

    Returns the arm payloads in spec order and records the figure's
    wall time, executed simulation events, worker count and cache hits
    for ``BENCH_figures.json``.
    """
    runner = shared_runner()
    started = time.perf_counter()
    results = runner.run(list(specs))
    BENCH_ENTRIES[name] = bench_entry(
        results, time.perf_counter() - started, runner.jobs)
    return [r.payload for r in results]
