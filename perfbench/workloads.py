"""The benchmark's workloads and the figure checks that judge their output.

Each workload is one whole paper figure, run arm by arm through
``ExperimentRunner.run`` with the result cache off.  The figure's own
benchmark module (``benchmarks/test_<figure>.py``) supplies the arms,
the renderer call and the shape criteria: it is loaded with a stand-in
for its ``_shared`` helper module, so its ``run_figure`` call runs the
arms through the caller's timed ``run_arm`` and its ``publish`` call
hands the rendered text back instead of writing ``results/``.

``--seed n`` simulates at seed ``simulation_seed(n)``, one of the
seeds 1..15.  Seed 1 is the reference seed: the committed
``results/<figure>.txt`` were rendered from it, so at seed 1 the
rendering must match those bytes exactly.  At the other seeds of the
pool only the shape criteria apply.  Why a pool and not every seed is
in ``NOTES.md``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
import types
from pathlib import Path
from typing import Any, Callable, Dict, List

#: Seed of the committed ``results/*.txt``.
REFERENCE_SEED = 1
#: Seed kept out of tuning, for gain claims (shape criteria only).
HELD_OUT_SEED = 7
#: Number of simulation seeds: ``--seed`` picks one of 1..SEED_POOL.
SEED_POOL = 15


def simulation_seed(seed: int) -> int:
    """The simulation seed of benchmark seed ``seed``; 1..15 map to
    themselves, so the reference and held-out seeds keep their number."""
    return (seed - 1) % SEED_POOL + 1


#: workload -> the figure it regenerates.  Why each was chosen is in
#: ``BENCHMARK.json`` and ``NOTES.md``.
WORKLOADS: Dict[str, str] = {
    "packet_qos": "fig7_frame_delivery",
    "fluid_scale": "fig10_scale",
    "pubsub_fanout": "fig12_pubsub",
    "cpu_capacity": "fig9_capacity",
}


class _StandInBenchmark:
    """The ``benchmark`` fixture of pytest-benchmark, minus the timing."""

    @staticmethod
    def pedantic(fn: Callable[[], Any], rounds: int = 1,
                 iterations: int = 1) -> Any:
        del rounds, iterations
        return fn()


class ArmFailed(Exception):
    """An arm raised or was served from the result cache."""


class _Collected(Exception):
    """Stops a figure test once its arms are known."""


def _load_figure_test(root: Path, figure: str,
                      run_figure: Callable[[str, list], List[Any]],
                      published: Dict[str, str],
                      bench_entries: Dict[str, Dict[str, Any]]
                      ) -> Callable[[Any], None]:
    shared = types.ModuleType("_shared")
    shared.BENCH_ENTRIES = bench_entries  # type: ignore[attr-defined]
    shared.run_figure = run_figure  # type: ignore[attr-defined]
    shared.publish = published.__setitem__  # type: ignore[attr-defined]
    sys.modules["_shared"] = shared
    path = root / "benchmarks" / f"test_{figure}.py"
    spec = importlib.util.spec_from_file_location(f"_figure_{figure}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    return getattr(module, f"test_{figure}")


def _reseeded(specs: list, seed: int) -> list:
    from repro.experiments.runner import RunSpec

    return [RunSpec(spec.scenario, spec.params, seed=seed) for spec in specs]


def collect_specs(root: Path, workload: str, seed: int) -> list:
    """The workload's arms at ``seed``, without running any of them."""
    seed = simulation_seed(seed)
    specs: list = []

    def run_figure(name: str, figure_specs: list) -> List[Any]:
        specs.extend(_reseeded(figure_specs, seed))
        raise _Collected

    test = _load_figure_test(root, WORKLOADS[workload], run_figure, {}, {})
    try:
        test(_StandInBenchmark())
    except _Collected:
        pass
    return specs


def run_workload(root: Path, workload: str, seed: int,
                 run_arm: Callable[[Any], Any]) -> Dict[str, Any]:
    """Run one workload's figure at ``seed`` and judge it.

    ``run_arm(spec)`` executes one re-seeded RunSpec and returns its
    ``RunResult``.  Returns the per-arm results, the rendered text and
    the verdict; an arm counts as failed when it raised, was served
    from the cache, or belongs to a figure whose check failed.
    """
    seed = simulation_seed(seed)
    figure = WORKLOADS[workload]
    published: Dict[str, str] = {}
    bench_entries: Dict[str, Dict[str, Any]] = {}
    results: List[Any] = []
    attempted: List[int] = []

    def run_figure(name: str, specs: list) -> List[Any]:
        attempted.append(len(specs))
        bad = 0
        for spec in _reseeded(specs, seed):
            try:
                result = run_arm(spec)
            except Exception as exc:  # the arm raised: count it, go on
                bad += 1
                print(f"arm {spec.canonical()} raised {exc!r}",
                      file=sys.stderr)
                continue
            results.append(result)
            bad += result.cached
        if bad:
            raise ArmFailed(f"{bad} of {len(specs)} arms raised or were "
                            f"served from the cache")
        bench_entries[name] = {
            "cache_hits": 0,
            "wall_seconds": sum(r.wall_seconds for r in results),
        }
        return [r.payload for r in results]

    test = _load_figure_test(root, figure, run_figure, published,
                             bench_entries)
    problems: List[str] = []
    try:
        test(_StandInBenchmark())
    except ArmFailed as exc:
        problems.append(str(exc))
    except AssertionError as exc:
        problems.append(f"shape criteria broken at seed {seed}: {exc!r}")
    except Exception as exc:  # a renderer or check raised: report it
        problems.append(f"figure check raised {exc!r}")
    text = published.get(figure)
    if text is None and not problems:
        problems.append("figure was not rendered")
    if text is not None and seed == REFERENCE_SEED:
        committed = (root / "results" / f"{figure}.txt").read_text(
            encoding="utf-8")
        if text + "\n" != committed:
            problems.append(f"rendering differs from results/{figure}.txt")
    # A figure that failed before running any arm still counts as one.
    arms = sum(attempted) or 1
    return {"results": results,
            "render_digest": hashlib.sha256((text or "").encode()).hexdigest(),
            "arms": arms, "arms_failed": arms if problems else 0,
            "problems": problems}
