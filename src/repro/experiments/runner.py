"""Parallel experiment engine with content-addressed result caching.

Every figure/table in the paper's evaluation is a set of *independent*
simulation arms (figure 4a vs 4b, the six Table 1 combinations, the
three Table 2 conditions, the ablations).  Each arm is fully described
by a :class:`RunSpec` — a scenario name from the registry plus a
picklable parameter dict and a seed — and produces a picklable
:class:`RunResult`.  The :class:`ExperimentRunner` fans specs out
across a ``multiprocessing`` pool and merges results back *in spec
order*, so aggregated metrics and rendered tables are bit-identical to
serial execution regardless of worker count.

Determinism
-----------

Safe parallelism rests on a property the simulator already guarantees
(see ``tests/experiments/test_determinism.py``): a run's results are a
pure function of its spec.  Every kernel, RNG registry and recorder is
built fresh inside the run; the only process-global state (packet/
request/thread id counters) feeds observability fields that never
influence timing or metrics.  Workers therefore compute exactly what a
serial loop would, and the order-preserving merge does the rest.

Caching
-------

Results are cached on disk, content-addressed by
``sha256(scenario, params, seed, source-tree digest)``.  The source
digest covers every ``.py`` file under ``repro``'s package root, so
*any* code change invalidates *every* cached result — coarse but
impossible to get stale results from.  Corrupt or unreadable entries
are treated as misses and recomputed.  Set ``REPRO_CACHE=0`` to bypass
the cache entirely, and ``REPRO_CACHE_DIR`` to relocate it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.eventq import scheduler_from_env

__all__ = [
    "RunSpec",
    "RunResult",
    "ExperimentRunner",
    "ResultCache",
    "bench_entry",
    "scenario",
    "registered_scenarios",
    "source_tree_digest",
    "default_jobs",
]


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------
_SCENARIOS: Dict[str, Callable[..., Any]] = {}


def scenario(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a scenario function under ``name``.

    The function is called as ``fn(**params)`` (plus ``seed=`` when the
    spec carries one) and must return a *picklable* payload.  Payloads
    may expose an ``events_executed`` attribute (or ``"events"`` dict
    key) so the engine can report simulation throughput.
    """

    def register(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _SCENARIOS:
            raise ValueError(f"scenario {name!r} already registered")
        _SCENARIOS[name] = fn
        return fn

    return register


def registered_scenarios() -> List[str]:
    _ensure_builtin_scenarios()
    return sorted(_SCENARIOS)


def _ensure_builtin_scenarios() -> None:
    """Import the modules whose import registers the built-in scenarios.

    Kept lazy so ``runner`` itself stays import-cheap and free of
    circular imports (the experiment modules never import ``runner``).
    """
    from repro.experiments import scenario_registry  # noqa: F401


# ----------------------------------------------------------------------
# Specs and results
# ----------------------------------------------------------------------
class RunSpec:
    """One independent simulation run: scenario + params + seed.

    ``params`` must be JSON-serializable (the canonical JSON encoding
    is the cache key material) and picklable (it crosses the process
    boundary).
    """

    __slots__ = ("scenario", "params", "seed")

    def __init__(self, scenario: str, params: Optional[Dict[str, Any]] = None,
                 seed: Optional[int] = None) -> None:
        self.scenario = scenario
        self.params = dict(params or {})
        self.seed = seed

    def canonical(self) -> str:
        """Canonical JSON identity (sorted keys, no whitespace)."""
        return json.dumps(
            {"scenario": self.scenario, "params": self.params,
             "seed": self.seed},
            sort_keys=True, separators=(",", ":"), default=str,
        )

    def call_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, RunSpec)
                and other.canonical() == self.canonical())

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunSpec({self.scenario!r}, params={self.params!r}, "
                f"seed={self.seed!r})")


class RunResult:
    """Outcome of one spec: the payload plus execution metadata.

    ``payload`` is whatever the scenario function returned;
    ``wall_seconds`` is the worker-side execution time (0.0 for cache
    hits); ``events`` is the simulation's executed-event count when the
    payload reports one.
    """

    __slots__ = ("spec", "payload", "wall_seconds", "events", "cached")

    def __init__(self, spec: RunSpec, payload: Any, wall_seconds: float,
                 events: int, cached: bool) -> None:
        self.spec = spec
        self.payload = payload
        self.wall_seconds = wall_seconds
        self.events = events
        self.cached = cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        origin = "cache" if self.cached else f"{self.wall_seconds:.2f}s"
        return f"<RunResult {self.spec.scenario} [{origin}]>"


def _events_of(payload: Any) -> int:
    events = getattr(payload, "events_executed", None)
    if events is None and isinstance(payload, dict):
        events = payload.get("events")
    return int(events or 0)


def bench_entry(results: Sequence[RunResult], wall: float,
                workers: int) -> Dict[str, Any]:
    """One figure's ``BENCH_figures.json`` entry from its run results.

    ``fresh`` marks the entry as measured by the run that wrote the
    file; ``benchmarks/check_regression.py`` counts only fresh entries
    for ``--require`` and ``--min-rate``.
    """
    events = sum(r.events for r in results)
    return {
        "wall_seconds": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall) if wall > 0 else 0,
        "runs": len(results),
        "cache_hits": sum(1 for r in results if r.cached),
        "workers": workers,
        "fresh": True,
    }


# ----------------------------------------------------------------------
# Source-tree digest
# ----------------------------------------------------------------------
_digest_cache: Dict[str, str] = {}


def _digest_files(package_root: Path) -> List[Path]:
    """Every cache-relevant file under ``package_root``, sorted.

    The walk is automatic — new subpackages and non-``.py`` inputs
    (data tables, templates) are picked up without enumeration; only
    bytecode and hidden/cache directories are excluded, since they
    never influence results.
    """
    files = []
    for path in package_root.rglob("*"):
        if not path.is_file():
            continue
        rel = path.relative_to(package_root)
        if any(part == "__pycache__" or part.startswith(".")
               for part in rel.parts):
            continue
        if path.suffix in (".pyc", ".pyo"):
            continue
        files.append(path)
    files.sort()
    return files


def source_tree_digest(package_root: Optional[Path] = None) -> str:
    """SHA-256 over every file in the ``repro`` package tree.

    Computed once per process per root.  Any source edit — simulator,
    ORB, experiment definitions, a freshly added subpackage, even a
    non-``.py`` data file — changes the digest and invalidates the
    whole cache, which is the only safe default for a simulator whose
    every byte can influence results.  ``package_root`` is overridable
    for tests; the default is the installed ``repro`` package.
    """
    root = (Path(package_root) if package_root is not None
            else Path(__file__).resolve().parents[1])
    key = str(root)
    cached = _digest_cache.get(key)
    if cached is None:
        digest = hashlib.sha256()
        for path in _digest_files(root):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        cached = _digest_cache[key] = digest.hexdigest()
    return cached


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed pickle store for run payloads.

    Entries are written atomically (temp file + ``os.replace``) so a
    crashed or concurrent writer can never leave a torn entry; readers
    treat any load failure as a miss.
    """

    _MISS = object()

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(spec: RunSpec, source_digest: str) -> str:
        # The scheduler backend is part of the key even though the
        # parity suite proves both backends produce identical payloads:
        # if a parity bug ever slipped in, a shared cache would quietly
        # serve one backend's results as the other's and mask it.
        material = (f"{spec.canonical()}\x00{source_digest}"
                    f"\x00scheduler={scheduler_from_env()}").encode()
        return hashlib.sha256(material).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, payload)``; corrupt entries count as misses."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception:
            # Torn write, unpicklable class after a refactor, disk
            # error: recompute rather than fail or trust bad data.
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self.hits += 1
        return True, payload

    def store(self, key: str, payload: Any) -> None:
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            # Caching is an optimization; never fail the run over it.
            pass


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    # Project-local by default: src/repro/experiments -> repo root.
    return Path(__file__).resolve().parents[3] / ".repro-cache"


def cache_enabled_by_env() -> bool:
    return os.environ.get("REPRO_CACHE", "1") not in ("0", "false", "no")


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Worker entry point (must be module-level for pickling under spawn)
# ----------------------------------------------------------------------
def _execute(spec_fields: Tuple[str, Dict[str, Any], Optional[int]]
             ) -> Tuple[Any, int, float]:
    scenario_name, params, seed = spec_fields
    _ensure_builtin_scenarios()
    try:
        fn = _SCENARIOS[scenario_name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS)) or "(none)"
        raise KeyError(
            f"unknown scenario {scenario_name!r}; registered: {known}"
        ) from None
    spec = RunSpec(scenario_name, params, seed)
    started = time.perf_counter()
    payload = fn(**spec.call_kwargs())
    wall = time.perf_counter() - started
    return payload, _events_of(payload), wall


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ExperimentRunner:
    """Fan independent :class:`RunSpec`\\ s across a process pool.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` uses :func:`default_jobs`.  ``1``
        runs everything inline in this process (no pool).
    cache:
        Whether to consult/populate the on-disk result cache; ``None``
        follows the ``REPRO_CACHE`` environment variable.
    cache_dir:
        Cache location override (default: repo-local ``.repro-cache``
        or ``REPRO_CACHE_DIR``).
    source_digest:
        Cache-key source fingerprint override.  Tests use this to
        simulate source-tree changes; the default is
        :func:`source_tree_digest`.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[bool] = None,
                 cache_dir: Optional[Path] = None,
                 source_digest: Optional[str] = None) -> None:
        self.jobs = max(1, int(jobs) if jobs is not None else default_jobs())
        self.cache_enabled = (cache_enabled_by_env()
                              if cache is None else bool(cache))
        self.cache = ResultCache(cache_dir or default_cache_dir())
        self._source_digest = source_digest
        #: Cumulative stats across run() calls (observability).
        self.runs_executed = 0
        self.cache_hits = 0

    @property
    def source_digest(self) -> str:
        if self._source_digest is None:
            self._source_digest = source_tree_digest()
        return self._source_digest

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute every spec; results come back in spec order.

        Cache hits are resolved first; only misses are dispatched to
        the pool.  The merge is deterministic by construction: slot
        ``i`` of the returned list is always spec ``i``'s result, and
        payloads are pure functions of their specs, so worker count can
        never change what this returns.
        """
        _ensure_builtin_scenarios()
        results: List[Optional[RunResult]] = [None] * len(specs)
        pending: List[Tuple[int, RunSpec, str]] = []

        for index, spec in enumerate(specs):
            if spec.scenario not in _SCENARIOS:
                known = ", ".join(sorted(_SCENARIOS)) or "(none)"
                raise KeyError(f"unknown scenario {spec.scenario!r}; "
                               f"registered: {known}")
            key = ""
            if self.cache_enabled:
                key = ResultCache.key_for(spec, self.source_digest)
                hit, payload = self.cache.load(key)
                if hit:
                    self.cache_hits += 1
                    results[index] = RunResult(
                        spec, payload, wall_seconds=0.0,
                        events=_events_of(payload), cached=True)
                    continue
            pending.append((index, spec, key))

        if pending:
            fields = [(spec.scenario, spec.params, spec.seed)
                      for _, spec, _ in pending]
            if self.jobs == 1 or len(pending) == 1:
                outcomes = [_execute(f) for f in fields]
            else:
                outcomes = self._run_pool(fields)
            for (index, spec, key), (payload, events, wall) in zip(
                    pending, outcomes):
                self.runs_executed += 1
                if self.cache_enabled:
                    self.cache.store(key, payload)
                results[index] = RunResult(spec, payload, wall_seconds=wall,
                                           events=events, cached=False)
        return results  # type: ignore[return-value]

    def run_one(self, spec: RunSpec) -> RunResult:
        return self.run([spec])[0]

    def payloads(self, specs: Sequence[RunSpec]) -> List[Any]:
        """Shorthand: run and strip the metadata wrappers."""
        return [result.payload for result in self.run(specs)]

    # ------------------------------------------------------------------
    def _run_pool(self, fields: List[Tuple[str, Dict[str, Any],
                                           Optional[int]]]
                  ) -> List[Tuple[Any, int, float]]:
        import multiprocessing

        # Fork shares the already-imported interpreter (cheap start,
        # identical module state); platforms without it get spawn,
        # which re-imports from the same sources — either way workers
        # compute the same pure function of the spec.
        method = ("fork" if "fork" in
                  multiprocessing.get_all_start_methods() else "spawn")
        ctx = multiprocessing.get_context(method)
        workers = min(self.jobs, len(fields))
        with ctx.Pool(processes=workers) as pool:
            # pool.map preserves input order — the deterministic merge.
            return pool.map(_execute, fields)
