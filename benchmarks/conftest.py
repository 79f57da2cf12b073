"""Benchmark-session plumbing: flush BENCH_figures.json.

Figures recorded via ``_shared.run_figure`` during the session are
merged into ``BENCH_figures.json`` at the repo root when pytest exits.
Merging (rather than overwriting) keeps entries from figures that were
not part of a partial run (``pytest benchmarks/test_fig4*``), so the
committed baseline stays complete.  Only this session's entries carry
``"fresh": true``; carried-over entries lose it, so
``check_regression.py --require``/``--min-rate`` can never be satisfied
by a figure this session did not measure.  The file is written
atomically and carries no timestamps, so re-running the full suite on
identical sources with a warm cache produces a clean diff.
"""

from __future__ import annotations

import json
import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

import _shared


def pytest_sessionfinish(session, exitstatus):
    if not _shared.BENCH_ENTRIES:
        return
    merged = {}
    if _shared.BENCH_PATH.exists():
        try:
            merged = json.loads(_shared.BENCH_PATH.read_text())
        except (ValueError, OSError):
            merged = {}
    if not isinstance(merged, dict):
        merged = {}
    merged = {name: {key: value for key, value in entry.items()
                     if key != "fresh"}
              for name, entry in merged.items() if isinstance(entry, dict)}
    merged.update((name, {**entry, "fresh": True})
                  for name, entry in _shared.BENCH_ENTRIES.items())
    ordered = {name: merged[name] for name in sorted(merged)}
    _shared.atomic_write_text(
        _shared.BENCH_PATH, json.dumps(ordered, indent=2) + "\n"
    )
