"""The CI wall-time gate: ratio check, cache skip, --require flag."""

import importlib.util
import json
import pathlib
import sys

_BENCH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_regression = _load("check_regression", _BENCH / "check_regression.py")


def write(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


def entry(wall, cache_hits=0, fresh=True):
    """A BENCH entry; ``fresh`` marks it as measured by the current run."""
    data = {"wall_seconds": wall, "events": 1000, "runs": 2,
            "cache_hits": cache_hits, "workers": 4}
    if fresh:
        data["fresh"] = True
    return data


def test_within_budget_passes(tmp_path):
    baseline = write(tmp_path, "base.json", {"fig": entry(1.0)})
    current = write(tmp_path, "cur.json", {"fig": entry(1.8)})
    assert check_regression.main([baseline, current]) == 0


def test_regression_fails(tmp_path):
    baseline = write(tmp_path, "base.json", {"fig": entry(1.0)})
    current = write(tmp_path, "cur.json", {"fig": entry(2.5)})
    assert check_regression.main([baseline, current]) == 1


def test_cache_served_figure_is_skipped(tmp_path):
    baseline = write(tmp_path, "base.json", {"fig": entry(1.0)})
    current = write(tmp_path, "cur.json", {"fig": entry(9.0, cache_hits=2)})
    assert check_regression.main([baseline, current]) == 0


def test_new_and_retired_figures_never_fail(tmp_path):
    baseline = write(tmp_path, "base.json", {"old": entry(1.0)})
    current = write(tmp_path, "cur.json", {"new": entry(50.0)})
    assert check_regression.main([baseline, current]) == 0


def test_require_missing_figure_fails(tmp_path):
    baseline = write(tmp_path, "base.json", {"fig": entry(1.0)})
    current = write(tmp_path, "cur.json", {"fig": entry(1.0)})
    args = [baseline, current, "--require", "fig9_capacity"]
    assert check_regression.main(args) == 1


def test_require_present_figure_passes(tmp_path):
    entries = {"fig9_capacity": entry(1.0)}
    baseline = write(tmp_path, "base.json", entries)
    current = write(tmp_path, "cur.json", entries)
    args = [baseline, current, "--require", "fig9_capacity"]
    assert check_regression.main(args) == 0


def test_require_carried_over_figure_fails(tmp_path):
    # A partial benchmark session merges unmeasured figures into the
    # file without the fresh mark; they must not satisfy --require.
    entries = {"fig9_capacity": entry(1.0, fresh=False),
               "fig4_control_runs": entry(1.0)}
    baseline = write(tmp_path, "base.json", entries)
    current = write(tmp_path, "cur.json", entries)
    args = [baseline, current, "--require", "fig9_capacity"]
    assert check_regression.main(args) == 1
    args = [baseline, current, "--require", "fig4_control_runs"]
    assert check_regression.main(args) == 0


def test_min_rate_ignores_carried_over_figure(tmp_path):
    entries = {"event_core": {**entry(1.0, fresh=False),
                              "events_per_sec": 900_000}}
    baseline = write(tmp_path, "base.json", entries)
    current = write(tmp_path, "cur.json", entries)
    args = [baseline, current, "--min-rate", "event_core=830000"]
    assert check_regression.main(args) == 1


def test_min_rate_failure_prints_both_calibrations(tmp_path, capsys):
    host = {"nproc": 2, "python": "3.11.7", "scheduler": "heap"}
    baseline = write(tmp_path, "base.json", {"event_core": {
        **entry(1.0), "events_per_sec": 1_000_000,
        "calibration_per_s": 9_000_000, **host}})
    current = write(tmp_path, "cur.json", {"event_core": {
        **entry(1.2), "events_per_sec": 700_000,
        "calibration_per_s": 6_000_000, **host}})
    args = [baseline, current, "--min-rate", "event_core=830000"]
    assert check_regression.main(args) == 1
    out = capsys.readouterr().out
    assert "6,000,000 loop iterations/s" in out
    assert "9,000,000 loop iterations/s" in out
    assert "nproc 2, Python 3.11.7, scheduler heap" in out


def test_session_flush_marks_only_measured_entries(tmp_path, monkeypatch):
    """conftest drops the mark from carried-over entries."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    shared = _load("_shared", _BENCH / "_shared.py")
    monkeypatch.setitem(sys.modules, "_shared", shared)
    conftest = _load("_bench_conftest", _BENCH / "conftest.py")
    path = tmp_path / "BENCH_figures.json"
    path.write_text(json.dumps({"old": entry(1.0), "new": entry(9.0)}))
    monkeypatch.setattr(shared, "BENCH_PATH", path)
    monkeypatch.setattr(shared, "BENCH_ENTRIES",
                        {"new": entry(2.0, fresh=False)})
    conftest.pytest_sessionfinish(None, 0)
    merged = json.loads(path.read_text())
    assert "fresh" not in merged["old"]
    assert merged["new"]["fresh"] is True
    assert merged["new"]["wall_seconds"] == 2.0
