"""``tools/bench_record.py`` on a canned results directory: no timing runs.

The reader must take the newest untraced summary per workload, correct
every time sample by the run's host-speed factor before taking quartiles,
and compare each metric with the newest earlier entry by that entry's IQR.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

META = {"git_sha": "abc", "source_sha256": "0123", "python": "3.11.7"}
FLOORS = {"python -c pass": {"median_s": 0.078, "n": 11},
          "python -S -c pass": {"median_s": 0.0165, "n": 11}}


def _summary(workload, run_s, setup_s, speed=2.0, seed=0):
    return {"workload": workload, "seed": seed, "trace": False, "meta": META,
            "attempted": len(run_s), "failed": 0, "speed": speed,
            "run_s_samples": run_s, "setup_s_samples": setup_s, "peak_rss_mb": 44.5}


def _write(directory, name, summary, mtime):
    path = directory / name
    path.write_text(json.dumps(summary))
    os.utime(path, (mtime, mtime))


@pytest.fixture
def results(tmp_path):
    _write(tmp_path, "verify-seed0-trace0.json",
           _summary("verify", [0.10, 0.11, 0.12, 0.13, 0.14], [0.2, 0.3]), 1000)
    _write(tmp_path, "spectra-k12-seed0-trace0.json",
           _summary("spectra-k12", [9.0], [9.0]), 1000)  # stale: an older seed-0 run
    _write(tmp_path, "spectra-k12-seed3-trace0.json",
           _summary("spectra-k12", [0.08, 0.06, 0.07], [0.1], seed=3), 2000)
    _write(tmp_path, "verify-seed0-trace1.json", {"trace": True}, 3000)  # traced: ignored
    return tmp_path


def test_entry_schema_and_corrected_quartiles(results):
    entry = bench_record.make_entry("x", bench_record.read_summaries(results), FLOORS)
    assert entry["per_layer"] is None and "item 1" in entry["per_layer_reason"]
    assert entry["floors"] == FLOORS
    assert sorted(entry["workloads"]) == ["spectra-k12", "verify"]
    verify = entry["workloads"]["verify"]
    assert verify["meta"] == META and verify["speed"] == 2.0
    assert verify["metrics"]["run_s"] == pytest.approx(
        {"median": 0.24, "q1": 0.22, "q3": 0.26, "n": 5})
    assert verify["metrics"]["setup_s"] == pytest.approx(
        {"median": 0.5, "q1": 0.45, "q3": 0.55, "n": 2})
    assert verify["metrics"]["peak_rss_mb"] == {"median": 44.5, "q1": None, "q3": None, "n": 5}
    spectra = entry["workloads"]["spectra-k12"]
    assert spectra["seed"] == 3  # the newest file, not the stale one
    assert spectra["metrics"]["run_s"]["median"] == pytest.approx(0.14)
    assert spectra["metrics"]["setup_s"] == pytest.approx(
        {"median": 0.2, "q1": 0.2, "q3": 0.2, "n": 1})
    json.dumps(entry)  # serialisable as written


def test_verdicts_against_the_previous_entry_iqr(results):
    entry = bench_record.make_entry("new", bench_record.read_summaries(results), FLOORS)
    previous = json.loads(json.dumps(entry))
    old = previous["workloads"]["verify"]["metrics"]
    old["run_s"].update(median=0.30, q1=0.28, q3=0.32)  # new 0.24 is below its IQR
    old["setup_s"].update(median=0.40, q1=0.38, q3=0.42)  # new 0.5 is above it
    old["peak_rss_mb"]["median"] = 44.5  # no IQR: equal medians
    del previous["workloads"]["spectra-k12"]
    previous["floors"] = {"python -c pass": {"median_s": 0.025, "n": 11}}
    lines = bench_record.compare(entry, previous)
    assert [line.split(": ")[-1] for line in lines[:3]] == ["lower", "higher", "within IQR"]
    assert lines[0].startswith("verify") and "run_s" in lines[0]
    assert lines[3:] == ["floor python -c pass: 78.0 ms, was 25.0 ms",
                         "floor python -S -c pass: 16.5 ms, was not recorded"]
    new = {"median": 0.3, "q1": 0.0, "q3": 1.0}
    assert bench_record.verdict(new, {"median": 0.3, "q1": 0.3, "q3": 0.3}) == "within IQR"


def test_newest_entry_is_the_latest_recorded_other_file(tmp_path):
    for label, recorded in (("a", "2026-01-02T00:00:00+00:00"),
                            ("b", "2026-01-01T00:00:00+00:00"),
                            ("c", "2026-01-03T00:00:00+00:00")):
        (tmp_path / f"BENCH_{label}.json").write_text(json.dumps({"recorded": recorded}))
    path, data = bench_record.newest_entry(tmp_path, exclude=tmp_path / "BENCH_c.json")
    assert path.name == "BENCH_a.json" and data["recorded"].startswith("2026-01-02")
    assert bench_record.newest_entry(tmp_path / "none", exclude=tmp_path) is None
