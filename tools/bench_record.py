"""Record one ``BENCH_<label>.json`` entry from the benchmark's own run.

    python3 tools/bench_record.py LABEL                 # runs the benchmark, ~2 min
    python3 tools/bench_record.py LABEL --results DIR   # reads a finished run's summaries

Runs ``perfbench/run.py --workload all`` unchanged and reads the summaries it
leaves in ``.perfbench-work/results/<workload>-seed<N>-trace0.json`` (with
``--results``, the newest such file per workload in DIR, for a run made in
another checkout). Writes ``BENCH_<label>.json`` at the repo root with, per
workload and end-to-end metric, the host-corrected median, Q1, Q3 and sample
count; each workload's ``meta``; the medians of ``python -c pass`` and
``python -S -c pass``, the start-up floor no change to the package can move;
and ``per_layer: null`` with the reason. Then prints each metric against the
newest earlier entry: lower or higher than that entry's IQR, or within it.
Entries from hosts of different speed compare only through the corrected
values, so the two floors are printed side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / ".perfbench-work" / "results"
COMMAND = [sys.executable, "perfbench/run.py", "--workload", "all"]
FLOORS = {"python -c pass": ["-c", "pass"], "python -S -c pass": ["-S", "-c", "pass"]}
FLOOR_RUNS = 11
PER_LAYER_REASON = (
    "the traced layers do not yet measure the functions that run: "
    "compile_algorithm reads 0 calls on sweep-r5 and spectra-k12, and spectra's "
    "SVG is built in a forked worker the tracer does not see (ROADMAP item 1, step A)"
)


def _stats(samples: list[float]) -> dict:
    q1 = q3 = samples[0]
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def workload_entry(summary: dict) -> dict:
    """The end-to-end metrics of one ``run.py`` summary, times host-corrected."""
    speed = summary["speed"]
    return {
        "seed": summary["seed"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "speed": speed,
        "meta": summary["meta"],
        "metrics": {
            "run_s": _stats([speed * s for s in summary["run_s_samples"]]),
            "setup_s": _stats([speed * s for s in summary["setup_s_samples"]]),
            # run.py keeps only the median over iterations, so no quartiles
            "peak_rss_mb": {"median": summary["peak_rss_mb"], "q1": None, "q3": None,
                            "n": len(summary["run_s_samples"])},
        },
    }


def read_summaries(results: Path) -> dict[str, dict]:
    """The newest untraced summary of each workload in ``results``."""
    newest: dict[str, Path] = {}
    for path in sorted(results.glob("*-seed*-trace0.json"), key=lambda p: p.stat().st_mtime):
        newest[path.name.rsplit("-seed", 1)[0]] = path
    if not newest:
        raise SystemExit(f"no *-seed*-trace0.json summaries in {results}")
    return {name: json.loads(path.read_text()) for name, path in sorted(newest.items())}


def make_entry(label: str, summaries: dict[str, dict], floors: dict) -> dict:
    return {
        "label": label,
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "command": "python3 perfbench/run.py --workload all",
        "workloads": {name: workload_entry(s) for name, s in summaries.items()},
        "floors": floors,
        "per_layer": None,
        "per_layer_reason": PER_LAYER_REASON,
    }


def measure_floors(runs: int = FLOOR_RUNS) -> dict:
    """Median wall seconds of each bare interpreter start-up in ``FLOORS``."""
    floors = {}
    for name, args in FLOORS.items():
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], check=True)
            times.append(time.perf_counter() - start)
        floors[name] = {"median_s": statistics.median(times), "n": runs}
    return floors


def verdict(new: dict, old: dict) -> str:
    """``new``'s median against ``old``'s IQR (its median where it has none)."""
    q1 = old["median"] if old["q1"] is None else old["q1"]
    q3 = old["median"] if old["q3"] is None else old["q3"]
    if new["median"] < q1:
        return "lower"
    if new["median"] > q3:
        return "higher"
    return "within IQR"


def compare(entry: dict, previous: dict) -> list[str]:
    """One line per workload and metric of ``entry`` that ``previous`` also has."""
    lines = []
    for name, workload in entry["workloads"].items():
        before = previous["workloads"].get(name, {}).get("metrics", {})
        for metric, new in workload["metrics"].items():
            if metric in before:
                old = before[metric]
                lines.append(f"{name:12s} {metric:12s} {new['median']:.4g} against "
                             f"{old['median']:.4g}: {verdict(new, old)}")
    for name, floor in entry["floors"].items():
        old = previous["floors"].get(name)
        was = f"{old['median_s'] * 1e3:.1f} ms" if old else "not recorded"
        lines.append(f"floor {name}: {floor['median_s'] * 1e3:.1f} ms, was {was}")
    return lines


def newest_entry(root: Path, exclude: Path) -> tuple[Path, dict] | None:
    entries = [(json.loads(p.read_text()), p) for p in root.glob("BENCH_*.json") if p != exclude]
    if not entries:
        return None
    data, path = max(entries, key=lambda e: e[0]["recorded"])
    return path, data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--results", type=Path,
                        help="read summaries from this directory instead of running")
    args = parser.parse_args(argv)
    if args.results is None:
        subprocess.run(COMMAND, cwd=ROOT, check=True)
    entry = make_entry(args.label, read_summaries(args.results or RESULTS), measure_floors())
    path = ROOT / f"BENCH_{args.label}.json"
    previous = newest_entry(ROOT, exclude=path)
    path.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {path.name}")
    if previous is not None:
        print(f"against {previous[0].name}:")
        print("\n".join(compare(entry, previous[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
