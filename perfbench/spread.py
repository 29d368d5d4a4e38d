"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workload sweep-r5 --seeds 1-10
    python3 perfbench/spread.py --workload verify --seeds 1-10 --json out.json

Runs ``run.py`` one seed at a time and prints, for every metric, the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
interquartile range as a share of the median: the spread a benchmark
bound is judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args()
    runs, meta = [], None
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        runs.append(json.loads(lines[-1]))
        meta = meta or next(json.loads(ln[7:]) for ln in lines if ln.startswith("  meta "))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in runs[-1]["metrics"].items()), flush=True)
    summary = {
        "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds, "meta": meta,
        "trace": args.trace, "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": {
            name: {"unit": metric["unit"],
                   **spread([r["metrics"][name]["value"] for r in runs])}
            for name, metric in runs[0]["metrics"].items()
        },
    }
    for name, s in summary["metrics"].items():
        print(f"{name:34s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  iqr/median {s['iqr_frac']:.4f}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
