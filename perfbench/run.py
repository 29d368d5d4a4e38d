"""Host-time benchmark of the fpsearch command-line interface.

    python3 perfbench/run.py --workload sweep-r5 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Each iteration runs every command of the workload in a fresh child
interpreter, one child at a time, with BLAS/OpenMP threads pinned to 1:
every ``fpsearch`` command a user types starts cold, so nothing may be
reused across iterations. Each iteration's outputs are checked against a
reference (see ``check.py``); a wrong exit code or output fails it.

End-to-end metrics (``--trace 0``): ``run_s``, the median time from the
end of set-up to the return of ``fpsearch.cli.main`` summed over the
iteration's commands; ``setup_s``, the median time from spawning a child
through ``import fpsearch.cli`` and config build; ``peak_rss_mb``, the
median over iterations of the largest child ``ru_maxrss``.

Per-layer metrics (``--trace 1``): untraced and traced iterations
alternate; traced ones wrap each layer's entry points (``tracer.py``) and
report the median per-iteration totals. ``trace_overhead_frac`` is traced
``run_s`` / untraced ``run_s`` - 1.

Host-speed correction: on the machine this benchmark was built on (a
2-vCPU Intel Xeon VM on a shared host) the same job's time swings by up
to +-30% over minutes as other tenants come and go, and every run's
median moves with it. Each child therefore times ``child.host_probe``, a
fixed kernel that runs no fpsearch code, just before and just after its
timed region; every time in the result line is multiplied by ``speed =
PROBE_REF_S / median(probe times of the run)``, which makes it seconds at
the host speed where the probe takes ``PROBE_REF_S``. On that machine,
over 18 blocks of six ``robustness r.max=4`` runs, the correction cut
the blocks' interquartile spread of run time from 24% to 3.5%. The
uncorrected medians and ``speed`` are printed and saved with the result.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary and the run metadata. The full result, spans included,
is written to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import check
import workloads
from tracer import clock, layer_totals, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD = HERE / "child.py"
DEFAULTS_GOLDEN = check.GOLDEN / "default-outputs.json"

SETUP_PROBES = 5  # set-up-only children per run, for a steadier setup_s median
PROBE_REF_S = 0.1  # child.host_probe() time at the reference host speed
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SPAN_LAYERS = ("pulses.sequence_unitary", "compiler.compile_algorithm",
               "search.recursive_operator", "readout.estimate",
               "readout.lorentzian_trace", "readout.format_trace", "svgplot")
COUNTS = ("pulses.events", "compiler.events", "readout.format_trace.bytes",
          "svgplot.bytes", "experiments.files", "experiments.bytes")
VERIFY_CHECK_TIMES = tuple(f"verify.check_{i}.s" for i in range(1, check.VERIFY_CHECKS + 1))

# Per-layer metrics of the result line. Layer times that are 0 by
# construction on some workload (recursive_operator, readout estimate,
# lorentzian, format_trace, verify checks) are printed in the summary and
# saved with the result, but left out here: a time that reads 0 on every
# run is not a measurement. Their ``.calls`` counts are reported.
PER_LAYER = {
    "pulses.sequence_unitary.s": "s",
    "pulses.sequence_unitary.calls": "count",
    "pulses.events": "count",
    "pulses.us_per_event": "us",
    "compiler.compile_algorithm.s": "s",
    "compiler.compile_algorithm.calls": "count",
    "compiler.events": "count",
    "search.recursive_operator.calls": "count",
    "readout.estimate.calls": "count",
    "readout.lorentzian_trace.calls": "count",
    "readout.format_trace.calls": "count",
    "readout.format_trace.bytes": "B",
    "svgplot.s": "s",
    "svgplot.calls": "count",
    "svgplot.bytes": "B",
    "experiments.self_s": "s",
    "experiments.files": "count",
    "experiments.bytes": "B",
    "experiments.identical_frac": "frac",
    "config.build_config.s": "s",
    "setup.import_s": "s",
    "trace_overhead_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a child that cannot start)."""


# ---------------------------------------------------------------------------
# children

def _child_env() -> dict[str, str]:
    env = dict(os.environ, TMPDIR=str(WORK / "tmp"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(command, out_dir: Path, log_dir: Path, *, run: bool, traced: bool = False) -> dict:
    """Run one child: set-up, then (with ``run``) the command. Returns its record."""
    index = len(list(log_dir.glob("child*.out")))
    result_path = log_dir / f"child{index}.json"
    configs = None if command.experiment is None else [
        [command.experiment, command.mapping(out_dir)]
    ]
    spec = {"src": str(SRC), "argv": command.argv(out_dir) if run else None,
            "configs": configs, "trace": traced, "result": str(result_path)}
    stdout_path = log_dir / f"child{index}.out"
    with open(stdout_path, "w") as out, open(log_dir / f"child{index}.err", "w") as err:
        t_spawn = clock()
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT,
                              env=_child_env(), stdout=out, stderr=err,
                              timeout=CHILD_TIMEOUT_S)
    if not result_path.exists():
        return {"exit": proc.returncode, "crashed": True}
    record = json.loads(result_path.read_text())
    if not Path(record["fpsearch"]).resolve().is_relative_to(SRC):
        raise BenchError(f"child imported fpsearch from {record['fpsearch']}, not {SRC}")
    record["setup_s"] = record.pop("t_ready") - t_spawn
    record["stdout"] = stdout_path.read_text()
    return record


def _fresh(*dirs: Path) -> None:
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)


# ---------------------------------------------------------------------------
# one iteration

def run_iteration(workload, expected: dict[str, bytes], defaults: dict, traced: bool) -> dict:
    out_dir, log_dir = WORK / "out", WORK / "log"
    _fresh(out_dir, log_dir, WORK / "tmp")
    children = [run_child(c, out_dir, log_dir, run=True, traced=traced)
                for c in workload.commands]
    problems = [f"exit code {c['exit']}, expected {workload.expected_exit}"
                for c in children if c["exit"] != workload.expected_exit]
    it = {"traced": traced, "children": children}
    if any(c.get("crashed") for c in children):
        it["problems"] = problems or ["child crashed"]
        return it
    if workload.commands[0].experiment is None:
        verify_problems, it["criterion4_residual"] = check.check_verify_output(
            children[0]["stdout"])
        problems += verify_problems
    else:
        tree_problems, it["identical"], it["files"] = check.compare_tree(out_dir, expected)
        problems += tree_problems
    it.update(
        problems=problems,
        run_s=sum(c["run_s"] for c in children),
        peak_rss_mb=max(c["peak_rss_mb"] for c in children),
    )
    if traced:
        it["layers"] = iteration_layers(children)
        if workload.commands[0].experiment is None:
            files = [f for c in children for f in c["trace"]["files"]]
            it["identical"] = sum(defaults.get(e, {}).get(n) == h for e, n, h in files)
            it["files"] = len(files)
    return it


def iteration_layers(children: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced iteration, summed over its children."""
    out: dict[str, float] = {f"{n}.{k}": 0.0 for n in SPAN_LAYERS for k in ("s", "calls")}
    out.update({name: 0 for name in COUNTS})
    out.update({name: 0.0 for name in VERIFY_CHECK_TIMES})
    out["experiments.self_s"] = 0.0
    for child in children:
        trace = child["trace"]
        spans = [tuple(s) for s in trace["spans"]]
        seconds, calls = layer_totals(spans)
        for name in SPAN_LAYERS:
            out[f"{name}.s"] += seconds.get(name, 0.0)
            out[f"{name}.calls"] += calls.get(name, 0)
        for name in COUNTS:
            out[name] += trace["counts"].get(name, 0)
        out["experiments.self_s"] += sum(
            t for s, t in zip(spans, self_times(spans)) if s[0] == "experiments.run_experiment")
        for name, (_, _, seconds_taken) in zip(VERIFY_CHECK_TIMES, trace["checks"]):
            out[name] += seconds_taken
    if out["pulses.events"]:
        out["pulses.us_per_event"] = out["pulses.sequence_unitary.s"] / out["pulses.events"] * 1e6
    # set-up layers are per child, like setup_s
    out["config.build_config.s"] = statistics.median(c["build_config_s"] for c in children)
    out["setup.import_s"] = statistics.median(c["import_s"] for c in children)
    return out


# ---------------------------------------------------------------------------
# one run

def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_metadata() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pinning": {var: "1" for var in THREAD_VARS},
        "loadavg_before": os.getloadavg(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.build(name, seed)
    meta = run_metadata()
    sys.path.insert(0, str(SRC))
    expected = check.expected_files(workload, seed)
    defaults = json.loads(DEFAULTS_GOLDEN.read_text())
    probe_dir = WORK / "probe"
    _fresh(probe_dir, WORK / "tmp")
    first = workload.commands[0]
    probes = [run_child(first, probe_dir, probe_dir, run=False) for _ in range(SETUP_PROBES + 1)]
    if any(p.get("crashed") for p in probes):
        raise BenchError(f"set-up failed; see {probe_dir}")
    probes = probes[1:]  # the first one warms the file cache

    iterations, start, took = [], clock(), []
    while True:
        t = clock()
        iterations.append(run_iteration(workload, expected, defaults,
                                         traced=trace and len(iterations) % 2 == 1))
        took.append(clock() - t)
        enough = not trace or len(iterations) >= 2
        if enough and clock() - start + statistics.median(took) > seconds:
            break
    meta["loadavg_after"] = os.getloadavg()
    meta["measured_s"] = clock() - start
    shutil.rmtree(WORK / "out", ignore_errors=True)
    shutil.rmtree(WORK / "log", ignore_errors=True)
    shutil.rmtree(probe_dir, ignore_errors=True)

    # a wrong output fails its iteration but its timings stand
    timed = [it for it in iterations if "run_s" in it]
    untraced = [it for it in timed if not it["traced"]]
    traced = [it for it in timed if it["traced"]]
    if not untraced or (trace and not traced):
        raise BenchError(f"every iteration of {name} crashed: {iterations[0]['problems']}")
    children = probes + [c for it in timed for c in it["children"]]
    setups = [c["setup_s"] for c in children]
    speed = PROBE_REF_S / statistics.median(t for c in children for t in c["probe_s"])
    summary = {
        "workload": name, "seed": seed, "trace": trace, "meta": meta,
        "attempted": len(iterations),
        "failed": sum(1 for it in iterations if it["problems"]),
        "problems": [p for it in iterations for p in it["problems"]][:20],
        "speed": speed,
        "run_s": speed * statistics.median(it["run_s"] for it in untraced),
        "run_s_raw": statistics.median(it["run_s"] for it in untraced),
        "run_s_samples": [it["run_s"] for it in untraced],
        "setup_s": speed * statistics.median(setups),
        "setup_s_raw": statistics.median(setups),
        "setup_s_samples": setups,
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in untraced),
    }
    residuals = [it["criterion4_residual"] for it in iterations
                 if it.get("criterion4_residual") is not None]
    if residuals:
        summary["verify.criterion4_residual"] = statistics.median(residuals)
    if trace:
        layers = {k: statistics.median(it["layers"][k] for it in traced)
                  * (speed if _is_time(k) else 1.0) for k in traced[0]["layers"]}
        counted = [it for it in iterations if "files" in it]
        files = sum(it["files"] for it in counted)
        layers["experiments.identical_frac"] = (
            sum(it["identical"] for it in counted) / files if files else 0.0)
        layers["trace_overhead_frac"] = (
            statistics.median(it["run_s"] for it in traced) / summary["run_s_raw"] - 1.0)
        summary["layers"] = layers
        summary["spans"] = [c["trace"]["spans"] for it in traced for c in it["children"]]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=1))
    return summary


def _is_time(metric: str) -> bool:
    return metric.endswith((".s", "_s")) or metric == "pulses.us_per_event"


# ---------------------------------------------------------------------------
# reporting

def metrics_of(summary: dict) -> dict[str, dict]:
    if summary["trace"]:
        return {k: {"value": summary["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    return {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}


def print_summary(s: dict) -> None:
    print(f"== {s['workload']}  seed {s['seed']}  trace {int(s['trace'])}  "
          f"iterations {s['attempted']}  speed {s['speed']:.4f}")
    print(f"  run_s        {s['run_s']:.4f} s  (median of {len(s['run_s_samples'])}; "
          f"uncorrected {s['run_s_raw']:.4f} s)")
    print(f"  setup_s      {s['setup_s']:.4f} s  (median of {len(s['setup_s_samples'])}; "
          f"uncorrected {s['setup_s_raw']:.4f} s)")
    print(f"  peak_rss_mb  {s['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac  {s['failed'] / s['attempted']:.3f} frac  "
          f"({s['failed']} of {s['attempted']} iterations)")
    for problem in s["problems"][:5]:
        print(f"  problem: {problem}")
    if "verify.criterion4_residual" in s:
        print(f"  verify.criterion4_residual  {s['verify.criterion4_residual']:.3e}")
    if s["trace"]:
        layers = s["layers"]
        for key in sorted(layers):
            print(f"  {key:34s} {layers[key]:.6g}")
        traced_run = s["run_s"] * (1.0 + layers["trace_overhead_frac"])
        physics = layers["pulses.sequence_unitary.s"] + layers["compiler.compile_algorithm.s"]
        output = layers["readout.format_trace.s"] + layers["svgplot.s"]
        print(f"  share of traced run_s: pulses+compiler {physics / traced_run:.3f}, "
              f"format_trace+svgplot {output / traced_run:.3f}")
    print(f"  meta {json.dumps(s['meta'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "fpsearch" / "cli.py").is_file():
        print(f"perfbench: no fpsearch sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        print_summary(s)
    if len(summaries) == 1:
        metrics = metrics_of(summaries[0])
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in metrics_of(s).items()}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
