import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import fpsearch.cli
import run
import workloads
from tracer import Tracer

SEEDS = range(25)


def _values(workload, key):
    item = next(o for c in workload.commands for o in c.overrides if o.startswith(key + "="))
    return [float(v) for v in item.partition("=")[2].split(",")]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_commands(name, tmp_path):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a == b
    assert [c.argv(tmp_path) for c in a.commands] == [c.argv(tmp_path) for c in b.commands]
    assert [c.mapping(tmp_path) for c in a.commands] == [c.mapping(tmp_path) for c in b.commands]


def test_seeds_change_values_not_amount_of_work():
    for name in ("sweep-r5", "spectra-k12"):
        builds = [workloads.build(name, s) for s in SEEDS]
        shapes = {tuple((c.experiment, len(c.overrides)) for c in w.commands) for w in builds}
        assert len(shapes) == 1
        assert len({w.commands for w in builds}) > 1


def test_seeded_values_stay_in_range():
    for seed in SEEDS:
        sweep = workloads.build("sweep-r5", seed)
        eps, dj = _values(sweep, "error.eps"), _values(sweep, "error.delta_j")
        assert len(set(eps)) == 4 and all(0 < e <= 0.1 for e in eps)
        assert len(set(dj)) == 2 and all(0 <= d <= 0.1 for d in dj)
        spectra = workloads.build("spectra-k12", seed)
        for key in ("error.eps", "error.delta_j"):
            assert all(0 <= v <= 0.05 for v in _values(spectra, key))


def _traced_counts(workload, out_dir):
    tracer = Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            for command in workload.commands:
                assert fpsearch.cli.main(command.argv(out_dir)) == workload.expected_exit
    finally:
        tracer.uninstall()
    return tracer.counts


@pytest.mark.parametrize("name", ["sweep-r5", "spectra-k12"])
def test_two_seeds_give_the_same_event_counts(name, tmp_path):
    first = _traced_counts(workloads.build(name, 1), tmp_path / "a")
    second = _traced_counts(workloads.build(name, 2), tmp_path / "b")
    assert first["compiler.events"] == second["compiler.events"] > 0
    assert first["pulses.events"] == second["pulses.events"]
    if name == "sweep-r5":
        assert first["pulses.events"] == 91840


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workloads.build(name, workloads.DEFAULT_SEED).why for name in workloads.WORKLOADS
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
