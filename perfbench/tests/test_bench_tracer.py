import importlib
import io
from contextlib import redirect_stdout

import pytest

import fpsearch.cli
from tracer import FUNCTIONS, MODULE_VIEWS, Tracer, layer_totals, self_times


def _current():
    """Every attribute the tracer replaces, by (module, attribute)."""
    pairs = [(m, a) for m, a, *_ in FUNCTIONS] + [(m, a) for m, a, _ in MODULE_VIEWS]
    return {(m, a): getattr(importlib.import_module(m), a) for m, a in pairs}


def test_install_then_uninstall_restores_every_attribute():
    before = _current()
    tracer = Tracer()
    tracer.install()
    try:
        during = _current()
        assert all(during[key] is not before[key] for key in before)
    finally:
        tracer.uninstall()
    after = _current()
    assert all(after[key] is before[key] for key in before)


def test_uninstall_restores_after_a_failing_run(tmp_path):
    before = _current()
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(SystemExit):
            fpsearch.cli.main(["run", "no-such-experiment"])
    finally:
        tracer.uninstall()
    assert all(_current()[key] is before[key] for key in before)


def test_traced_run_records_nested_spans_and_counts(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            code = fpsearch.cli.main([
                "run", "spectra", "--out", str(tmp_path),
                "--override", "oracle.matching=00", "--override", "r.values=0,1",
                "--override", "freq.points=11",
            ])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [s[0] for s in tracer.spans]
    assert names.count("experiments.run_experiment") == 1
    assert names.count("compiler.compile_algorithm") == 2
    assert names.count("readout.format_trace") == 2
    assert names.count("svgplot") == 1
    top = names.index("experiments.run_experiment")
    assert all(parent == top for name, _, _, parent in tracer.spans if name != names[top])
    written = sorted(tmp_path.iterdir())
    assert tracer.counts["experiments.files"] == len(written) == 3
    assert tracer.counts["experiments.bytes"] == sum(p.stat().st_size for p in written)
    assert tracer.counts["compiler.events"] == tracer.counts["pulses.events"] > 0


def test_self_time_subtracts_child_spans():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 3.0, 0),
        ("c", 2.0, 2.5, 1),
        ("d", 5.0, 9.0, 0),
        ("e", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 0.5, 4.0, 1.0])
    seconds, calls = layer_totals(spans)
    assert seconds["a"] == pytest.approx(10.0) and calls["c"] == 1


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("x", 4.0, 6.0, 0), ("y", 5.0, 8.0, 0), ("z", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)
