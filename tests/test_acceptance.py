"""End-to-end acceptance checks, one per packaged guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per check, or equivalently ``fpsearch verify``.
"""

import dataclasses
import importlib
import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fpsearch import cli, experiments, readout, verify
from fpsearch.experiments import EXPERIMENTS
from fpsearch.pulses import ErrorModel, PulseSequence, SpinSystem
from fpsearch.readout import Spectrum
from fpsearch.search import (STATES, OracleSpec, all_oracles, cube_residuals,
                             success_probability)


@pytest.mark.parametrize("number", range(1, len(verify.ALL_CHECKS) + 1))
def test_criterion(number):
    result = verify._timed(*verify.ALL_CHECKS[number - 1])
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {number}: {result.name} "
          f"({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"criterion {number} ({result.name}): {result.detail}"


def test_determinism_names_the_experiment_and_file_that_moved(monkeypatch):
    calls = itertools.count()

    def unsteady(cfg):
        yield "steady.txt", "same\n"
        yield "moving.txt", f"call {next(calls)}\n"

    monkeypatch.setitem(EXPERIMENTS, "spectra", (unsteady, "changes between calls"))
    assert verify._determinism() == (False, "spectra: bytes differ for ['moving.txt']")


def _shift(mapping, key, by):
    return {**mapping, key: mapping[key] + by}


def _offset(fn, by):
    return lambda *args, **kwargs: fn(*args, **kwargs) + by


def _phase_off(fn, by=1e-6):
    """``fn(..., oracle)`` called with the oracle's phase moved by ``by``."""
    return lambda *args: fn(*args[:-1], OracleSpec(args[-1].matching, args[-1].phase + by))


def _scaled(fn, naive, bb1):
    """``pulse_infidelities`` with each infidelity mapped through a function."""
    def infidelities(grid, system):
        inf_n, inf_b = fn(grid, system)
        return ([naive(e, i) for e, i in zip(grid, inf_n)],
                [bb1(e, i) for e, i in zip(grid, inf_b)])
    return infidelities


def _first_pulse_off(gates, by=1e-6):
    """Compiled gates with the first pulse of ``U`` turned ``by`` rad further."""
    first, *rest = gates["U"].events
    turned = dataclasses.replace(first, angle=first.angle + by)
    return {**gates, "U": PulseSequence((turned, *rest))}


# One moderate change to one input of each check, which must then fail, not
# crash: a check that cannot fail shows nothing. Each is (criterion, target
# object, attribute, replacement given the original).
BROKEN = {
    "1-reference": (1, verify, "TABLE1_K1", lambda v: (v[0] + 1e-4, *v[1:])),
    "1-query-count": (1, verify, "TABLE1_Q", lambda v: (*v[:-1], v[-1] + 1)),
    "1-header": (1, verify, "_read_csv",
               lambda f: lambda path: (["Q", *f(path)[0][1:]], f(path)[1])),
    "1-simulation-k1": (1, experiments, "success_probability",
                      lambda f: lambda u, o: f(u, o) + 1e-9 * (o.k == 1)),
    "1-simulation-k2": (1, experiments, "success_probability",
                      lambda f: lambda u, o: f(u, o) + 1e-9 * (o.k == 2)),
    "2-phase": (2, verify, "ideal_gates", _phase_off),
    "3-gate-level-phase": (3, verify, "ideal_gates",
                         lambda f: lambda o: f(OracleSpec(o.matching, o.phase + 1e-6))),
    "3-oracle-gates": (3, verify, "expand_gate_list", lambda f: lambda r: f(r)[:1] + f(r)[2:]),
    "3-rf-count-low": (3, PulseSequence, "rf_pulse_count", lambda f: lambda s: 149),
    "3-rf-count-high": (3, PulseSequence, "rf_pulse_count", lambda f: lambda s: 251),
    "3-compiled-gate": (3, experiments, "compile_gates",
                      lambda f: lambda *args: [_first_pulse_off(g) for g in f(*args)]),
    "5-regression": (5, verify, "COUPLING_RESIDUALS_R1", lambda d: _shift(d, "01", 2e-9)),
    "5-no-coupling-error": (5, experiments, "ErrorModel", lambda cls: lambda **kw: cls()),
    "6-naive-slope": (6, verify, "pulse_infidelities",
                    lambda f: _scaled(f, lambda e, i: i * e**0.3, lambda e, i: i)),
    "6-bb1-slope": (6, verify, "pulse_infidelities",
                  lambda f: _scaled(f, lambda e, i: i, lambda e, i: i * e**0.6)),
    "6-naive-floor": (6, verify, "pulse_infidelities",
                    lambda f: _scaled(f, lambda e, i: i + 2e-12, lambda e, i: i)),
    "6-bb1-floor": (6, verify, "pulse_infidelities",
                  lambda f: _scaled(f, lambda e, i: i, lambda e, i: i + 2e-12)),
    "7-round-trip": (7, experiments, "estimate_probability", lambda f: _offset(f, 2e-9)),
    "7-patterns": (7, readout, "reference_spectrum", lambda f: lambda o: (
        Spectrum(f(o).right_amp, f(o).left_amp) if o.label() == "10" else f(o))),
    "7-both-positive": (7, readout, "reference_spectrum", lambda f: lambda o: (
        Spectrum(f(o).left_amp, -f(o).right_amp) if o.label() == "00+01" else f(o))),
    "7-mixed": (7, readout, "reference_spectrum", lambda f: lambda o: (
        Spectrum(-f(o).left_amp, f(o).right_amp) if o.label() == "01+10" else f(o))),
    "8-identity": (8, verify, "phase_oracle", lambda f: lambda o: (
        f(o) @ np.diag([np.exp(1e-6j * (o.k == 4)), 1, 1, 1]))),
    "8-complement": (8, verify, "phase_oracle", lambda f: lambda o: (
        f(o) if o.k == 4 else f(OracleSpec(o.matching, o.phase + 1e-6 * o.k)))),
    "8-single-step": (8, verify, "recursive_operator", lambda f: _phase_off(f, 1e-2)),
}


@pytest.mark.parametrize("case", BROKEN)
def test_criterion_can_fail(monkeypatch, case):
    number, target, name, replace = BROKEN[case]
    monkeypatch.setattr(target, name, replace(getattr(target, name)))
    result = verify._timed(*verify.ALL_CHECKS[number - 1])
    assert result.passed is False
    assert not result.detail.startswith("raised"), result.detail


def test_criterion_4_fails_at_its_documented_residual():
    # a known, deliberate failure (ROADMAP aim 3); oracle 10's r=2 residual
    # (0.7804844496287631) leads oracle 01's (0.7804844496287625) by 6e-16
    assert verify._error_tolerance() == (
        False,
        "max pulse-level cube residual 7.805e-01 at eps=0.1 oracle=10 r=2 (bound 1e-9)",
    )


# (style, order of the leading term, its coefficient, relative tolerance).
# Over the scan the ratios drift by 0.23% (naive) and 0.15% (bb1). bb1's
# smallest residual, 1.6e-12 at eps = 1e-4, carries the cancellation noise of
# (1 - P(r+1)) - (1 - P(r))**3, up to ~3e-14 at r <= 3 (ROADMAP item 9): 2%.
LEADING_ORDER = [("naive", 1, 2.21, 0.01), ("bb1", 3, 1.63, 0.05)]


@pytest.mark.parametrize("style, order, coefficient, tolerance", LEADING_ORDER)
def test_cube_residual_leading_order_under_rf_error(style, order, coefficient, tolerance):
    # criterion 4's setting: k=1 oracles, r <= 3, rf error eps on both spins;
    # the worst residual is coefficient * eps**order, flat over eps in [1e-4, 1e-3]
    eps_values = [1e-4, 2e-4, 5e-4, 1e-3]
    errors = [ErrorModel(eps_H=eps, eps_C=eps) for eps in eps_values]
    oracles = all_oracles(1)
    ops = experiments.pulse_operators(3, [(o, style) for o in oracles], SpinSystem(), errors)
    worst = [0.0] * len(eps_values)
    for oracle, by_error in zip(oracles, ops):
        for i, probs in enumerate(success_probability(by_error, oracle)):
            worst[i] = max(worst[i], *cube_residuals(probs))
    ratios = [w / eps**order for w, eps in zip(worst, eps_values)]
    assert max(ratios) / min(ratios) - 1.0 <= tolerance, ratios
    assert all(abs(ratio / coefficient - 1.0) <= tolerance for ratio in ratios), ratios


def test_a_check_over_its_time_limit_or_raising_fails():
    assert verify._timed("quick", None, lambda: (True, "ok")).passed
    slow = verify._timed("slow", 0.0, lambda: (True, "ok"))
    assert not slow.passed and slow.detail.startswith("ok; runtime ")

    def crash():
        raise ValueError("no data")

    crashed = verify._timed("crash", None, crash)
    assert not crashed.passed and crashed.detail == "raised ValueError: no data"
    assert 0.0 <= crashed.seconds < 60.0


def test_criterion_5_needs_a_broken_fixed_point(monkeypatch):
    # no coupling error leaves rounding noise; regression values recorded
    # from such a run would agree with it, and the check must still fail
    monkeypatch.setattr(experiments, "ErrorModel", lambda **kwargs: ErrorModel())
    monkeypatch.setattr(verify, "COUPLING_RESIDUALS_R1", dict.fromkeys(STATES, 0.0))
    passed, detail = verify._coupling_error_breaks_fixed_point()
    assert passed is False and detail.startswith("no oracle exceeds 1e-6")


def test_run_all_runs_every_check_in_order(monkeypatch):
    # each row runs inside _timed: the middle one's exception is its result
    def crash():
        raise ValueError("no data")

    rows = [("a", None, lambda: (True, "first")), ("b", 60.0, crash),
            ("c", 60.0, lambda: (False, "third"))]
    monkeypatch.setattr(verify, "ALL_CHECKS", rows)
    results = [(r.name, r.passed, r.detail) for r in verify.run_all()]
    assert results == [("a", True, "first"), ("b", False, "raised ValueError: no data"),
                       ("c", False, "third")]


def test_fpsearch_verify_satisfies_the_benchmark_parser(tmp_path, monkeypatch, capsys):
    # the real checks through the command line, read as perfbench/check.py
    # reads them; no check leaves a file in the working or temporary directory
    work, tmp = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    tmp.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    assert cli.main(["verify"]) == 1
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    check = importlib.import_module("check")
    assert check.check_verify_output(capsys.readouterr().out) == ([], 0.7805)
    assert list(work.iterdir()) == list(tmp.iterdir()) == []


def test_determinism_notices_a_file_only_one_run_yields(monkeypatch):
    calls = itertools.count()

    def growing(cfg):
        yield "steady.txt", "same\n"
        if next(calls):
            yield "extra.txt", "only in the second run\n"

    monkeypatch.setitem(EXPERIMENTS, "spectra", (growing, "adds a file"))
    assert verify._determinism() == (False, "spectra: file sets differ between runs")
