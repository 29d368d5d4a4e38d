"""End-to-end acceptance checks, one per packaged guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per check, or equivalently ``fpsearch verify``.
"""

import itertools

import numpy as np
import pytest

from fpsearch import experiments, readout, verify
from fpsearch.experiments import EXPERIMENTS
from fpsearch.pulses import ErrorModel, PulseSequence
from fpsearch.readout import Spectrum
from fpsearch.search import STATES, OracleSpec


@pytest.mark.parametrize(
    "number,check", verify.ALL_CHECKS, ids=[name for name, _ in verify.ALL_CHECKS]
)
def test_criterion(number, check):
    result = check()
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
    result = verify.check_determinism()
    assert not result.passed
    assert result.detail == "spectra: bytes differ for ['moving.txt']"


def _shift(mapping, key, by):
    return {**mapping, key: mapping[key] + by}


def _offset(fn, by):
    return lambda *args, **kwargs: fn(*args, **kwargs) + by


def _phase_off(fn, by=1e-6):
    """``fn(..., oracle)`` called with the oracle's phase moved by ``by``."""
    return lambda *args: fn(*args[:-1], OracleSpec(args[-1].matching, args[-1].phase + by))


def _scaled(fn, naive, bb1):
    """``pulse_infidelities`` with each infidelity mapped through a function."""
    def infidelities(eps, system):
        i_n, i_b = fn(eps, system)
        return naive(eps, i_n), bb1(eps, i_b)
    return infidelities


# One moderate change to one input of each check, which must then fail, not
# crash: a check that cannot fail shows nothing. Each is (criterion, target
# object, attribute, replacement given the original).
BROKEN = {
    "1-reference": ("1", verify, "TABLE1_K1", lambda v: (v[0] + 1e-4, *v[1:])),
    "1-query-count": ("1", verify, "TABLE1_Q", lambda v: (*v[:-1], v[-1] + 1)),
    "1-header": ("1", verify, "_read_csv",
                 lambda f: lambda path: (["Q", *f(path)[0][1:]], f(path)[1])),
    "1-simulation-k1": ("1", experiments, "success_probability",
                        lambda f: lambda u, o: f(u, o) + 1e-9 * (o.k == 1)),
    "1-simulation-k2": ("1", experiments, "success_probability",
                        lambda f: lambda u, o: f(u, o) + 1e-9 * (o.k == 2)),
    "2-phase": ("2", verify, "recursive_operator", _phase_off),
    "3-gate-level-phase": ("3", verify, "ideal_gates",
                           lambda f: lambda o: f(OracleSpec(o.matching, o.phase + 1e-6))),
    "3-oracle-gates": ("3", verify, "expand_gate_list", lambda f: lambda r: f(r)[:1] + f(r)[2:]),
    "3-rf-count-low": ("3", PulseSequence, "rf_pulse_count", lambda f: lambda s: 149),
    "3-rf-count-high": ("3", PulseSequence, "rf_pulse_count", lambda f: lambda s: 251),
    "5-regression": ("5", verify, "COUPLING_RESIDUALS_R1", lambda d: _shift(d, "01", 2e-9)),
    "5-no-coupling-error": ("5", verify, "ErrorModel", lambda cls: lambda **kw: cls()),
    "6-naive-slope": ("6", verify, "pulse_infidelities",
                      lambda f: _scaled(f, lambda e, i: i * e**0.3, lambda e, i: i)),
    "6-bb1-slope": ("6", verify, "pulse_infidelities",
                    lambda f: _scaled(f, lambda e, i: i, lambda e, i: i * e**0.6)),
    "6-naive-floor": ("6", verify, "pulse_infidelities",
                      lambda f: _scaled(f, lambda e, i: i + 2e-12, lambda e, i: i)),
    "6-bb1-floor": ("6", verify, "pulse_infidelities",
                    lambda f: _scaled(f, lambda e, i: i, lambda e, i: i + 2e-12)),
    "7-round-trip": ("7", readout, "estimate_probability", lambda f: _offset(f, 2e-9)),
    "7-patterns": ("7", readout, "reference_spectrum", lambda f: lambda o: (
        Spectrum(f(o).right_amp, f(o).left_amp) if o.label() == "10" else f(o))),
    "7-both-positive": ("7", readout, "reference_spectrum", lambda f: lambda o: (
        Spectrum(f(o).left_amp, -f(o).right_amp) if o.label() == "00+01" else f(o))),
    "7-mixed": ("7", readout, "reference_spectrum", lambda f: lambda o: (
        Spectrum(-f(o).left_amp, f(o).right_amp) if o.label() == "01+10" else f(o))),
    "8-identity": ("8", verify, "phase_oracle", lambda f: lambda o: (
        f(o) @ np.diag([np.exp(1e-6j * (o.k == 4)), 1, 1, 1]))),
    "8-complement": ("8", verify, "phase_oracle", lambda f: lambda o: (
        f(o) if o.k == 4 else f(OracleSpec(o.matching, o.phase + 1e-6 * o.k)))),
    "8-single-step": ("8", verify, "recursive_operator", lambda f: _phase_off(f, 1e-2)),
}


@pytest.mark.parametrize("case", BROKEN)
def test_criterion_can_fail(monkeypatch, case):
    number, target, name, replace = BROKEN[case]
    monkeypatch.setattr(target, name, replace(getattr(target, name)))
    result = dict(verify.ALL_CHECKS)[number]()
    assert result.passed is False
    assert not result.detail.startswith("raised"), result.detail


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
    monkeypatch.setattr(verify, "ErrorModel", lambda **kwargs: ErrorModel())
    monkeypatch.setattr(verify, "COUPLING_RESIDUALS_R1", dict.fromkeys(STATES, 0.0))
    result = verify.check_coupling_error_breaks_fixed_point()
    assert result.passed is False and result.detail.startswith("no oracle exceeds 1e-6")


def test_run_all_runs_every_check_in_order(monkeypatch):
    results = [verify.CheckResult(name, True, "", 0.0) for name in "ab"]
    monkeypatch.setattr(verify, "ALL_CHECKS", [(r.name, lambda r=r: r) for r in results])
    assert verify.run_all() == results


def test_determinism_notices_a_file_only_one_run_yields(monkeypatch):
    calls = itertools.count()

    def growing(cfg):
        yield "steady.txt", "same\n"
        if next(calls):
            yield "extra.txt", "only in the second run\n"

    monkeypatch.setitem(EXPERIMENTS, "spectra", (growing, "adds a file"))
    result = verify.check_determinism()
    assert not result.passed
    assert result.detail == "spectra: file sets differ between runs"
