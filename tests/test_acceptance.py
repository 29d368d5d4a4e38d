"""End-to-end acceptance checks, one per packaged guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per check, or equivalently ``fpsearch verify``.
"""

import itertools

import pytest

from fpsearch import verify
from fpsearch.experiments import EXPERIMENTS


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
