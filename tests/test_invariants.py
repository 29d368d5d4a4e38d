"""Exact invariances of the model, checked without a reference.

The fast-path tests compare against references that share the fast path's
floats and often its code. An exact symmetry of the physics needs no
reference: both sides come from ``pulse_operators`` and must agree to
rounding. Swapping the two spins maps every pulse-level run onto the run of
the bit-swapped oracle with the two rf errors exchanged. The default outputs
must also be the same bytes under any string hash seed, which criterion 9
cannot see: its two runs share one process and so one seed.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fpsearch
from fpsearch.compiler import STYLES
from fpsearch.experiments import pulse_operators
from fpsearch.pulses import ErrorModel
from fpsearch.search import OracleSpec, all_oracles

ORACLES = all_oracles(1) + all_oracles(2)
RUNS = [(oracle, style) for oracle in ORACLES for style in STYLES]

SWAP = [0, 2, 1, 3]  # basis index of each state with its two bits swapped


def _swapped(oracle):
    return OracleSpec({state[::-1] for state in oracle.matching}, oracle.phase)


_error = st.floats(-0.2, 0.2)


@settings(max_examples=10)
@given(models=st.lists(st.tuples(_error, _error, _error), min_size=1, max_size=6))
@example(models=[(0.1, 0.1, 0.0), (0.05, -0.03, 0.02), (-0.2, 0.2, -0.2)])
def test_swapping_the_spins_swaps_the_oracle_and_the_rf_errors(system, models):
    # U acts on both spins alike, a phase gate's H and C z-rotations act on
    # different spins and commute, and the delay is swap-symmetric, so
    # SWAP V(r) SWAP of oracle S under (eps_H, eps_C, delta_J) is exactly V(r)
    # of the swapped oracle (01 <-> 10) under (eps_C, eps_H, delta_J), global
    # phase included. With eps_H = eps_C, as in criterion 4 and every default
    # run, oracles 01 and 10 (and 00+01 and 00+10, 01+11 and 10+11) so have
    # equal P(r): criterion 4 names oracle=10 over 01 only by a 6e-16 rounding.
    errors = [ErrorModel(h, c, dj) for h, c, dj in models]
    ops = pulse_operators(3, RUNS, system, errors)
    swapped = pulse_operators(3, [(_swapped(oracle), style) for oracle, style in RUNS],
                              system, [ErrorModel(c, h, dj) for h, c, dj in models])
    assert np.max(np.abs(ops[..., SWAP, :][..., SWAP] - swapped)) <= 1e-13


_DIGEST = """
import hashlib
from fpsearch.config import EXPERIMENT_NAMES, build_config
from fpsearch.experiments import EXPERIMENTS
digest = hashlib.sha256()
for name in EXPERIMENT_NAMES:
    for file, text in EXPERIMENTS[name][0](build_config(name, {})):
        digest.update(f"{name}/{file}\\n{text}".encode())
print(digest.hexdigest())
"""


def test_default_outputs_do_not_depend_on_the_hash_seed():
    # an output that followed the iteration order of a set of strings, such as
    # an oracle's matching states or a pulse's targets, would differ here
    src = str(Path(fpsearch.__file__).resolve().parents[1])
    digests = [
        subprocess.run(
            [sys.executable, "-c", _DIGEST], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    ]
    assert len(digests[0]) == 65 and digests[0] == digests[1]
