"""Fixed-point (pi/3) quantum search with a two-spin NMR pulse-level backend.

The package has three layers:

* :mod:`fpsearch.search` -- phase oracles, the recursive search operator,
  its closed-form success probabilities and phase-insensitive equality.
* :mod:`fpsearch.pulses` / :mod:`fpsearch.compiler` -- rf pulse and coupling
  delay events for a two-spin system, systematic-error simulation, BB1
  composite pulses, and gate-to-pulse compilation.
* :mod:`fpsearch.readout` -- crush-gradient readout from populations,
  doublet amplitudes and the spectral probability estimate.

The :mod:`fpsearch.cli` entry point drives reproducible experiments (tables,
curves, error sweeps, spectra) from flat key=value configuration files.
"""

from .search import (
    ADJOINT,
    MAX_ORDER,
    STATES,
    OracleSpec,
    closed_form_success,
    equal_up_to_global_phase,
    expand_gate_list,
    ideal_gates,
    operators,
    origin_spec,
    phase_oracle,
    pseudo_hadamard,
    query_count,
    recursive_operator,
    success_probability,
)
from .pulses import ErrorModel, PulseEvent, PulseSequence, SpinSystem

__version__ = "0.1.0"

__all__ = [
    "ADJOINT",
    "MAX_ORDER",
    "STATES",
    "ErrorModel",
    "OracleSpec",
    "PulseEvent",
    "PulseSequence",
    "SpinSystem",
    "closed_form_success",
    "equal_up_to_global_phase",
    "expand_gate_list",
    "ideal_gates",
    "operators",
    "origin_spec",
    "phase_oracle",
    "pseudo_hadamard",
    "query_count",
    "recursive_operator",
    "success_probability",
]
