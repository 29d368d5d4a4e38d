"""Fixed-point (pi/3) quantum search with a two-spin NMR pulse-level backend.

The package has four layers:

* :mod:`fpsearch.linalg` -- dense complex linear algebra for small registers.
* :mod:`fpsearch.search` -- phase oracles, the recursive search operator and
  its closed-form success probabilities.
* :mod:`fpsearch.pulses` / :mod:`fpsearch.compiler` -- rf pulse and coupling
  delay events for a two-spin system, systematic-error simulation, BB1
  composite pulses, and gate-to-pulse compilation.
* :mod:`fpsearch.readout` -- crush-gradient readout, doublet amplitudes and
  the spectral probability estimate.

The :mod:`fpsearch.cli` entry point drives reproducible experiments (tables,
curves, error sweeps, spectra) from flat key=value configuration files.
"""

from .linalg import equal_up_to_global_phase, pure_density
from .search import (
    MAX_ORDER,
    GateOp,
    OracleSpec,
    closed_form_success,
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
from .compiler import compile_algorithm

__version__ = "0.1.0"

__all__ = [
    "MAX_ORDER",
    "ErrorModel",
    "GateOp",
    "OracleSpec",
    "PulseEvent",
    "PulseSequence",
    "SpinSystem",
    "closed_form_success",
    "compile_algorithm",
    "equal_up_to_global_phase",
    "expand_gate_list",
    "ideal_gates",
    "operators",
    "origin_spec",
    "phase_oracle",
    "pseudo_hadamard",
    "pure_density",
    "query_count",
    "recursive_operator",
    "success_probability",
]
