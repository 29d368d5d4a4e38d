"""The gate-memoized pulse recursion against the event-by-event reference.

``pulse_operators`` simulates the six compiled gates once and recurses on
V (compiled program) and W (compiled adjoint program). The reference
simulates the whole ``compile_algorithm`` program event by event, and the
scipy ``expm`` brute force checks every compiled gate independently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import sequence_unitary_expm
from fpsearch.compiler import STYLES, compile_algorithm, compile_gates
from fpsearch.experiments import pulse_operators
from fpsearch.pulses import ErrorModel, pulse_unitary, sequence_unitary
from fpsearch.search import all_oracles, ideal_gates

ORACLES = all_oracles(1) + all_oracles(2)

ERRORS = {
    "none": ErrorModel(),
    "rf+0.1": ErrorModel(eps_H=0.1, eps_C=0.1),
    "rf-0.1": ErrorModel(eps_H=-0.1, eps_C=-0.1),
    "delta_j": ErrorModel(delta_J=0.05),
    "mixed": ErrorModel(eps_H=0.05, eps_C=0.03, delta_J=0.05),
}


def _reference(r, oracle, system, style, error):
    return sequence_unitary(compile_algorithm(r, oracle, system, style), system, error)


def _reference_orders(r_max, oracle, system, style, error):
    """``_reference`` for r = 0..r_max in one pass over the order-r_max program.

    Each order-r program is a prefix of the next, so one event-by-event
    product passes through all of them. The product runs in the same order
    as ``sequence_unitary`` with the same event unitaries (memoized per
    distinct event), so each result is bitwise the reference.
    """
    programs = [compile_algorithm(r, oracle, system, style) for r in range(r_max + 1)]
    events = programs[-1].events
    ends = {len(seq): r for r, seq in enumerate(programs)}
    for seq in programs:
        assert events[: len(seq)] == seq.events
    cache, out = {}, []
    u = np.eye(4, dtype=complex)
    for i, event in enumerate(events, start=1):
        if event not in cache:
            cache[event] = pulse_unitary(event, system, error)
        u = cache[event] @ u
        if i in ends:
            out.append(u)
    return out


def test_one_pass_reference_is_bitwise_the_reference(system):
    error = ERRORS["mixed"]
    for style in STYLES:
        refs = _reference_orders(3, ORACLES[1], system, style, error)
        for r, u in enumerate(refs):
            assert np.array_equal(u, _reference(r, ORACLES[1], system, style, error))


@pytest.mark.parametrize("error", ERRORS.values(), ids=ERRORS)
@pytest.mark.parametrize("style", STYLES)
def test_matches_reference_elementwise(system, style, error):
    # elementwise, not up to global phase: the recursion must reproduce the
    # reference operator itself, r <= 4 on every k <= 2 oracle
    for oracle in ORACLES:
        gates = compile_gates(oracle, system, style)
        ops = pulse_operators(4, gates, system, error)
        refs = _reference_orders(4, oracle, system, style, error)
        assert len(ops) == len(refs) == 5
        for r, (v, ref) in enumerate(zip(ops, refs)):
            assert np.max(np.abs(v - ref)) <= 1e-10, (oracle.label(), r)


_error = st.floats(-0.2, 0.2)


@settings(max_examples=25)
@given(
    eps_h=_error,
    eps_c=_error,
    delta_j=_error,
    oracle=st.sampled_from(ORACLES),
    style=st.sampled_from(STYLES),
    r=st.integers(0, 3),
)
def test_matches_reference_random_errors(system, eps_h, eps_c, delta_j, oracle, style, r):
    error = ErrorModel(eps_H=eps_h, eps_C=eps_c, delta_J=delta_j)
    v = pulse_operators(r, compile_gates(oracle, system, style), system, error)[r]
    assert np.max(np.abs(v - _reference(r, oracle, system, style, error))) <= 1e-10


@settings(max_examples=15)
@given(
    eps_h=_error,
    eps_c=_error,
    delta_j=_error,
    oracle=st.sampled_from(ORACLES),
    style=st.sampled_from(STYLES),
)
def test_gates_match_bruteforce(system, eps_h, eps_c, delta_j, oracle, style):
    error = ErrorModel(eps_H=eps_h, eps_C=eps_c, delta_J=delta_j)
    gates = compile_gates(oracle, system, style)
    assert list(gates) == list(ideal_gates(oracle))
    for label, seq in gates.items():
        u = sequence_unitary(seq, system, error)
        assert np.max(np.abs(u - sequence_unitary_expm(seq, system, error))) <= 1e-9, label
