"""Compilation of gate lists into pulse sequences for the two-spin system.

A two-qubit diagonal phase pattern factors over the commuting generators
``1, Hz, Cz, 2HzCz`` whose diagonals are ``(1,1,1,1)``, ``(1,1,-1,-1)/2``,
``(1,-1,1,-1)/2`` and ``(1,-1,-1,1)/2``. Writing the target phases as

    phases = g0*1 + alpha*hz + beta*cz + gamma*d

gives one z rotation per spin and one period of coupling evolution. A free
delay of duration t contributes ``gamma = -pi*J*t <= 0`` only; when the
solved gamma is positive the triple (alpha, beta, gamma) is shifted by -pi
per step until gamma is nonpositive. Each shift changes the realized
operator by a pure global phase, because ``hz + cz + d`` differs from a
constant only by 2*pi on the all-zeros entry. The shift is what makes a
phase gate and its negated-phase inverse compile to different delay
durations, so coupling miscalibration hits the two asymmetrically.

Base transformations compile to single simultaneous 90-degree y pulses;
their inverses are the same pulses with the axis phase advanced by pi, so
an rf amplitude error is shared exactly between a gate and its inverse.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from . import search
from .pulses import (
    RF_PULSE,
    GateSpan,
    PulseEvent,
    PulseSequence,
    SpinSystem,
    bb1_expand,
    composite_z,
    coupling_delay,
    rf_pulse,
)
from .search import OracleSpec

STYLES = ("naive", "bb1")

_HZ = np.array([0.5, 0.5, -0.5, -0.5])
_CZ = np.array([0.5, -0.5, 0.5, -0.5])
_DD = np.array([0.5, -0.5, -0.5, 0.5])

_ZERO = 1e-12


def diagonal_phase_coefficients(spec: OracleSpec) -> tuple[float, float, float]:
    """Solve ``phases = g0 + alpha*hz + beta*cz + gamma*d`` for an oracle.

    Returns ``(alpha, beta, gamma)``; the generator diagonals are an
    orthogonal basis of unit norm, so the solve is three dot products. Each of
    ``hz``, ``cz`` and ``d`` sums to zero, so the global phase ``g0`` drops
    out of every product and is not computed.
    """
    p = np.zeros(4)
    p[list(spec.indices)] = spec.phase
    return float(p @ _HZ), float(p @ _CZ), float(p @ _DD)


def _phase_gate_events(spec: OracleSpec, system: SpinSystem) -> list[PulseEvent]:
    alpha, beta, gamma = diagonal_phase_coefficients(spec)
    while gamma > _ZERO:
        alpha -= np.pi
        beta -= np.pi
        gamma -= np.pi
    events: list[PulseEvent] = []
    if gamma < -_ZERO:
        events.append(coupling_delay(-gamma / (np.pi * system.J)))
    # exp(i*alpha*Hz) is a z rotation by -alpha in the exp(-i*theta*sz/2)
    # convention, built from transverse pulses.
    for coeff, spin in ((alpha, "H"), (beta, "C")):
        if abs(coeff) > _ZERO:
            events.extend(composite_z(-coeff, spin))
    return events


def _bb1_rewrite(events: list[PulseEvent]) -> list[PulseEvent]:
    out: list[PulseEvent] = []
    for ev in events:
        if ev.kind == RF_PULSE:
            out.extend(bb1_expand(ev.angle, ev.phase, ev.targets))
        else:
            out.append(ev)
    return out


def compile_gates(
    oracle: OracleSpec,
    system: SpinSystem,
    style: str = "naive",
) -> Mapping[str, PulseSequence]:
    """Pulse sequences of the six gates, keyed by gate label (memoised, read-only).

    Each gate is compiled on its own, with no merging of pulses within or
    across gates. ``style="bb1"`` rewrites every rf pulse as a BB1
    composite rotation. An inverse is compiled as a gate of its own,
    not by reversing its gate's pulses.

    Each (oracle, system, style) is compiled once per process: every caller
    shares one read-only mapping of frozen sequences.
    """
    # np.float32(150.0) == 150.0 with one hash, yet compiles its delays in
    # float32, so the types of the float fields key the memo as well
    return _compiled_gates(oracle, system, style, type(oracle.phase), type(system.J))


# a verify run needs 20 entries, and all 28 (oracle, style) pairs of one system
# fit; an entry holds at most ~25 KB (bb1), so the memo stays under 1.6 MB
@functools.lru_cache(maxsize=64)
def _compiled_gates(oracle, system, style, *field_types) -> MappingProxyType:
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")
    if oracle.phase == 0.0:
        raise ValueError("phase gate with zero phase compiles to nothing")
    origin = search.origin_spec(oracle.phase)
    gates = {
        "U": [rf_pulse({"H", "C"}, np.pi / 2, np.pi / 2)],
        "Udag": [rf_pulse({"H", "C"}, np.pi / 2, 3 * np.pi / 2)],
        "Rf": _phase_gate_events(oracle, system),
        "Rfdag": _phase_gate_events(oracle.adjoint(), system),
        "R0": _phase_gate_events(origin, system),
        "R0dag": _phase_gate_events(origin.adjoint(), system),
    }
    if style == "bb1":
        gates = {label: _bb1_rewrite(events) for label, events in gates.items()}
    return MappingProxyType(
        {label: PulseSequence(tuple(events)) for label, events in gates.items()}
    )


clear_compile_memo = _compiled_gates.cache_clear


def compile_algorithm(
    r: int,
    oracle: OracleSpec,
    system: SpinSystem,
    style: str = "naive",
) -> PulseSequence:
    """Compile the order-r search operator into a pulse sequence.

    The gate sequences of :func:`compile_gates` are concatenated along
    ``expand_gate_list(r)``, one span per gate.
    """
    gate_list = search.expand_gate_list(r)
    gates = compile_gates(oracle, system, style)
    events: list[PulseEvent] = []
    spans: list[GateSpan] = []
    for label in gate_list:
        gate_events = gates[label].events
        spans.append(GateSpan(label, len(events), len(events) + len(gate_events)))
        events.extend(gate_events)
    return PulseSequence(tuple(events), tuple(spans))
