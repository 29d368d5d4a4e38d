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

import numpy as np

from . import pulses, search
from .pulses import (
    DELAY,
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
from .search import GateOp, OracleSpec

STYLES = ("naive", "bb1")

_HZ = np.array([0.5, 0.5, -0.5, -0.5])
_CZ = np.array([0.5, -0.5, 0.5, -0.5])
_DD = np.array([0.5, -0.5, -0.5, 0.5])

_ZERO = 1e-12


def diagonal_phase_coefficients(spec: OracleSpec) -> tuple[float, float, float, float]:
    """Solve ``phases = g0 + alpha*hz + beta*cz + gamma*d`` for an oracle.

    Returns ``(g0, alpha, beta, gamma)``; the generator diagonals are an
    orthogonal basis of unit norm, so the solve is four dot products.
    """
    if spec.n != 2:
        raise ValueError("diagonal decomposition is defined for n=2 only")
    p = np.zeros(4)
    p[list(spec.indices)] = spec.phase
    g0 = float(p.mean())
    q = p - g0
    return g0, float(q @ _HZ), float(q @ _CZ), float(q @ _DD)


def _phase_gate_events(spec: OracleSpec, system: SpinSystem) -> list[PulseEvent]:
    _, alpha, beta, gamma = diagonal_phase_coefficients(spec)
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


def _gate_events(
    gate: GateOp,
    oracle: OracleSpec,
    origin: OracleSpec,
    system: SpinSystem,
) -> list[PulseEvent]:
    if gate.kind == "U":
        phase = np.pi / 2 if not gate.dagger else 3 * np.pi / 2
        return [rf_pulse({"H", "C"}, np.pi / 2, phase)]
    spec = oracle if gate.kind == "Rf" else origin
    if gate.dagger:
        spec = spec.adjoint()
    return _phase_gate_events(spec, system)


def _same_axis(a: PulseEvent, b: PulseEvent) -> int:
    """+1 for parallel rf axes, -1 for antiparallel, 0 otherwise."""
    d = (a.phase - b.phase) % (2 * np.pi)
    if d < _ZERO or 2 * np.pi - d < _ZERO:
        return 1
    if abs(d - np.pi) < _ZERO:
        return -1
    return 0


def _local_merge(events: list[PulseEvent]) -> list[PulseEvent]:
    """Combine pulses within one gate: drop zero rotations, add adjacent
    same-spin rotations about a shared axis, and sum adjacent delays."""
    out: list[PulseEvent] = []
    for ev in events:
        if ev.kind == RF_PULSE and abs(ev.angle) <= _ZERO:
            continue
        if out:
            prev = out[-1]
            if (
                ev.kind == RF_PULSE
                and prev.kind == RF_PULSE
                and prev.targets == ev.targets
            ):
                sense = _same_axis(prev, ev)
                if sense:
                    angle = prev.angle + sense * ev.angle
                    out.pop()
                    if abs(angle) > _ZERO:
                        out.append(rf_pulse(prev.targets, angle, prev.phase))
                    continue
            if ev.kind == DELAY and prev.kind == DELAY:
                out.pop()
                out.append(coupling_delay(prev.duration + ev.duration))
                continue
        out.append(ev)
    return out


def _bb1_rewrite(events: list[PulseEvent]) -> list[PulseEvent]:
    out: list[PulseEvent] = []
    for ev in events:
        if ev.kind == RF_PULSE:
            out.extend(bb1_expand(ev.angle, ev.phase, ev.targets))
        else:
            out.append(ev)
    return out


# The six gate descriptors an order-r program is built from.
GATES = tuple(
    GateOp(kind, dagger) for kind in ("U", "Rf", "R0") for dagger in (False, True)
)


def compile_gates(
    oracle: OracleSpec,
    system: SpinSystem,
    style: str = "naive",
) -> dict[str, PulseSequence]:
    """Pulse sequences of the six gates, keyed by ``GateOp.label``.

    Each gate is compiled on its own and locally simplified; no merging
    happens across gate boundaries. ``style="bb1"`` rewrites every rf pulse
    as a BB1 composite rotation after local simplification. An inverse is
    compiled from its own descriptor, not by reversing its gate's pulses.
    """
    if oracle.n != 2:
        raise ValueError("pulse compilation supports two-spin systems only")
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")
    if oracle.phase == 0.0:
        raise ValueError("phase gate with zero phase compiles to nothing")
    origin = search.origin_spec(oracle.n, oracle.phase)
    out: dict[str, PulseSequence] = {}
    for gate in GATES:
        events = _local_merge(_gate_events(gate, oracle, origin, system))
        if style == "bb1":
            events = _bb1_rewrite(events)
        span = GateSpan(gate.label, 0, len(events))
        out[gate.label] = PulseSequence(tuple(events), (span,))
    return out


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
    for gate in gate_list:
        gate_events = gates[gate.label].events
        spans.append(GateSpan(gate.label, len(events), len(events) + len(gate_events)))
        events.extend(gate_events)
    return PulseSequence(tuple(events), tuple(spans))
