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

from collections.abc import Sequence

import numpy as np

from . import search
from .pulses import (
    RF_PULSE,
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


def _phase_gate_key(spec: OracleSpec, system: SpinSystem) -> tuple[float | None, ...]:
    """The delay duration and the proton and carbon z angles that set a phase
    gate's events, each None where the gate has no such event."""
    alpha, beta, gamma = diagonal_phase_coefficients(spec)
    while gamma > _ZERO:
        alpha -= np.pi
        beta -= np.pi
        gamma -= np.pi
    # exp(i*alpha*Hz) is a z rotation by -alpha in the exp(-i*theta*sz/2)
    # convention, built from transverse pulses.
    return (-gamma / (np.pi * float(system.J)) if gamma < -_ZERO else None,
            *(-coeff if abs(coeff) > _ZERO else None for coeff in (alpha, beta)))


def _phase_gate_events(delay: float | None, theta_H: float | None,
                       theta_C: float | None) -> list[PulseEvent]:
    events = [] if delay is None else [coupling_delay(delay)]
    for theta, spin in ((theta_H, "H"), (theta_C, "C")):
        if theta is not None:
            events.extend(composite_z(theta, spin))
    return events


def _bb1_rewrite(naive: PulseSequence) -> PulseSequence:
    """``naive`` with every rf pulse a BB1 composite rotation; a gate with no
    rf pulse is its own rewrite."""
    if not naive.rf_pulse_count():
        return naive
    return PulseSequence(tuple(
        out for ev in naive.events
        for out in (bb1_expand(ev.angle, ev.phase, ev.targets) if ev.kind == RF_PULSE
                    else (ev,))
    ))


def compile_gates(
    runs: Sequence[tuple[OracleSpec, str]],
    system: SpinSystem,
) -> list[dict[str, PulseSequence]]:
    """Pulse sequences of the six gates of each ``(oracle, style)`` run, keyed
    by gate label, in run order.

    Each gate is compiled on its own, with no merging of pulses within or
    across gates. ``style="bb1"`` rewrites every rf pulse as a BB1
    composite rotation. An inverse is compiled as a gate of its own,
    not by reversing its gate's pulses. The oracle's phase enters through a
    float64 array and ``J`` through ``float``, so equal arguments compile to
    identical events whatever their numeric types.

    The call keeps one gate table, keyed by the values that set a gate's
    events: ``U`` and ``Udag`` by name, a phase gate by its delay duration
    and z angles. Each key's naive gate is built once and its bb1 gate is
    the BB1 rewrite of that object, so equal gates of one call, of any runs
    and either style, are one object (oracle 00's ``Rf`` is ``R0``).
    """
    table: dict[tuple, PulseSequence] = {}

    def gate(style: str, key, build) -> PulseSequence:
        if ("naive", key) not in table:
            table["naive", key] = PulseSequence(tuple(build()))
        if (style, key) not in table:
            table[style, key] = _bb1_rewrite(table["naive", key])
        return table[style, key]

    def phase_gate(style: str, spec: OracleSpec) -> PulseSequence:
        key = _phase_gate_key(spec, system)
        return gate(style, key, lambda: _phase_gate_events(*key))

    gate_sets = []
    for oracle, style in runs:
        if style not in STYLES:
            raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")
        if oracle.phase == 0.0:
            raise ValueError("phase gate with zero phase compiles to nothing")
        origin = search.origin_spec(oracle.phase)
        gate_sets.append({
            "U": gate(style, "U", lambda: [rf_pulse({"H", "C"}, np.pi / 2, np.pi / 2)]),
            "Udag": gate(style, "Udag",
                         lambda: [rf_pulse({"H", "C"}, np.pi / 2, 3 * np.pi / 2)]),
            "Rf": phase_gate(style, oracle),
            "Rfdag": phase_gate(style, oracle.adjoint()),
            "R0": phase_gate(style, origin),
            "R0dag": phase_gate(style, origin.adjoint()),
        })
    return gate_sets


def compile_algorithm(
    r: int,
    oracle: OracleSpec,
    system: SpinSystem,
    style: str = "naive",
) -> PulseSequence:
    """Compile the order-r search operator into one flat pulse sequence.

    The program is the events of :func:`compile_gates`'s sequences,
    concatenated along ``expand_gate_list(r)``; it keeps no gate boundaries.
    """
    gate_list = search.expand_gate_list(r)
    (gates,) = compile_gates([(oracle, style)], system)
    return PulseSequence(tuple(ev for label in gate_list for ev in gates[label].events))
