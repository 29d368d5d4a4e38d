"""Pulse-level model of a two-spin register: rf rotations and coupling delays.

The spin system is a heteronuclear pair (labelled ``H`` and ``C``) coupled
by an Ising interaction ``pi*J*2HzCz``, driven on resonance. Rf pulses are
hard rotations: coupling evolution during a pulse is neglected, which is a
good approximation when the 90-degree pulse time is much shorter than 1/J
(15 us against roughly 5.1 ms at the default coupling). Pulse durations
therefore never enter a unitary; they only scale through the error model.

Systematic errors are coherent: an rf amplitude miscalibration scales every
nominal rotation angle on a channel by ``1 + eps``, and a coupling
miscalibration makes delays programmed for J evolve under ``J*(1+delta_J)``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

SPINS = ("H", "C")

# Ideal pulse sequences must reproduce their gate-level unitary this well.
SEQUENCE_ATOL = 1e-10

# Diagonal of the 2HzCz product operator in the |HC> basis.
_COUPLING_DIAG = np.array([0.5, -0.5, -0.5, 0.5])

_IDENTITY2 = np.eye(2, dtype=complex)  # an untargeted spin's rf factor; never written
_IDENTITY4 = np.eye(4, dtype=complex)  # every product's start; never written

RF_PULSE = "rf_pulse"
DELAY = "delay"


class UnitarityError(RuntimeError):
    """A simulated operator drifted off the unitary group."""


@dataclass(frozen=True)
class SpinSystem:
    """Static parameters of the two-spin system.

    ``J`` (Hz) sets the compiled delay durations and the doublet splitting;
    ``T2_H`` (seconds) only sets the proton line width. Pulse durations and the
    carbon T2 enter nothing the package computes, so they are not modelled.
    """

    J: float = 194.8
    T2_H: float = 1.2

    def __post_init__(self) -> None:
        for name in ("J", "T2_H"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class ErrorModel:
    """Systematic error knobs, all dimensionless fractions."""

    eps_H: float = 0.0
    eps_C: float = 0.0
    delta_J: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eps_H", "eps_C", "delta_J"):
            if not abs(getattr(self, name)) < 1.0:
                raise ValueError(f"|{name}| must be below 1")


NO_ERROR = ErrorModel()


@dataclass(frozen=True, slots=True)
class PulseEvent:
    """One timed event: an rf rotation or a free-evolution delay."""

    kind: str
    targets: frozenset[str] = frozenset()
    angle: float = 0.0
    phase: float = 0.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", frozenset(self.targets))
        if self.kind not in (RF_PULSE, DELAY):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if not self.targets <= frozenset(SPINS):
            raise ValueError(f"unknown spin in targets {set(self.targets)}")
        if self.kind == RF_PULSE:
            if not self.targets:
                raise ValueError("rf pulse needs at least one target spin")
            if not math.isfinite(self.angle) or not math.isfinite(self.phase):
                raise ValueError("rf pulse angle and phase must be finite")
        elif not self.duration > 0 or not math.isfinite(self.duration):
            raise ValueError("delay duration must be positive and finite")

    def target_label(self) -> str:
        return "".join(s for s in SPINS if s in self.targets)


def rf_pulse(targets, angle: float, phase: float = 0.0) -> PulseEvent:
    """A hard rf rotation; negative angles are folded into the axis phase.

    ``targets`` is an iterable of spin labels, so ``"H"`` targets the proton.
    """
    if angle < 0:
        angle, phase = -angle, phase + np.pi
    return PulseEvent(RF_PULSE, targets, angle, phase % (2 * np.pi))


def coupling_delay(duration: float) -> PulseEvent:
    return PulseEvent(DELAY, duration=duration)


@dataclass(frozen=True)
class PulseSequence:
    """Ordered events, the first acting first."""

    events: tuple[PulseEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def rf_pulse_count(self) -> int:
        return sum(1 for e in self.events if e.kind == RF_PULSE)

    def total_delay_time(self) -> float:
        return float(sum(e.duration for e in self.events if e.kind == DELAY))

    def serialize(self) -> str:
        """Line-oriented text form, one event per line.

        ``PULSE <targets> <angle_deg> <phase_deg>`` for rotations and
        ``DELAY <seconds>`` for free evolution. Numbers carry 9 significant
        digits.
        """
        lines: list[str] = []
        for ev in self.events:
            if ev.kind == RF_PULSE:
                lines.append(
                    f"PULSE {ev.target_label()} "
                    f"{np.degrees(ev.angle):.9g} {np.degrees(ev.phase):.9g}"
                )
            else:
                lines.append(f"DELAY {ev.duration:.9g}")
        return "\n".join(lines) + "\n"


def _rot_xy(theta: float, phase: float) -> np.ndarray:
    # exp(-i*theta*(cos(phase)*sx + sin(phase)*sy)/2) by the libm calls and complex
    # products of the numpy-scalar form, in order (s complex, as numpy promoted it)
    c, s = math.cos(theta / 2.0), complex(math.sin(theta / 2.0))
    y1, y2 = (-1j * phase).imag, (1j * phase).imag  # exp(0 + iy) is cos(y) + i sin(y)
    return np.array(
        [
            [c, -1j * complex(math.cos(y1), math.sin(y1)) * s],
            [-1j * complex(math.cos(y2), math.sin(y2)) * s, c],
        ],
        dtype=complex,
    )


def _event_unitary(angle, phase=None, eps_H=None, eps_C=None) -> np.ndarray:
    if phase is None:  # a delay; angle is its coupling phase
        u = np.diag(np.exp(-1j * angle * _COUPLING_DIAG))
    else:  # an rf pulse; eps is None off target
        a, b = (
            _IDENTITY2 if eps is None else _rot_xy(angle * (1.0 + eps), phase)
            for eps in (eps_H, eps_C)
        )
        # np.kron(a, b), bitwise, without its per-call overhead
        u = (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
    u.flags.writeable = False  # the table hands this array to every lookup
    return u


class EventFactors:
    """Event unitaries under each of ``errors``, memoised for one simulation call.

    Calling it on an event returns that event's read-only unitary under each
    model, in order. Each model's plain-float eps_H, eps_C and delay rate
    ``pi*J*(1+delta_J)`` are worked out once, here. The memo is keyed by plain
    floats: an rf pulse by ``float(angle) + 0.0``, ``float(phase) + 0.0`` and
    the eps of each spin it targets (None off target), a delay by its coupling
    phase. So equal inputs give bitwise-equal arrays whatever their numeric
    type, and a -0.0 angle or phase gets the +0.0 event's array.
    """

    def __init__(self, system: SpinSystem, errors: Sequence[ErrorModel]) -> None:
        if not errors:
            raise ValueError("errors is empty; give at least one ErrorModel")
        self.errors = errors
        self._models = [(float(e.eps_H), float(e.eps_C),
                         np.pi * float(system.J) * (1.0 + float(e.delta_J)))
                        for e in errors]
        self._unitaries: dict[tuple, np.ndarray] = {}

    def __call__(self, event: PulseEvent) -> list[np.ndarray]:
        if event.kind == RF_PULSE:
            angle, phase = float(event.angle) + 0.0, float(event.phase) + 0.0
            on_H, on_C = "H" in event.targets, "C" in event.targets
            keys = [(angle, phase, eps_H if on_H else None, eps_C if on_C else None)
                    for eps_H, eps_C, _ in self._models]
        else:
            duration = float(event.duration)
            keys = [(rate * duration,) for _, _, rate in self._models]
        memo = self._unitaries
        for key in keys:
            if key not in memo:
                memo[key] = _event_unitary(*key)
        return [memo[key] for key in keys]


def sequence_unitaries(sequence: PulseSequence, factors: EventFactors) -> np.ndarray:
    """Time-ordered products of the event unitaries under each of ``factors.errors``.

    Returns a fresh ``(len(errors), 4, 4)`` stack, one product per error model
    (first event acts first), for one model as for many. The identity stack and
    every event's factors, read from ``factors``, are copied into one array per
    sequence; then each event takes one stacked product. ``np.matmul`` runs the
    same 4x4 kernel on each matrix of a stack, and the product keeps its order
    and operands, so element ``i`` is bitwise the unmemoised product under
    ``errors[i]``.
    """
    n = len(factors.errors)
    u, *by_event = np.concatenate([_IDENTITY4] * n + [
        unitary for event in sequence.events for unitary in factors(event)
    ]).reshape(-1, n, 4, 4)
    for stack in by_event:
        u = stack @ u
    check_unitary(u, f"sequence of {len(sequence)} events", factors.errors)
    return u


def sequence_unitary(
    sequence: PulseSequence,
    system: SpinSystem,
    error: ErrorModel = NO_ERROR,
) -> np.ndarray:
    """:func:`sequence_unitaries` under one error model, as one 4x4 matrix. Of a
    whole ``compile_algorithm`` program it is the event-by-event reference that
    tests and ``perfbench/check.py`` hold ``experiments.pulse_operators``' rows to."""
    return sequence_unitaries(sequence, EventFactors(system, (error,)))[0]


def check_unitary(u: np.ndarray, what: str, errors: Sequence[ErrorModel] = ()) -> None:
    """Raise :class:`UnitarityError` unless every matrix of ``u`` (one matrix or
    a stack) is unitary to ``SEQUENCE_ATOL``. A stack's ``errors`` are its
    matrices' error models, and the message names the first failing one."""
    m = u.conj().swapaxes(-1, -2) @ u
    d = m.shape[-1]
    m.reshape(-1, d * d)[:, :: d + 1] -= 1.0  # m is a fresh product, so a view
    dev = np.abs(m)
    if not dev.max() <= SEQUENCE_ATOL:
        per_matrix = dev.reshape(-1, d * d).max(axis=1)
        i = int(np.argmin(per_matrix <= SEQUENCE_ATOL))  # NaN fails too
        under = f" under {errors[i]}" if errors else ""
        raise UnitarityError(f"{what} lost unitarity{under} (deviation "
                             f"{per_matrix[i]:.3e}); check event parameters")


def composite_z(theta: float, spin: str) -> tuple[PulseEvent, ...]:
    """z rotation built from transverse pulses: 90(-x), theta(y), 90(x).

    The error-free product equals ``exp(-i*theta*sigma_z/2)`` up to global
    phase. Under an rf amplitude error every constituent pulse scales, so
    the realized rotation tilts off the z axis at first order.
    """
    if abs(theta) > 2 * np.pi:
        raise ValueError("|theta| must not exceed 2*pi")
    return (
        rf_pulse(spin, np.pi / 2.0, np.pi),
        rf_pulse(spin, theta, np.pi / 2.0),
        rf_pulse(spin, np.pi / 2.0, 0.0),
    )


def bb1_expand(theta: float, axis_phase: float, targets) -> tuple[PulseEvent, ...]:
    """BB1 composite rotation: three correction pulses, then the rotation.

    The classic broadband sequence (Wimperis-style): pi and 2*pi rotations
    at phases ``phi1`` and ``3*phi1`` off the target axis, with
    ``phi1 = arccos(-theta/(4*pi))``, cancel pulse-length error to high
    order while leaving the error-free rotation untouched.
    """
    if not 0 < theta <= 2 * np.pi:
        raise ValueError("theta must lie in (0, 2*pi]")
    phi1 = float(np.arccos(-theta / (4 * np.pi)))
    return (
        rf_pulse(targets, np.pi, axis_phase + phi1),
        rf_pulse(targets, 2 * np.pi, axis_phase + 3 * phi1),
        rf_pulse(targets, np.pi, axis_phase + phi1),
        rf_pulse(targets, theta, axis_phase),
    )


def rotation_infidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Average-phase-insensitive infidelity ``1 - |tr(u^dag v)/d|**2``.

    Computed as ``||t||_F**2 / d`` from the traceless part ``t`` of
    ``u^dag v``, which equals it for unitary ``u`` and ``v``, so values far
    below machine epsilon relative to 1 (deep in a composite pulse's
    corrected regime) remain meaningful instead of cancelling to zero.
    """
    d = u.shape[0]
    m = u.conj().T @ v
    t = m - np.trace(m) / d * np.eye(d)
    return float(np.sum(np.abs(t) ** 2)) / d
