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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

SPINS = ("H", "C")

# Ideal pulse sequences must reproduce their gate-level unitary this well.
SEQUENCE_ATOL = 1e-10

# Diagonal of the 2HzCz product operator in the |HC> basis.
_COUPLING_DIAG = np.array([0.5, -0.5, -0.5, 0.5])

_IDENTITY2 = np.eye(2, dtype=complex)  # an untargeted spin's rf factor; never written
_TARGET_SETS = {t: t for t in map(frozenset, ("H", "C", "HC"))}  # events share these

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
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


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
        targets = frozenset(self.targets)
        object.__setattr__(self, "targets", _TARGET_SETS.get(targets, targets))
        if self.kind not in (RF_PULSE, DELAY):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if any(t not in SPINS for t in self.targets):
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
class GateSpan:
    """Half-open event range [start, stop) compiled from one gate."""

    label: str
    start: int
    stop: int


@dataclass(frozen=True)
class PulseSequence:
    """Ordered events plus the gate descriptors they were compiled from."""

    events: tuple[PulseEvent, ...]
    gates: tuple[GateSpan, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "gates", tuple(self.gates))

    def __len__(self) -> int:
        return len(self.events)

    def rf_pulse_count(self) -> int:
        return sum(1 for e in self.events if e.kind == RF_PULSE)

    def total_delay_time(self) -> float:
        return float(sum(e.duration for e in self.events if e.kind == DELAY))

    def serialize(self) -> str:
        """Line-oriented text form, one event per line.

        ``PULSE <targets> <angle_deg> <phase_deg>`` for rotations and
        ``DELAY <seconds>`` for free evolution, with ``# gate:`` comments at
        gate boundaries. Numbers carry 9 significant digits.
        """
        starts = {span.start: span.label for span in self.gates}
        lines: list[str] = []
        for i, ev in enumerate(self.events):
            if i in starts:
                lines.append(f"# gate: {starts[i]}")
            if ev.kind == RF_PULSE:
                lines.append(
                    f"PULSE {ev.target_label()} "
                    f"{np.degrees(ev.angle):.9g} {np.degrees(ev.phase):.9g}"
                )
            else:
                lines.append(f"DELAY {ev.duration:.9g}")
        return "\n".join(lines) + "\n"


def _rot_xy(theta: float, phase: float) -> np.ndarray:
    # exp(-i*theta*(cos(phase)*sx + sin(phase)*sy)/2)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array(
        [
            [c, -1j * np.exp(-1j * phase) * s],
            [-1j * np.exp(1j * phase) * s, c],
        ],
        dtype=complex,
    )


# typed, as np.float32(0.5) == 0.5 with one hash, yet computes in float32
@functools.lru_cache(maxsize=4096, typed=True)  # a verify run needs ~200
def _event_unitary(angle, phase=None, signs=None, eps_H=None, eps_C=None) -> np.ndarray:
    if phase is None:  # a delay; angle is its coupling phase
        u = np.diag(np.exp(-1j * angle * _COUPLING_DIAG))
    else:  # an rf pulse; signs only key the memo, and eps is None off target
        a, b = (
            _IDENTITY2 if eps is None else _rot_xy(angle * (1.0 + eps), phase)
            for eps in (eps_H, eps_C)
        )
        # np.kron(a, b), bitwise, without its per-call overhead
        u = (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
    u.flags.writeable = False  # the memo hands this array to every caller
    return u


clear_event_memo = _event_unitary.cache_clear


def pulse_unitary(
    event: PulseEvent,
    system: SpinSystem,
    error: ErrorModel = NO_ERROR,
) -> np.ndarray:
    """4x4 unitary of one event under the given error model (memoised, read-only)."""
    if event.kind == RF_PULSE:
        angle, phase, targets = event.angle, event.phase, event.targets
        # 0.0 == -0.0, yet the two give unitaries whose zeros differ in sign
        signs = (math.copysign(1.0, angle), math.copysign(1.0, phase))
        eps_H = error.eps_H if "H" in targets else None
        eps_C = error.eps_C if "C" in targets else None
        return _event_unitary(angle, phase, signs, eps_H, eps_C)
    return _event_unitary(np.pi * system.J * (1.0 + error.delta_J) * event.duration)


def sequence_unitary(
    sequence: PulseSequence,
    system: SpinSystem,
    error: ErrorModel = NO_ERROR,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Time-ordered product of the event unitaries (first event acts first).

    Each distinct event is simulated once per process, through
    :func:`pulse_unitary`'s value-keyed memo. The product keeps its order and
    operands, so it is bitwise the unmemoised one. ``start`` is an operator
    the events continue, the identity by default: continuing the product of
    a program's first events over its remaining ones is bitwise the product
    of the whole program.
    """
    u = np.eye(4, dtype=complex) if start is None else start
    for event in sequence.events:
        u = pulse_unitary(event, system, error) @ u
    check_unitary(u, f"sequence of {len(sequence)} events")
    return u


def check_unitary(u: np.ndarray, what: str) -> None:
    """Raise :class:`UnitarityError` unless ``u`` is unitary to ``SEQUENCE_ATOL``."""
    m = u.conj().T @ u
    m.ravel()[:: len(m) + 1] -= 1.0  # m is a fresh product, so ravel is a view
    dev = float(np.abs(m).max())
    if not dev <= SEQUENCE_ATOL:
        raise UnitarityError(
            f"{what} lost unitarity (deviation {dev:.3e}); check event parameters"
        )


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
    phi1 = np.arccos(-theta / (4 * np.pi))
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
