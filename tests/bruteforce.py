"""Independent brute-force pulse simulation used as a test oracle.

Every event unitary is obtained by exponentiating its generator with
scipy.linalg.expm instead of the closed-form rotation matrices used by the
package, so agreement between the two paths is a real cross-check.
"""

import numpy as np
from scipy.linalg import expm

from fpsearch.pulses import DELAY, RF_PULSE, ErrorModel, SpinSystem

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _on_spin(op: np.ndarray, spin: str) -> np.ndarray:
    return np.kron(op, _I2) if spin == "H" else np.kron(_I2, op)


def event_unitary_expm(event, system: SpinSystem, error: ErrorModel) -> np.ndarray:
    if event.kind == RF_PULSE:
        gen = np.zeros((4, 4), dtype=complex)
        axis = np.cos(event.phase) * _SX + np.sin(event.phase) * _SY
        for spin in event.targets:
            theta = event.angle * (1.0 + error.eps_for(spin))
            gen = gen + theta * _on_spin(axis / 2.0, spin)
        return expm(-1j * gen)
    if event.kind == DELAY:
        two_hz_cz = np.kron(_SZ, _SZ) / 2.0
        omega = np.pi * system.J * (1.0 + error.delta_J) * event.duration
        return expm(-1j * omega * two_hz_cz)
    raise ValueError(event.kind)


def sequence_unitary_expm(sequence, system: SpinSystem, error: ErrorModel) -> np.ndarray:
    u = np.eye(4, dtype=complex)
    for event in sequence.events:
        u = event_unitary_expm(event, system, error) @ u
    return u
