"""Dense complex linear algebra for small qubit registers.

States are 1-D complex numpy arrays and operators are square complex
arrays.
"""

from __future__ import annotations

import numpy as np

# Tolerance for algebraic identities on directly constructed objects.
ATOL = 1e-12


def equal_up_to_global_phase(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """True iff ``u == c * v`` entrywise within ``tol`` for some unit-modulus c.

    The candidate phase is read off the largest-magnitude entry of ``v``;
    an all-zero ``v`` compares unequal to everything.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    if abs(v[idx]) == 0.0:
        return False
    c = u[idx] * np.conj(v[idx])
    if abs(c) == 0.0:
        return False
    c /= abs(c)
    return bool(np.max(np.abs(u - c * v)) <= tol)


def pure_density(psi: np.ndarray) -> np.ndarray:
    """Outer product ``psi psi^dag`` of a normalized state."""
    psi = np.asarray(psi, dtype=complex)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state not normalized (norm {norm})")
    return np.outer(psi, psi.conj())
