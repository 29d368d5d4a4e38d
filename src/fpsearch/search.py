"""Phase oracles and the recursive fixed-point search construction.

The search operator is built recursively from a base transformation ``U``
(a pseudo-Hadamard, i.e. simultaneous 90-degree y rotations), a phase
oracle ``Rf`` marking the matching basis states, and the same construction
``R0`` applied to the all-zeros state:

    V(0) = U
    V(r+1) = V(r) R0 V(r)^dag Rf V(r)

With phase pi/3 the target is an attractor: the failure probability cubes
at every level, so the operator never overshoots the target.

:func:`operators` runs this recursion over six gate matrices, with the
adjoint ``V(r)^dag`` carried along as the operator W(r) of the inverse
gates, so the same code serves exact gates and simulated pulse programs.
:func:`equal_up_to_global_phase` compares gates and operators up to the
global phase no measurement can see, and :func:`cube_residuals` measures
how far a run of success probabilities is from the cube law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Cap on the recursion order. The recursion takes r steps on six gates; only
# the flat gate list, and so ``compile_algorithm``'s whole program, grows like 3**r.
MAX_ORDER = 8

# The register is two spins, and a basis state is labelled by its two bits.
# States are 1-D complex arrays of length 4 indexed in this order, which
# puts qubit 1 (the proton) on the most significant bit: ``"10"`` maps to
# index 2.
STATES = ("00", "01", "10", "11")


@dataclass(frozen=True)
class OracleSpec:
    """A marking function: the set of basis states picking up ``phase``.

    ``matching`` holds the inputs on which the function is 1; the oracle
    multiplies exactly those basis states by ``exp(i*phase)``.
    """

    matching: frozenset[str]
    phase: float = np.pi / 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "matching", frozenset(self.matching))
        if not self.matching:
            raise ValueError("matching set is empty")
        for s in self.matching:
            if s not in STATES:
                raise ValueError(f"bad basis string {s!r}; expected one of {STATES}")
        if not -2 * np.pi < self.phase < 2 * np.pi:
            raise ValueError(f"phase {self.phase} outside (-2*pi, 2*pi)")

    @property
    def k(self) -> int:
        return len(self.matching)

    @property
    def indices(self) -> tuple[int, ...]:
        """Matching basis indices in increasing order."""
        return tuple(sorted(STATES.index(s) for s in self.matching))

    def label(self) -> str:
        """Stable text form of the matching set, e.g. ``00+01``."""
        return "+".join(sorted(self.matching))

    def adjoint(self) -> "OracleSpec":
        """Same matching set with the phase negated."""
        return OracleSpec(self.matching, -self.phase)

    def complement(self) -> "OracleSpec":
        """Oracle marking the complementary set of inputs, same phase."""
        rest = frozenset(STATES) - self.matching
        if not rest:
            raise ValueError("complement of the full set is empty")
        return OracleSpec(rest, self.phase)


def origin_spec(phase: float = np.pi / 3) -> OracleSpec:
    """The oracle marking only the all-zeros state."""
    return OracleSpec(frozenset({STATES[0]}), phase)


def all_oracles(k: int, phase: float = np.pi / 3) -> tuple[OracleSpec, ...]:
    """All size-k marking sets, in sorted order."""
    return tuple(
        OracleSpec(frozenset(c), phase) for c in itertools.combinations(STATES, k)
    )


def phase_oracle(spec: OracleSpec) -> np.ndarray:
    """Diagonal unitary with ``exp(i*phase)`` on the matching states."""
    diag = np.ones(len(STATES), dtype=complex)
    diag[list(spec.indices)] = np.exp(1j * spec.phase)
    return np.diag(diag)


def pseudo_hadamard() -> np.ndarray:
    """Simultaneous 90-degree y rotations of both spins.

    Maps the all-zeros state to the uniform superposition with real,
    positive amplitudes.
    """
    # exp(-i*theta*sigma_y/2) at theta = pi/2
    c, s = np.cos(np.pi / 4.0), np.sin(np.pi / 4.0)
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    return np.kron(ry, ry)


# The six gate labels and the label of each one's inverse. An inverse is
# compiled as a separate gate, not recomputed as a matrix, so a pulse
# backend is free to realize a gate and its inverse with different pulses.
ADJOINT = {"U": "Udag", "Udag": "U", "Rf": "Rfdag", "Rfdag": "Rf",
           "R0": "R0dag", "R0dag": "R0"}


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
    c = u[idx] * np.conj(v[idx])
    if abs(c) == 0.0:  # also when v is all zero
        return False
    c /= abs(c)
    return bool(np.max(np.abs(u - c * v)) <= tol)


def _check_order(r: int) -> None:
    if r < 0:
        raise ValueError("recursion order must be nonnegative")
    if r > MAX_ORDER:
        raise ValueError(
            f"recursion order {r} exceeds the maximum {MAX_ORDER}; "
            "a whole compiled program grows like 3**r"
        )


def query_count(r: int) -> int:
    """Number of oracle calls used by the order-r operator: (3**r - 1) / 2."""
    if r < 0:
        raise ValueError("recursion order must be nonnegative")
    return (3**r - 1) // 2


def expand_gate_list(r: int) -> tuple[str, ...]:
    """Flat gate labels of the order-r operator, in application order.

    The first element acts first; the operator is the right-to-left matrix
    product of the per-gate unitaries. Each recursion level wraps the
    previous list as  ``seq + [Rf] + adjoint(seq) + [R0] + seq``.
    """
    _check_order(r)
    seq = ["U"]
    for _ in range(r):
        adj = [ADJOINT[g] for g in reversed(seq)]
        seq = seq + ["Rf"] + adj + ["R0"] + seq
    return tuple(seq)


def ideal_gates(oracle: OracleSpec) -> dict[str, np.ndarray]:
    """Exact matrices of the six gates, keyed by label."""
    u = pseudo_hadamard()
    rf = phase_oracle(oracle)
    r0 = phase_oracle(origin_spec(oracle.phase))
    return {"U": u, "Udag": u.conj().T, "Rf": rf, "Rfdag": rf.conj().T,
            "R0": r0, "R0dag": r0.conj().T}


def operators(r_max: int, gates: dict[str, np.ndarray]) -> np.ndarray:
    """The operators V(0)..V(r_max) built from six gate matrices.

    ``gates`` maps each gate label to a gate's matrix, or to a stack of them:
    the exact ones of :func:`ideal_gates`, or simulated pulse programs. In
    matrix order

        V(r+1) = V(r) R0 W(r) Rf V(r),   W(r+1) = W(r) Rf^dag V(r) R0^dag W(r)

    starting from V(0) = U and W(0) = U^dag, where W(r) is the operator of
    the adjoint program, built from the inverse gates. With exact gates W
    is V^dag. A compiled gate and its compiled inverse need not share an
    error (a phase gate and its inverse use different delay durations, so
    a coupling error hits them differently), so W is not replaced by V^dag:
    that mismatch is what the pulse level models.

    The products broadcast over stacks, and each order is written into one
    preallocated result as it is formed: ``[..., r, :, :]`` is V(r), so for
    plain matrices element ``r`` is V(r).
    """
    _check_order(r_max)
    v, w = gates["U"], gates["Udag"]
    rf, rf_dag, r0, r0_dag = (gates[k] for k in ("Rf", "Rfdag", "R0", "R0dag"))
    *batch, rows, cols = v.shape
    out = np.empty((*batch, r_max + 1, rows, cols), np.result_type(*gates.values()))
    out[..., 0, :, :] = v
    for r in range(1, r_max + 1):
        v, w = v @ r0 @ w @ rf @ v, w @ rf_dag @ v @ r0_dag @ w
        out[..., r, :, :] = v
    return out


def recursive_operator(r: int, oracle: OracleSpec) -> np.ndarray:
    """The order-r search operator V(r), built by exact matrix recursion."""
    return operators(r, ideal_gates(oracle))[r]


def success_probability(v: np.ndarray, oracle: OracleSpec) -> float | list:
    """Total probability on the matching states after applying ``v`` to zeros;
    of each matrix of a ``(..., 4, 4)`` stack, as nested lists. Each amplitude's
    Python ``abs(a) ** 2``, added in index order, gives the numpy-scalar bits."""
    if v.shape[-2:] != (len(STATES), len(STATES)):
        raise ValueError(f"operator shape {v.shape} is not 4x4")
    def read(amps, indices=oracle.indices):  # one column, or lists of columns
        if not amps or isinstance(amps[0], list):
            return [read(a) for a in amps]
        p = 0.0
        for i in indices:  # plain adds: from Python 3.12, sum() of floats compensates
            p += abs(amps[i]) ** 2
        return p

    return read(v[..., 0].tolist())


def cube_residuals(probs: list[float]) -> list[float]:
    """``|(1 - P(r+1)) - (1 - P(r))**3|`` for each successive pair of ``probs``.

    The fixed-point contraction cubes the failure probability at every
    level, so each residual is zero for an ideal run.
    """
    return [abs((1.0 - b) - (1.0 - a) ** 3) for a, b in zip(probs, probs[1:])]


def closed_form_success(r: float, k: int) -> float:
    """Closed-form success probability 1 - (1 - k/4)**(3**r) at phase pi/3."""
    if r < 0:
        raise ValueError("recursion order must be nonnegative")
    if not 1 <= k <= len(STATES):
        raise ValueError(f"k={k} outside 1..{len(STATES)}")
    return 1.0 - (1.0 - k / len(STATES)) ** (3**r)
