"""Phase oracles and the recursive fixed-point search construction.

The search operator is built recursively from a base transformation ``U``
(a pseudo-Hadamard, i.e. simultaneous 90-degree y rotations), a phase
oracle ``Rf`` marking the matching basis states, and the same construction
``R0`` applied to the all-zeros state:

    V(0) = U
    V(r+1) = V(r) R0 V(r)^dag Rf V(r)

With phase pi/3 the target is an attractor: the failure probability cubes
at every level, so the operator never overshoots the target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg

# Cap on the recursion order. The operator recursion itself is cheap, but
# pulse compilation of order r grows like 3**r events.
MAX_ORDER = 8

# Register size guard; dense matrices above this are a configuration error.
MAX_QUBITS = 12


@dataclass(frozen=True)
class OracleSpec:
    """A marking function: the set of n-bit strings picking up ``phase``.

    ``matching`` holds the inputs on which the function is 1; the oracle
    multiplies exactly those basis states by ``exp(i*phase)``.
    """

    n: int
    matching: frozenset[str]
    phase: float = np.pi / 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "matching", frozenset(self.matching))
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count {self.n} outside 1..{MAX_QUBITS}")
        if not self.matching:
            raise ValueError("matching set is empty")
        for s in self.matching:
            if len(s) != self.n or any(c not in "01" for c in s):
                raise ValueError(f"bad basis string {s!r} for n={self.n}")
        if len(self.matching) > self.dim:
            raise ValueError("more matching strings than basis states")
        if not -2 * np.pi < self.phase < 2 * np.pi:
            raise ValueError(f"phase {self.phase} outside (-2*pi, 2*pi)")

    @property
    def k(self) -> int:
        return len(self.matching)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def indices(self) -> tuple[int, ...]:
        """Matching basis indices in increasing order."""
        return tuple(sorted(linalg.basis_index(s) for s in self.matching))

    def label(self) -> str:
        """Stable text form of the matching set, e.g. ``00+01``."""
        return "+".join(sorted(self.matching))

    def adjoint(self) -> "OracleSpec":
        """Same matching set with the phase negated."""
        return OracleSpec(self.n, self.matching, -self.phase)

    def complement(self) -> "OracleSpec":
        """Oracle marking the complementary set of inputs, same phase."""
        universe = {"".join(b) for b in itertools.product("01", repeat=self.n)}
        rest = universe - self.matching
        if not rest:
            raise ValueError("complement of the full set is empty")
        return OracleSpec(self.n, frozenset(rest), self.phase)


def origin_spec(n: int, phase: float = np.pi / 3) -> OracleSpec:
    """The oracle marking only the all-zeros state."""
    return OracleSpec(n, frozenset({"0" * n}), phase)


def all_oracles(n: int, k: int, phase: float = np.pi / 3) -> tuple[OracleSpec, ...]:
    """All size-k marking sets of an n-qubit register, in sorted order."""
    labels = ["".join(b) for b in itertools.product("01", repeat=n)]
    return tuple(
        OracleSpec(n, frozenset(c), phase)
        for c in itertools.combinations(labels, k)
    )


def phase_oracle(spec: OracleSpec) -> np.ndarray:
    """Diagonal unitary with ``exp(i*phase)`` on the matching states."""
    diag = np.ones(spec.dim, dtype=complex)
    diag[list(spec.indices)] = np.exp(1j * spec.phase)
    return np.diag(diag)


def _ry(theta: float) -> np.ndarray:
    # exp(-i*theta*sigma_y/2)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def pseudo_hadamard(n: int) -> np.ndarray:
    """n-fold tensor power of a 90-degree y rotation.

    Maps the all-zeros state to the uniform superposition with real,
    positive amplitudes.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    u = _ry(np.pi / 2.0)
    out = u
    for _ in range(n - 1):
        out = np.kron(out, u)
    return out


@dataclass(frozen=True)
class GateOp:
    """Symbolic gate descriptor: base transformation or phase gate.

    Inverses are first-class descriptors rather than recomputed matrices,
    so a pulse backend is free to realize a gate and its inverse with
    different pulse sequences.
    """

    kind: str  # "U" | "Rf" | "R0"
    dagger: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("U", "Rf", "R0"):
            raise ValueError(f"unknown gate kind {self.kind!r}")

    @property
    def label(self) -> str:
        return self.kind + ("dag" if self.dagger else "")

    def adjoint(self) -> "GateOp":
        return GateOp(self.kind, not self.dagger)


def _check_order(r: int) -> None:
    if r < 0:
        raise ValueError("recursion order must be nonnegative")
    if r > MAX_ORDER:
        raise ValueError(
            f"recursion order {r} exceeds the maximum {MAX_ORDER}; "
            f"pulse compilation grows like 3**r"
        )


def query_count(r: int) -> int:
    """Number of oracle calls used by the order-r operator: (3**r - 1) / 2."""
    if r < 0:
        raise ValueError("recursion order must be nonnegative")
    return (3**r - 1) // 2


def expand_gate_list(r: int) -> tuple[GateOp, ...]:
    """Flat gate sequence of the order-r operator, in application order.

    The first element acts first; the operator is the right-to-left matrix
    product of the per-gate unitaries. Each recursion level wraps the
    previous list as  ``seq + [Rf] + adjoint(seq) + [R0] + seq``.
    """
    _check_order(r)
    seq: list[GateOp] = [GateOp("U")]
    for _ in range(r):
        adj = [g.adjoint() for g in reversed(seq)]
        seq = seq + [GateOp("Rf")] + adj + [GateOp("R0")] + seq
    return tuple(seq)


def recursive_operator(r: int, oracle: OracleSpec) -> np.ndarray:
    """The order-r search operator V(r), built by exact matrix recursion."""
    _check_order(r)
    u = pseudo_hadamard(oracle.n)
    rf = phase_oracle(oracle)
    r0 = phase_oracle(origin_spec(oracle.n, oracle.phase))
    v = u
    for _ in range(r):
        v = v @ r0 @ v.conj().T @ rf @ v
    return v


def success_probability(v: np.ndarray, oracle: OracleSpec) -> float:
    """Total probability on the matching states after applying ``v`` to zeros."""
    if v.shape != (oracle.dim, oracle.dim):
        raise ValueError(f"operator shape {v.shape} does not match n={oracle.n}")
    amps = v[:, 0]
    return float(sum(abs(amps[i]) ** 2 for i in oracle.indices))


def closed_form_success(r: int, k: int, n: int) -> float:
    """Closed-form success probability 1 - (1 - k/2**n)**(3**r) at phase pi/3."""
    if r < 0:
        raise ValueError("recursion order must be nonnegative")
    if not 1 <= k <= (1 << n):
        raise ValueError(f"k={k} outside 1..2**{n}")
    return 1.0 - (1.0 - k / (1 << n)) ** (3**r)
