import numpy as np
import pytest

from fpsearch import linalg
from conftest import random_state, random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_basis_indexing_msb_first():
    # qubit 1 is the most significant bit
    assert linalg.basis_index("10") == 2
    psi = linalg.basis_state(2, "10")
    assert psi[2] == 1.0 and np.count_nonzero(psi) == 1


def test_basis_state_rejects_bad_labels():
    with pytest.raises(ValueError):
        linalg.basis_index("1x")
    with pytest.raises(ValueError):
        linalg.basis_state(2, 4)


def test_apply_identity_and_phase_oracle_action():
    psi = linalg.basis_state(2, "11")
    assert np.allclose(np.eye(4) @ psi, psi)
    d = np.diag([1, 1, 1, -1]).astype(complex)
    assert np.allclose(d @ psi, -psi)


def test_apply_preserves_norm_and_composition(rng):
    for dim in (2, 4, 8):
        u = random_unitary(rng, dim)
        psi = random_state(rng, dim)
        out = u.conj().T @ (u @ psi)
        assert np.max(np.abs(out - psi)) < 1e-12
        assert abs(np.linalg.norm(u @ psi) - 1.0) < 1e-12


class TestEqualUpToGlobalPhase:
    def test_phase_multiple(self, rng):
        u = random_unitary(rng, 4)
        assert linalg.equal_up_to_global_phase(u, np.exp(1j * np.pi / 7) * u, 1e-10)

    def test_distinct_gates(self):
        assert not linalg.equal_up_to_global_phase(I2, X, 0.999)

    def test_all_zero_right_argument(self):
        assert not linalg.equal_up_to_global_phase(np.eye(2), np.zeros((2, 2)), 1e-10)

    def test_conjugate_oracles_differ(self):
        # a pi/3 phase on one state is not a global phase away from the
        # same phase on the three other states; verified against a scan
        u = np.diag([1, 1, 1, np.exp(1j * np.pi / 3)])
        v = np.diag([np.exp(1j * np.pi / 3)] * 3 + [1])
        assert not linalg.equal_up_to_global_phase(u, v, 1e-10)
        gaps = [
            np.max(np.abs(u - np.exp(1j * t) * v))
            for t in np.linspace(0, 2 * np.pi, 20001)
        ]
        assert min(gaps) > 0.5

    def test_reflexive_symmetric_invariant(self, rng):
        u = random_unitary(rng, 4)
        v = u * np.exp(0.3j)
        for c in (1.0, np.exp(1.1j), -1j):
            assert linalg.equal_up_to_global_phase(c * u, v, 1e-10)
            assert linalg.equal_up_to_global_phase(v, c * u, 1e-10)

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            linalg.equal_up_to_global_phase(I2, I2, 0.0)


class TestPureDensity:
    def test_zero_state(self):
        rho = linalg.pure_density(linalg.basis_state(2, 0))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected)

    def test_plus_state_block(self):
        psi = (linalg.basis_state(2, "00") + linalg.basis_state(2, "01")) / np.sqrt(2)
        rho = linalg.pure_density(psi)
        assert np.allclose(rho[:2, :2], 0.5 * np.ones((2, 2)))
        assert np.allclose(rho[2:, :], 0.0)

    def test_idempotent_and_valid(self, rng):
        psi = random_state(rng, 8)
        rho = linalg.pure_density(psi)
        assert np.max(np.abs(rho @ rho - rho)) < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            linalg.pure_density(np.array([1.0, 1.0]))
