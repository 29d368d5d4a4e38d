import numpy as np
import pytest
from hypothesis import settings

# Fixed examples and no timing deadline: a tier-1 run tests the same cases
# every time, whatever the host's speed.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

from fpsearch.pulses import SpinSystem
from fpsearch.search import all_oracles


@pytest.fixture(scope="session")
def system():
    return SpinSystem()


@pytest.fixture(scope="session")
def k1_oracles():
    return all_oracles(1)


@pytest.fixture(scope="session")
def k2_oracles():
    return all_oracles(2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


def random_unitary(rng, dim):
    """Haar-ish random unitary from a QR decomposition."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)
