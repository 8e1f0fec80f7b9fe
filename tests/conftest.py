import numpy as np
import pytest

from hepp_expand.flow import QuadraticHamiltonian, integrate_flow


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240517))


def random_vector(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def squeeze_setup(t_end=1.0, dt=1e-3):
    """The d=1 squeeze Q_t(z) = Im z^2 (beta = 1) and its classical flow."""
    h = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=t_end, dt=dt)
    return h, integrate_flow(h)
