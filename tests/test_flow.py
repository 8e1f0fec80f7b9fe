import numpy as np
import pytest
from scipy.linalg import expm

from hepp_expand.errors import SymplecticityError
from hepp_expand.flow import (
    QuadraticHamiltonian,
    integrate_flow,
    integrate_u_alpha,
    v_vector,
)
from hepp_expand.symplectic import RLinearMap

from conftest import random_vector


def squeeze_hamiltonian(t_end=1.0, dt=1e-3):
    return QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=t_end, dt=dt)


class TestUnitaryPath:
    def test_zero_alpha_is_identity(self):
        h = QuadraticHamiltonian(2, t_end=1.0)
        path = integrate_u_alpha(h)
        assert np.allclose(path.matrices[-1], np.eye(2))
        assert path.unitarity_defect() == 0.0

    def test_constant_alpha_matches_expm(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (a + a.conj().T) / 2
        h = QuadraticHamiltonian(3, alpha=a, t_end=1.0, dt=1e-3)
        path = integrate_u_alpha(h)
        assert np.abs(path.at(1.0) - expm(-1j * a)).max() < 1e-8
        assert path.unitarity_defect() < 1e-8

    def test_midpoints_match_expm(self, rng):
        # the Fock oracle reads u_alpha at RK4 midpoints from the Hermite
        # interpolant between grid points
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (a + a.conj().T) / 2
        h = QuadraticHamiltonian(3, alpha=a, t_end=1.0, dt=1e-3)
        path = integrate_u_alpha(h)
        grid = h.grid()
        worst = max(np.abs(path.at(t) - expm(-1j * a * t)).max()
                    for t in (grid[:-1] + grid[1:]) / 2)
        assert worst < 1e-10

    def test_scalar_frequency_quadrature_oracle(self):
        # alpha(t) = (1 + 0.5 sin t) diag(1, 2): phases from the closed-form
        # primitive t + 0.5 (1 - cos t)
        diag = np.diag([1.0, 2.0])
        h = QuadraticHamiltonian(2, alpha=lambda t: (1 + 0.5 * np.sin(t)) * diag,
                                 t_end=1.0, dt=1e-3)
        path = integrate_u_alpha(h)
        primitive = 1.0 + 0.5 * (1 - np.cos(1.0))
        want = np.diag(np.exp(-1j * primitive * np.array([1.0, 2.0])))
        assert np.abs(path.at(1.0) - want).max() < 1e-9

    def test_rejects_non_hermitian_alpha(self):
        h = QuadraticHamiltonian(2, alpha=np.array([[0, 1], [0, 0]], dtype=complex),
                                 t_end=0.1)
        with pytest.raises(ValueError):
            integrate_u_alpha(h)


class TestIntegrateFlow:
    def test_free_flow_is_identity(self):
        h = QuadraticHamiltonian(2, t_end=1.0, dt=1e-2)
        flow = integrate_flow(h)
        assert flow.phi(1.0).distance(RLinearMap.identity(2)) < 1e-14
        assert flow.phi(0.0).distance(RLinearMap.identity(2)) == 0.0

    def test_squeeze_closed_form(self):
        flow = integrate_flow(squeeze_hamiltonian())
        phi = flow.phi(1.0)
        assert abs(phi.linear[0, 0] - np.cosh(1.0)) < 1e-8
        assert abs(phi.antilinear[0, 0] - np.sinh(1.0)) < 1e-8

    def test_group_law_with_fresh_integration(self, rng):
        # integrate a second flow starting at s = t/2 and compose
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = (m + m.T) / 2
        beta = lambda t: (1.0 + 0.3 * np.sin(2 * t)) * m
        t, s = 0.8, 0.4
        h1 = QuadraticHamiltonian(2, beta=beta, t_end=t, dt=1e-3)
        flow1 = integrate_flow(h1)
        h2 = QuadraticHamiltonian(2, beta=beta, t_start=s, t_end=t, dt=1e-3)
        flow2 = integrate_flow(h2)
        lhs = flow2.phi(t).compose(flow1.phi(s))
        assert lhs.distance(flow1.phi(t)) < 1e-8

    def test_symplectic_form_preserved(self, rng):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = (m + m.T) / 2
        h = QuadraticHamiltonian(2, beta=m, t_end=1.0, dt=1e-3)
        phi = integrate_flow(h).phi(1.0)
        for _ in range(5):
            z1 = random_vector(rng, 2)
            z2 = random_vector(rng, 2)
            lhs = np.imag(np.vdot(phi.apply(z1), phi.apply(z2)))
            rhs = np.imag(np.vdot(z1, z2))
            assert abs(lhs - rhs) < 1e-8

    def test_norm_at_least_one(self):
        flow = integrate_flow(squeeze_hamiltonian())
        for t in (0.0, 0.5, 1.0):
            assert flow.phi(t).norm_x() >= 1.0 - 1e-12

    def test_rk4_order(self):
        errs = []
        for dt in (2e-2, 1e-2):
            flow = integrate_flow(squeeze_hamiltonian(dt=dt))
            phi = flow.phi(1.0)
            errs.append(abs(phi.linear[0, 0] - np.cosh(1.0))
                        + abs(phi.antilinear[0, 0] - np.sinh(1.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_defects_recorded(self):
        flow = integrate_flow(squeeze_hamiltonian())
        assert flow.max_defect() < 1e-8

    def test_loud_failure_on_symplecticity_drift(self):
        h = QuadraticHamiltonian(1, beta=np.array([[4.0]]), t_end=1.0, dt=0.5)
        with pytest.raises(SymplecticityError):
            integrate_flow(h)

    def test_off_grid_time_raises(self):
        flow = integrate_flow(squeeze_hamiltonian(dt=1e-2))
        with pytest.raises(ValueError):
            flow.phi(0.5050001)

    def test_dense_output_matches_grid(self):
        # constant coefficients: (L, conj A) solves the linear system with
        # generator [[-i alpha, beta], [conj beta, i conj alpha]]; the
        # squeeze case is (cosh, sinh)
        cases = [
            (None, [[1.0]]),
            ([[0.7]], [[1.0]]),
            ([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]], [[1.0, 0.3j], [0.3j, -0.5]]),
        ]
        mid = 0.505
        for alpha, beta in cases:
            beta = np.array(beta, dtype=complex)
            dim = len(beta)
            h = QuadraticHamiltonian(dim, alpha=alpha, beta=beta, t_end=1.0, dt=1e-2)
            flow = integrate_flow(h)
            a = h.alpha_matrix(0.0)
            gen = np.block([[-1j * a, beta], [np.conj(beta), 1j * np.conj(a)]])
            exact = expm(mid * gen)[:, :dim]
            phi = flow.phi_at(mid)
            assert np.abs(phi.linear - exact[:dim]).max() < 1e-8
            assert np.abs(phi.antilinear - np.conj(exact[dim:])).max() < 1e-8
            inv = flow.phi_inverse_at(mid)
            assert inv.compose(phi).distance(RLinearMap.identity(dim)) < 1e-8

    def test_alpha_beta_factorization_consistency(self, rng):
        # the direct (L, A) flow equals u_alpha composed with the beta-only
        # flow of the rotated beta_hat(s) = u(s)* m conj(u(s)), and stays
        # symplectic
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = (a + a.conj().T) / 2
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = (m + m.T) / 2
        h = QuadraticHamiltonian(2, alpha=a, beta=m, t_end=0.7, dt=1e-3)
        flow = integrate_flow(h)
        assert flow.max_defect() < 1e-8
        u = integrate_u_alpha(h).at
        hatted = integrate_flow(QuadraticHamiltonian(
            2, beta=lambda s: u(s).conj().T @ m @ np.conj(u(s)), t_end=0.7, dt=1e-3))
        t = 0.7
        reference = RLinearMap(u(t)) @ hatted.phi(t)
        assert reference.distance(flow.phi(t)) < 1e-10


class TestSampledCoefficients:
    def test_sampled_beta_matches_callable(self):
        # linear interpolation of dense samples reproduces the smooth
        # sampler to its own interpolation error
        times = np.linspace(0.0, 0.5, 2001)
        values = np.array([[[1.0 + 0.4 * np.sin(3 * t)]] for t in times], dtype=complex)
        h_sampled = QuadraticHamiltonian(1, beta=(times, values), t_end=0.5, dt=1e-3)
        h_callable = QuadraticHamiltonian(
            1, beta=lambda t: np.array([[1.0 + 0.4 * np.sin(3 * t)]]), t_end=0.5, dt=1e-3)
        phi_s = integrate_flow(h_sampled).phi(0.5)
        phi_c = integrate_flow(h_callable).phi(0.5)
        assert phi_s.distance(phi_c) < 1e-6

    def test_sampled_endpoints_clamped(self):
        times = np.array([0.0, 1.0])
        values = np.array([[[1.0]], [[2.0]]], dtype=complex)
        h = QuadraticHamiltonian(1, beta=(times, values), t_end=1.0)
        assert h.beta_matrix(-0.5)[0, 0] == 1.0
        assert h.beta_matrix(1.5)[0, 0] == 2.0
        assert abs(h.beta_matrix(0.25)[0, 0] - 1.25) < 1e-14


class TestVVector:
    def test_zero_at_start(self):
        flow = integrate_flow(squeeze_hamiltonian())
        assert np.abs(v_vector(flow, 0.0)).max() == 0.0

    def test_squeeze_value(self):
        flow = integrate_flow(squeeze_hamiltonian())
        for t in (0.3, 1.0):
            v = v_vector(flow, t)
            assert abs(v[0, 0] - np.cosh(t) * np.sinh(t)) < 1e-8

    def test_symmetry(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = (m + m.T) / 2
        h = QuadraticHamiltonian(3, beta=m, t_end=0.5, dt=1e-3)
        flow = integrate_flow(h)
        k = flow.grid_index(0.5)
        raw = flow.linear[k].conj().T @ flow.antilinear[k]
        assert np.abs(raw - raw.T).max() < 1e-10
