import numpy as np
import pytest
from scipy.linalg import expm

from hepp_expand.errors import SymplecticityError
from hepp_expand.flow import (
    FlowResult,
    QuadraticHamiltonian,
    integrate_flow,
    integrate_u_alpha,
    unitarity_defect,
    v_vector,
)
from hepp_expand.symplectic import RLinearMap, is_symplectomorphism, symplectic_defects

from conftest import random_vector, squeeze_setup
from reference import u_alpha_rk4


class TestUnitaryPath:
    def test_zero_alpha_is_identity(self):
        h = QuadraticHamiltonian(2, t_end=1.0)
        path = integrate_u_alpha(h)
        assert np.allclose(path.linear[-1], np.eye(2))
        assert unitarity_defect(path.linear[-1]) == 0.0

    def test_constant_alpha_matches_expm(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (a + a.conj().T) / 2
        h = QuadraticHamiltonian(3, alpha=a, t_end=1.0, dt=1e-3)
        path = integrate_u_alpha(h)
        assert np.abs(path.phi(1.0).linear - expm(-1j * a)).max() < 1e-8
        assert unitarity_defect(path.linear[-1]) < 1e-8

    def test_midpoints_match_expm(self, rng):
        # the Fock oracle reads u_alpha between grid points (at CF4's Gauss
        # nodes and step midpoints) from the Hermite interpolant
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (a + a.conj().T) / 2
        h = QuadraticHamiltonian(3, alpha=a, t_end=1.0, dt=1e-3)
        path = integrate_u_alpha(h)
        grid = h.grid()
        worst = max(np.abs(path.phi_at(t).linear - expm(-1j * a * t)).max()
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
        assert np.abs(path.phi(1.0).linear - want).max() < 1e-9

    def test_rejects_non_hermitian_alpha(self):
        h = QuadraticHamiltonian(2, alpha=np.array([[0, 1], [0, 0]], dtype=complex),
                                 t_end=0.1)
        with pytest.raises(ValueError):
            integrate_u_alpha(h)

    def test_non_hermitian_only_at_one_midpoint(self):
        # the step midpoints are sampled with the grid; the one bad time
        # (0.1 + 0.1 / 2 on the dt = 0.1 grid) is named
        def alpha(t):
            a = np.diag([1.0, -1.0]).astype(complex)
            if abs(t - 0.15) < 1e-9:
                a[0, 1] = 1e-6
            return a

        h = QuadraticHamiltonian(2, alpha=alpha, t_end=1.0, dt=0.1)
        for integrate in (integrate_u_alpha, integrate_flow):
            with pytest.raises(ValueError, match=r"alpha\(t=0\.15"):
                integrate(h)

    @pytest.mark.parametrize("kind", ["ramped", "callable"])
    def test_is_the_classical_flow_of_alpha_alone(self, rng, kind):
        # beta = 0 keeps the antilinear part exactly zero, and the linear
        # part is the d x d RK4 of alpha alone to rounding
        m = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        a = (m + np.conj(m.mT)) / 2
        if kind == "ramped":
            alpha = (np.array([0.0, 0.5]), a)
        else:
            alpha = lambda t: np.cos(3 * t) * a[0] + t * a[1]
        h = QuadraticHamiltonian(3, alpha=alpha, t_end=0.5, dt=1e-3)
        path = integrate_u_alpha(h)
        assert isinstance(path, FlowResult)
        assert not np.any(path.antilinear)
        assert np.abs(path.linear - u_alpha_rk4(h)).max() <= 1e-15

    def test_stops_at_t_after_one_step_at_least(self, rng):
        # cut at a grid time t, the path is the full path's prefix; at
        # t_start it keeps one step, so its dense output reads I there
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = QuadraticHamiltonian(2, alpha=(a + a.conj().T) / 2, t_end=1.0, dt=0.1)
        full = integrate_u_alpha(h)
        for t, n_times in ((0.5, 6), (0.0, 2)):
            path = integrate_u_alpha(h, t)
            assert len(path.times) == n_times
            assert np.array_equal(path.linear, full.linear[:n_times])
        assert np.array_equal(path.phi_on([0.0])[0][0], np.eye(2))

    @pytest.mark.parametrize("shape", [(3, 3), (40, 12)])
    def test_unitarity_defect_is_the_spectral_norm(self, rng, shape):
        # columns 1e-6 off orthonormal, so the defect is far above rounding;
        # a column slice is read through its float view, a Fortran-ordered
        # copy through a contiguous one
        z = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
        u = np.linalg.qr(z[0])[0] + 1e-6 * z[1]
        wide = np.concatenate([u, u], axis=1)
        for x in (u, wide[:, :shape[1]], np.asfortranarray(u)):
            want = np.linalg.norm(x.conj().T @ x - np.eye(shape[1]), 2)
            assert want > 1e-7
            assert abs(unitarity_defect(x) - want) <= 1e-15


class TestIntegrateFlow:
    def test_free_flow_is_identity(self):
        h = QuadraticHamiltonian(2, t_end=1.0, dt=1e-2)
        flow = integrate_flow(h)
        assert flow.phi(1.0).distance(RLinearMap.identity(2)) < 1e-14
        assert flow.phi(0.0).distance(RLinearMap.identity(2)) == 0.0

    def test_squeeze_closed_form(self):
        _, flow = squeeze_setup()
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
        _, flow = squeeze_setup()
        for t in (0.0, 0.5, 1.0):
            assert flow.phi(t).norm_x() >= 1.0 - 1e-12

    def test_rk4_order(self):
        errs = []
        for dt in (2e-2, 1e-2):
            _, flow = squeeze_setup(dt=dt)
            phi = flow.phi(1.0)
            errs.append(abs(phi.linear[0, 0] - np.cosh(1.0))
                        + abs(phi.antilinear[0, 0] - np.sinh(1.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_defects_recorded(self):
        _, flow = squeeze_setup()
        assert flow.max_defect() < 1e-8

    def test_step_propagators_match_plain_rk4(self, rng):
        # reference: the textbook RK4 on y = (L, A), one step at a time
        a0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a0, m0 = (a0 + a0.conj().T) / 2, (m0 + m0.T) / 2
        h = QuadraticHamiltonian(2, alpha=lambda t: np.cos(3 * t) * a0,
                                 beta=lambda t: (1 + t) * m0, t_end=0.5, dt=5e-3)

        def rhs(t, y):
            alpha, beta = h.alpha_on(t)[0], h.beta_matrix(t)
            return -1j * (alpha @ y) + beta @ np.conj(y[::-1])

        grid = h.grid()
        y = np.stack([np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)])
        want = [y]
        for t, step in zip(grid[:-1], np.diff(grid)):
            k1 = rhs(t, y)
            k2 = rhs(t + step / 2, y + step / 2 * k1)
            k3 = rhs(t + step / 2, y + step / 2 * k2)
            k4 = rhs(t + step, y + step * k3)
            y = y + (step / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            want.append(y)
        want = np.array(want)
        flow = integrate_flow(h)
        # 100 steps of unit-size matrices: a few hundred rounding units
        assert np.abs(flow.linear - want[:, 0]).max() < 1e-13
        assert np.abs(flow.antilinear - want[:, 1]).max() < 1e-13

    def test_batched_defects_match_predicate(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = QuadraticHamiltonian(2, alpha=(a + a.conj().T) / 2, beta=(m + m.T) / 2,
                                 t_end=0.5, dt=1e-2)
        flow = integrate_flow(h)
        for k, t in enumerate(flow.times):
            r = is_symplectomorphism(flow.phi(t), tol=1.0)
            assert abs(flow.defects[k] - max(r.gram_defect, r.cross_defect)) <= 1e-15

    def test_defects_take_the_larger_relation(self, rng):
        # maps far from symplectic: a small antilinear part makes the
        # L*A = A*L defect the larger one, a large part the Gram defect
        scales = np.repeat([0.01, 0.1, 1.0, 3.0], 3)
        lin = rng.standard_normal((12, 2, 2)) + 1j * rng.standard_normal((12, 2, 2))
        anti = rng.standard_normal((12, 2, 2)) + 1j * rng.standard_normal((12, 2, 2))
        lin = np.eye(2) + 0.01 * lin
        anti = scales[:, None, None] * anti
        w = np.concatenate([lin, np.conj(anti)], axis=1)
        flow = FlowResult(np.arange(12.0), w, np.zeros_like(w))
        reports = [is_symplectomorphism(RLinearMap(l, a), tol=1.0) for l, a in zip(lin, anti)]
        assert any(r.cross_defect > r.gram_defect for r in reports)
        assert any(r.gram_defect > r.cross_defect for r in reports)
        for got, r in zip(flow.defects, reports):
            want = max(r.gram_defect, r.cross_defect)
            assert abs(got - want) <= 1e-15 * want

    def test_terminal_gate_reads_the_last_defect(self, rng):
        # the gate takes the last node alone; the trace gives the same bits
        for dim in (1, 2, 3):
            m = rng.standard_normal((4, dim, dim)) + 1j * rng.standard_normal((4, dim, dim))
            h = QuadraticHamiltonian(dim, alpha=([0.0, 0.5], (m[:2] + np.conj(m[:2].mT)) / 2),
                                     beta=([0.0, 0.5], (m[2:] + m[2:].mT) / 2),
                                     t_end=0.5, dt=1e-2)
            flow = integrate_flow(h)
            last = symplectic_defects(flow.linear[-1:], flow.antilinear[-1:])
            assert np.maximum(*last)[0] == flow.defects[-1]

    def test_loud_failure_on_symplecticity_drift(self):
        h = QuadraticHamiltonian(1, beta=np.array([[4.0]]), t_end=1.0, dt=0.5)
        with pytest.raises(SymplecticityError):
            integrate_flow(h)

    def test_overflowed_node_has_infinite_defect(self):
        # cosh, sinh(400 t) overflow the products L*L and A*A by t = 1
        h = QuadraticHamiltonian(1, beta=np.array([[400.0]]), t_end=1.0, dt=5e-4)
        with pytest.raises(SymplecticityError, match="defect inf"):
            integrate_flow(h)
        # a stack of the identity and an overflowing pair
        linear, antilinear = np.array([[[1.0]], [[1e200]]]), np.array([[[0.0]], [[1e200]]])
        with np.errstate(all="raise"):
            gram, cross = symplectic_defects(linear, antilinear)
        assert gram[0] == cross[0] == 0.0 and gram[1] == cross[1] == np.inf

    def test_off_grid_time_raises(self):
        _, flow = squeeze_setup(dt=1e-2)
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
            a = h.alpha_on(0.0)[0]
            gen = np.block([[-1j * a, beta], [np.conj(beta), 1j * np.conj(a)]])
            exact = expm(mid * gen)[:, :dim]
            phi = flow.phi_at(mid)
            assert np.abs(phi.linear - exact[:dim]).max() < 1e-8
            assert np.abs(phi.antilinear - np.conj(exact[dim:])).max() < 1e-8
            inv = flow.phi_at(mid).inverse()
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
        path = integrate_u_alpha(h)
        u = lambda s: path.phi_at(s).linear
        hatted = integrate_flow(QuadraticHamiltonian(
            2, beta=lambda s: u(s).conj().T @ m @ np.conj(u(s)), t_end=0.7, dt=1e-3))
        t = 0.7
        reference = RLinearMap(u(t)) @ hatted.phi(t)
        assert reference.distance(flow.phi(t)) < 1e-10


class TestBatchedSampler:
    KNOTS = np.array([0.0, 0.3, 0.3, 0.7, 1.0])

    def specs(self, rng):
        mats = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        return {
            "zero": None,
            "constant": mats[0],
            "callable": lambda t: np.cos(t) * mats[1] + t * mats[2],
            # the duplicate knot at 0.3 makes a jump
            "sampled": (self.KNOTS, mats),
        }

    @pytest.mark.parametrize("kind", ["zero", "constant", "callable", "sampled"])
    def test_on_matches_reference(self, rng, kind):
        spec = self.specs(rng)[kind]
        h = QuadraticHamiltonian(2, beta=spec, t_end=1.0, dt=0.1)
        grid = h.grid()
        times = np.concatenate([grid, (grid[:-1] + grid[1:]) / 2, self.KNOTS,
                                [0.3 - 1e-15, 0.3 + 1e-15, -0.5, 1.5]])
        batched = h.beta.on(times)
        assert batched.shape == (len(times), 2, 2)
        if kind == "zero":
            assert np.array_equal(batched, np.zeros((len(times), 2, 2)))
        elif kind == "constant":
            assert all(np.array_equal(value, spec) for value in batched)
        elif kind == "callable":
            assert all(np.array_equal(value, spec(t)) for t, value in zip(times, batched))
        else:
            knots, mats = spec
            # on the mirrored knots np.interp takes the earlier of the two
            # samples at the duplicate knot, as the sampler does; it also
            # holds the end values outside the knots
            want = np.empty_like(batched)
            for i in range(2):
                for j in range(2):
                    want[:, i, j] = np.interp(-times, -knots[::-1], mats[::-1, i, j])
            assert np.abs(batched - want).max() <= 1e-14

    def test_callable_alpha_of_wrong_shape(self):
        h = QuadraticHamiltonian(2, alpha=lambda t: np.eye(3), t_end=0.1, dt=1e-2)
        for integrate in (integrate_flow, integrate_u_alpha):
            with pytest.raises(ValueError, match=r"alpha.*expected \(2, 2\)"):
                integrate(h)

    def test_callable_beta_returning_a_scalar(self):
        h = QuadraticHamiltonian(2, beta=lambda t: 1.0, t_end=0.1, dt=1e-2)
        with pytest.raises(ValueError, match=r"beta.*expected \(2, 2\)"):
            integrate_flow(h)


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

    def test_held_at_end_values_outside_the_samples(self, rng):
        # samples on [0.2, 0.4] only: the flow over [0, 0.6] sees m0
        # before 0.2 and m1 after 0.4
        m0, m1 = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        m0, m1 = (m0 + m0.T) / 2, (m1 + m1.T) / 2

        def held(t):
            w = min(max((t - 0.2) / 0.2, 0.0), 1.0)
            return (1.0 - w) * m0 + w * m1

        sampled = QuadraticHamiltonian(2, beta=(np.array([0.2, 0.4]), np.stack([m0, m1])),
                                       t_end=0.6, dt=1e-2)
        clamped = QuadraticHamiltonian(2, beta=held, t_end=0.6, dt=1e-2)
        assert np.abs(sampled.beta_on([-1.0, 0.1, 0.5, 2.0])
                      - np.stack([m0, m0, m1, m1])).max() == 0.0
        phi = integrate_flow(sampled).phi(0.6)
        assert phi.distance(integrate_flow(clamped).phi(0.6)) < 1e-14


class TestVVector:
    def test_zero_at_start(self):
        _, flow = squeeze_setup()
        assert np.abs(v_vector(flow, 0.0)).max() == 0.0

    def test_squeeze_value(self):
        _, flow = squeeze_setup()
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
