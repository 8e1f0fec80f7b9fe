import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hepp_expand import expansions
from hepp_expand.expansions import (
    Lambda_of_map,
    Lambda_t,
    _generator_kernels,
    dyson_batches,
    dyson_expand,
    exp_expand,
    lambda_s,
)
from hepp_expand.flow import QuadraticHamiltonian, integrate_flow
from hepp_expand.symbols import (
    PolySymbol,
    apply_second_order_operator,
    preset_symbol,
    random_symbol,
    second_order_kernel,
)
from hepp_expand.symplectic import RLinearMap, random_symplectomorphism

from conftest import squeeze_setup
from reference import (
    Lambda_t_kernel_by_hand,
    check_lambda_is_derivative_of_Lambda,
    derivative_poly,
    lambda_s_via_bracket,
    phi_inverse_doubled_by_hand,
)


def random_beta(rng, dim):
    m0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m0, m1 = (m0 + m0.T) / 2, (m1 + m1.T) / 2
    omega = 1.0 + 2.0 * rng.random()
    return lambda t: m0 + np.sin(omega * t) * m1


class TestLambdaS:
    def test_constant_symbol_vanishes(self):
        h, flow = squeeze_setup()
        out = lambda_s(PolySymbol.constant(1, 3.0), 0.5, flow, h)
        assert out.is_zero()

    def test_time_zero_squeeze_form(self, rng):
        # at s = 0, phi = identity and the generator is d_z^2 + d_zbar^2
        h, flow = squeeze_setup()
        c = random_symbol(rng, 1, 4)
        got = lambda_s(c, 0.0, flow, h)
        want = derivative_poly(c, (0,), (2,)) + derivative_poly(c, (2,), (0,))
        assert got.distance_max(want) < 1e-12

    def test_two_forms_agree(self, rng):
        h = QuadraticHamiltonian(2, beta=random_beta(rng, 2), t_end=0.6, dt=1e-3)
        flow = integrate_flow(h)
        c = random_symbol(rng, 2, 4)
        for s in (0.15, 0.44):
            direct = lambda_s(c, s, flow, h)
            via = lambda_s_via_bracket(c, s, flow, h)
            assert direct.distance_p(via) < 1e-10 * max(1.0, direct.norm_p())

    def test_two_forms_agree_with_alpha(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = (a + a.conj().T) / 2
        h = QuadraticHamiltonian(2, alpha=a, beta=random_beta(rng, 2),
                                 t_end=0.5, dt=1e-3)
        flow = integrate_flow(h)
        c = random_symbol(rng, 2, 4)
        direct = lambda_s(c, 0.3, flow, h)
        via = lambda_s_via_bracket(c, 0.3, flow, h)
        assert direct.distance_p(via) < 1e-9 * max(1.0, direct.norm_p())

    def test_degree_drop(self, rng):
        h, flow = squeeze_setup()
        c = random_symbol(rng, 1, 5)
        out = lambda_s(c, 0.3, flow, h)
        assert out.degree(tol=1e-12) == 3


class TestLambdaT:
    def test_vanishes_at_start(self, rng):
        h, flow = squeeze_setup()
        c = random_symbol(rng, 1, 4)
        assert Lambda_t(c, 0.0, flow).norm_p() == 0.0

    def test_squeeze_coefficients(self):
        h, flow = squeeze_setup()
        z0 = np.array([0j])
        for t in (0.3, 0.7):
            mixed = Lambda_t(PolySymbol.monomial(1, (1,), (1,)), t, flow).evaluate(z0)
            holo = Lambda_t(PolySymbol.monomial(1, (0,), (2,)), t, flow).evaluate(z0)
            anti = Lambda_t(PolySymbol.monomial(1, (2,), (0,)), t, flow).evaluate(z0)
            assert abs(mixed - (1 - np.cosh(2 * t))) < 1e-8
            assert abs(holo / 2.0 - 0.5 * np.sinh(2 * t)) < 1e-8
            assert abs(anti / 2.0 - 0.5 * np.sinh(2 * t)) < 1e-8

    def test_degree_corrected_norm_bound(self, rng):
        # ||Lambda[T] c|| <= m(m-1) ||T||_X ||A||_HS ||c|| for order-m input;
        # the constant reduces to the stated 2 ||T|| ||A|| at m = 2
        for m in (2, 4):
            for _ in range(25):
                dim = int(rng.integers(1, 3))
                parts = {}
                for p in range(m + 1):
                    q = m - p
                    import hepp_expand.sectors as sec
                    shape = (sec.sector_dim(dim, q), sec.sector_dim(dim, p))
                    parts[(p, q)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                c = PolySymbol(dim, parts)
                t_map = random_symplectomorphism(rng, dim)
                hs = np.linalg.norm(t_map.antilinear, "fro")
                bound = m * (m - 1) * t_map.norm_x() * hs * c.norm_p()
                assert Lambda_of_map(c, t_map).norm_p() <= bound + 1e-10


def ramped_flow(seed, dim):
    """A random d-mode Hamiltonian whose alpha and beta ramp linearly over
    [0, 0.5], with its classical flow."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, dim, dim)) + 1j * rng.standard_normal((4, dim, dim))
    alpha = (m[:2] + np.conj(np.swapaxes(m[:2], 1, 2))) / 2
    beta = (m[2:] + np.swapaxes(m[2:], 1, 2)) / 2
    h = QuadraticHamiltonian(dim, alpha=([0.0, 0.5], alpha), beta=([0.0, 0.5], beta),
                             t_end=0.5, dt=1e-2)
    return rng, h, integrate_flow(h)


class TestSharedRoutes:
    """Lambda^t and phi_s^-1 come from the routes of fixed maps; they must
    give the bits of the formulas written out by hand."""

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), dim=st.integers(1, 3),
           degree=st.integers(2, 5))
    def test_Lambda_t_is_the_hand_kernel(self, seed, dim, degree):
        rng, _, flow = ramped_flow(seed, dim)
        c = random_symbol(rng, dim, degree)
        for t in flow.times[[0, 1, 17, -1]]:
            got = Lambda_t(c, t, flow)
            want = apply_second_order_operator(c, Lambda_t_kernel_by_hand(flow, t))
            assert got.vectors.keys() == want.vectors.keys()
            for m, v in want.vectors.items():
                assert np.array_equal(got.vectors[m], v)

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), dim=st.integers(1, 3),
           nodes=st.integers(1, 8))
    def test_phi_inverse_is_the_hand_transpose(self, seed, dim, nodes):
        _, h, flow = ramped_flow(seed, dim)
        # the first two levels of Dyson node times below t = 0.5, as the
        # walk stacks them, and a stretch of grid times
        xs = (np.polynomial.legendre.leggauss(nodes)[0] + 1.0) / 2.0
        level1 = 0.5 * xs
        for s in (level1, (level1[:, None] * xs).reshape(-1), flow.times[::7]):
            n_inv = phi_inverse_doubled_by_hand(flow, s)
            assert np.array_equal(RLinearMap(*flow.phi_on(s)).inverse().doubled(), n_inv)
            beta = h.beta_on(s)
            k_beta = second_order_kernel(np.zeros_like(beta), beta)
            assert np.array_equal(_generator_kernels(s, flow, h),
                                  n_inv @ k_beta @ np.swapaxes(n_inv, 1, 2))


def node_by_node_dyson(b, t, flow, h, nodes, max_order=None):
    """Reference Dyson quadrature: one lambda_s call per node of the
    tree, leaves included, each weighted term added on its own."""
    kmax = b.degree() // 2 if max_order is None else min(max_order, b.degree() // 2)
    terms = [b.compose_rlinear(flow.phi(t))] + [PolySymbol.zero(b.dim)] * kmax
    x, w = np.polynomial.legendre.leggauss(nodes)

    def walk(c, level, bound, weight):
        for u_node, w_node in zip((x + 1.0) / 2.0, w / 2.0):
            s = bound * u_node
            ck = lambda_s(c, s, flow, h)
            wk = weight * bound * w_node
            terms[level + 1] = terms[level + 1] + wk * ck
            if level + 1 < kmax and not ck.is_zero():
                walk(ck, level + 1, s, wk)

    if kmax >= 1:
        walk(terms[0], 0, t, 1.0)
    return terms


class TestDysonExpand:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("degree", [2, 4, 6])
    @pytest.mark.parametrize("with_alpha", [False, True])
    @pytest.mark.parametrize("max_order", [None, 1])
    def test_summed_leaves_match_node_by_node(self, rng, dim, degree, with_alpha, max_order):
        alpha = None
        if with_alpha:
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            alpha = (a + a.conj().T) / 2
        h = QuadraticHamiltonian(dim, alpha=alpha, beta=random_beta(rng, dim),
                                 t_end=0.4, dt=1e-2)
        flow = integrate_flow(h)
        b = random_symbol(rng, dim, degree)
        # one node makes every block a single column; three, four and
        # eight give blocks of several siblings on every level
        for nodes in (1, 3, 4, 8):
            got = dyson_expand(b, 0.4, flow, h, epsilon=0.5, nodes=nodes, max_order=max_order)
            want = node_by_node_dyson(b, 0.4, flow, h, nodes=nodes, max_order=max_order)
            assert len(got.terms) == len(want) == 1 + (1 if max_order else degree // 2)
            for g, w in zip(got.terms, want):
                assert g.distance_p(w) <= 1e-12 * w.norm_p()

    def _count_kernel_batches(self, monkeypatch):
        calls = []
        original = expansions._generator_kernels

        def counted(s, *args):
            calls.append(len(s))
            return original(s, *args)

        monkeypatch.setattr(expansions, "_generator_kernels", counted)
        return calls

    def test_one_kernel_batch_per_sibling_block(self, rng, monkeypatch):
        # nodes = 8, kmax = 3: the root block, the block of its 8
        # children, and one block per child's children
        calls = self._count_kernel_batches(monkeypatch)
        h = QuadraticHamiltonian(2, beta=random_beta(rng, 2), t_end=0.4, dt=1e-2)
        dyson_expand(random_symbol(rng, 2, 6), 0.4, integrate_flow(h), h,
                     epsilon=0.5, nodes=8)
        assert calls == [8, 64] + [64] * 8

    @pytest.mark.parametrize("degree, nodes", [(1, 5), (2, 7), (4, 5), (6, 8), (8, 3), (9, 1)])
    def test_batch_count_is_dyson_batches(self, rng, monkeypatch, degree, nodes):
        # a random symbol has no all-zero block of children: the walk makes
        # every batch the input limit counts
        calls = self._count_kernel_batches(monkeypatch)
        h = QuadraticHamiltonian(1, beta=random_beta(rng, 1), t_end=0.4, dt=1e-2)
        dyson_expand(random_symbol(rng, 1, degree), 0.4, integrate_flow(h), h,
                     epsilon=0.5, nodes=nodes)
        assert len(calls) == dyson_batches(degree, nodes)

    def test_zero_beta_prunes_the_tree(self, rng, monkeypatch):
        # without beta every generator kernel vanishes: the first block's
        # children are all zero and the walk goes no deeper
        calls = self._count_kernel_batches(monkeypatch)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = QuadraticHamiltonian(2, alpha=(a + a.conj().T) / 2, t_end=0.4, dt=1e-2)
        res = dyson_expand(random_symbol(rng, 2, 6), 0.4, integrate_flow(h), h,
                           epsilon=0.5, nodes=8)
        assert len(calls) == 1
        assert len(res.terms) == 4
        assert not res.terms[0].is_zero()
        assert all(term.is_zero() for term in res.terms[1:])

    def test_memory_bound(self, rng):
        # the walk holds one block of siblings per level (2.1 MB here); a
        # level-synchronous walk over the whole frontier would need ~90 MB
        beta = random_beta(rng, 2)
        h = QuadraticHamiltonian(2, beta=([0.0, 0.4], [beta(0.0), beta(0.4)]),
                                 t_end=0.4, dt=1e-2)
        flow = integrate_flow(h)
        b = random_symbol(rng, 2, 8)
        dyson_expand(b, 0.4, flow, h, epsilon=0.5, nodes=1)  # fill the sector tables
        tracemalloc.start()
        try:
            dyson_expand(b, 0.4, flow, h, epsilon=0.5, nodes=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_independent_of_the_exponential_engine(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Dyson engine used an exponential-engine operator")

        monkeypatch.setattr(expansions, "Lambda_t", forbidden)
        monkeypatch.setattr(expansions, "Lambda_of_map", forbidden)
        h = QuadraticHamiltonian(2, beta=random_beta(rng, 2), t_end=0.4, dt=1e-2)
        dyson_expand(random_symbol(rng, 2, 4), 0.4, integrate_flow(h), h,
                     epsilon=0.5, nodes=3)

    def test_constant_symbol(self):
        h, flow = squeeze_setup()
        res = dyson_expand(PolySymbol.constant(1, 2.0), 0.5, flow, h, epsilon=0.5)
        assert len(res.terms) == 1
        assert abs(res.terms[0].evaluate(np.array([0j])) - 2.0) < 1e-14

    def test_first_order_closed_form(self):
        # integral of the generator over [0, t] in closed form:
        # (1/2 sinh 2t (dz^2+dzb^2) + (1-cosh 2t) dzb dz) (b o phi_t)
        h, flow = squeeze_setup()
        b = PolySymbol.monomial(1, (2,), (2,))
        t = 0.5
        res = dyson_expand(b, t, flow, h, epsilon=0.5, nodes=16)
        comp = b.compose_rlinear(flow.phi(t))
        want = 0.5 * np.sinh(2 * t) * (derivative_poly(comp, (0,), (2,))
                                       + derivative_poly(comp, (2,), (0,))) \
            + (1 - np.cosh(2 * t)) * derivative_poly(comp, (1,), (1,))
        assert res.terms[1].distance_p(want) < 1e-8

    def test_cross_engine_low_orders(self, rng):
        h = QuadraticHamiltonian(2, beta=random_beta(rng, 2), t_end=0.7, dt=1e-3)
        flow = integrate_flow(h)
        b = random_symbol(rng, 2, 4)
        dy = dyson_expand(b, 0.7, flow, h, epsilon=0.5, nodes=10)
        ex = exp_expand(b, 0.7, flow, epsilon=0.5)
        for k in (1, 2):
            scale = max(1.0, ex.terms[k].norm_p())
            assert dy.terms[k].distance_p(ex.terms[k]) < 1e-8 * scale

    def test_term_zero_is_composition(self, rng):
        h, flow = squeeze_setup()
        b = random_symbol(rng, 1, 4)
        res = dyson_expand(b, 0.4, flow, h, epsilon=0.5, nodes=4)
        assert res.terms[0].distance_max(b.compose_rlinear(flow.phi(0.4))) < 1e-12

    def test_degree_drop_per_order(self, rng):
        h, flow = squeeze_setup()
        b = random_symbol(rng, 1, 6)
        res = dyson_expand(b, 0.3, flow, h, epsilon=0.5, nodes=6)
        assert len(res.terms) == 4
        for k, term in enumerate(res.terms):
            assert term.degree(tol=1e-10) == 6 - 2 * k


class TestExpExpand:
    def test_low_degree_single_term(self, rng):
        h, flow = squeeze_setup()
        b = random_symbol(rng, 1, 1)
        res = exp_expand(b, 0.5, flow, epsilon=0.5)
        assert len(res.terms) == 1
        assert res.terms[0].distance_max(b.compose_rlinear(flow.phi(0.5))) < 1e-13

    def test_squeeze_quartic_matches_dyson(self):
        h, flow = squeeze_setup()
        b = PolySymbol.monomial(1, (2,), (2,))
        t = 0.8
        dy = dyson_expand(b, t, flow, h, epsilon=0.5, nodes=16)
        ex = exp_expand(b, t, flow, epsilon=0.5)
        assert len(dy.terms) == len(ex.terms) == 3
        for k in range(3):
            assert dy.terms[k].distance_p(ex.terms[k]) < 1e-8

    def test_epsilon_only_in_assembly(self, rng):
        h, flow = squeeze_setup()
        b = random_symbol(rng, 1, 2)
        res = exp_expand(b, 0.5, flow, epsilon=0.5)
        a1 = res.assembled(0.4)
        a2 = res.assembled(1.0)
        # solve the linear system for the order-1 coefficient
        recovered = (2.0 / (0.4 - 1.0)) * (a1 - a2)
        assert recovered.distance_max(res.terms[1]) < 1e-12
        recovered0 = a1 - (0.4 / 2.0) * recovered
        assert recovered0.distance_max(res.terms[0]) < 1e-12


class TestLambdaDerivativeOfLambda:
    def test_constant_symbol(self):
        h, flow = squeeze_setup()
        rep = check_lambda_is_derivative_of_Lambda(flow, h, 0.5,
                                                   PolySymbol.constant(1, 1.0))
        assert rep["defect"] == 0.0

    def test_one_sided_at_zero(self, rng):
        h, flow = squeeze_setup()
        c = random_symbol(rng, 1, 4)
        defects = [check_lambda_is_derivative_of_Lambda(flow, h, 0.0, c, h=hh)["defect"]
                   for hh in (0.08, 0.04, 0.02)]
        assert defects[0] > defects[1] > defects[2]

    def test_second_order_convergence(self, rng):
        h, flow = squeeze_setup()
        c = random_symbol(rng, 1, 4)
        d1 = check_lambda_is_derivative_of_Lambda(flow, h, 0.5, c, h=0.02)["defect"]
        d2 = check_lambda_is_derivative_of_Lambda(flow, h, 0.5, c, h=0.01)["defect"]
        assert 3.0 < d1 / d2 < 5.0

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), dim=st.integers(1, 2),
           degree=st.integers(2, 4))
    def test_second_order_convergence_property(self, seed, dim, degree):
        # the central difference of Lambda converges like h^2 for any
        # time-dependent squeezing and any symbol of degree 2-4
        rng = np.random.default_rng(seed)
        h = QuadraticHamiltonian(dim, beta=random_beta(rng, dim), t_end=1.0, dt=1e-3)
        flow = integrate_flow(h)
        c = random_symbol(rng, dim, degree)
        d1 = check_lambda_is_derivative_of_Lambda(flow, h, 0.5, c, h=0.02)["defect"]
        d2 = check_lambda_is_derivative_of_Lambda(flow, h, 0.5, c, h=0.01)["defect"]
        assert 3.0 < d1 / d2 < 5.0

    def test_h_beyond_grid_raises(self, rng):
        h, flow = squeeze_setup()
        c = random_symbol(rng, 1, 2)
        with pytest.raises(ValueError):
            check_lambda_is_derivative_of_Lambda(flow, h, 0.99, c, h=0.05)


def test_report_shape(rng):
    h, flow = squeeze_setup()
    b = preset_symbol("n-squared", 1)
    res = exp_expand(b, 0.5, flow, epsilon=0.5)
    rep = res.to_report()
    assert rep["method"] == "exponential"
    assert [row["k"] for row in rep["terms"]] == [0, 1, 2]
    assert rep["assembled_norm"] > 0
