
import numpy as np

from hepp_expand.expansions import Lambda_of_map, Lambda_t
from hepp_expand.flow import QuadraticHamiltonian, integrate_flow
from hepp_expand.fock import FockSpace, trusted_block_diff, wick_quantize
from hepp_expand.symbols import PolySymbol, preset_symbol, random_symbol
from hepp_expand.symplectic import RLinearMap, exp_antilinear, random_symplectomorphism
from hepp_expand.weylwick import weyl_from_wick, wick_from_weyl

from conftest import random_unitary
from reference import (
    bogoliubov_implementer,
    check_weyl_conjugation,
    exp_lambda_of_map,
    field_and_weyl,
)


class TestDeconvolution:
    def test_constants_fixed(self):
        c = PolySymbol.constant(2, 1.5 - 0.5j)
        assert weyl_from_wick(c, 0.5).distance_max(c) == 0.0
        assert wick_from_weyl(c, 0.5).distance_max(c) == 0.0

    def test_low_degree_fixed(self, rng):
        b = random_symbol(rng, 2, 1)
        assert wick_from_weyl(b, 0.7).distance_max(b) == 0.0

    def test_number_symbol_shift(self):
        # Wick symbol |z|^2 <-> Weyl symbol |z|^2 - eps/2, validated on the
        # truncated space through the deconvolution route
        eps = 0.5
        n_sym = preset_symbol("number", 1)
        weyl = weyl_from_wick(n_sym, eps)
        shift = weyl - n_sym
        assert abs(shift.evaluate(np.array([0j])) + eps / 2.0) < 1e-14
        space = FockSpace(1, 10, eps)
        shifted = n_sym + PolySymbol.constant(1, -eps / 2.0)
        back = wick_from_weyl(shifted, eps)
        n_op = wick_quantize(preset_symbol("number", 1), space)
        assert np.abs(wick_quantize(back, space) - n_op).max() < 1e-14

    def test_roundtrip_exact(self, rng):
        for eps in (0.3, 1.0):
            b = random_symbol(rng, 2, 6)
            rt = wick_from_weyl(weyl_from_wick(b, eps), eps)
            assert rt.distance_max(b) < 1e-14
            rt2 = weyl_from_wick(wick_from_weyl(b, eps), eps)
            assert rt2.distance_max(b) < 1e-14

    def test_linearity(self, rng):
        b1 = random_symbol(rng, 1, 4)
        b2 = random_symbol(rng, 1, 4)
        lhs = weyl_from_wick(b1 + 2j * b2, 0.5)
        rhs = weyl_from_wick(b1, 0.5) + 2j * weyl_from_wick(b2, 0.5)
        assert lhs.distance_max(rhs) < 1e-13


class TestWeylConjugation:
    def test_identity_map(self, rng):
        space = FockSpace(1, 20, 0.5)
        rep = check_weyl_conjugation(RLinearMap.identity(1), random_symbol(rng, 1, 4), space)
        assert rep["symbol_defect"] < 1e-13
        assert rep["operator_defect"] < 1e-10

    def test_unitary_map(self, rng):
        # A = 0 so the second-order operator vanishes and both sides are
        # the composed symbol
        space = FockSpace(2, 10, 0.5)
        u = random_unitary(rng, 2)
        b = random_symbol(rng, 2, 3)
        t_map = RLinearMap(u)
        assert Lambda_of_map(b, t_map).is_zero()
        rep = check_weyl_conjugation(t_map, b, space)
        assert rep["symbol_defect"] < 1e-13
        assert rep["operator_defect"] < 1e-10

    def test_squeeze_small_parameter(self):
        space = FockSpace(1, 36, 0.5)
        t_map = exp_antilinear(np.eye(1), [0.12])
        b = preset_symbol("n-squared", 1)
        rep = check_weyl_conjugation(t_map, b, space, n_trust=12)
        assert rep["symbol_defect"] < 1e-12
        assert rep["operator_defect"] < 1e-8

    def test_symbol_route_random_maps(self, rng):
        # deconvolve-compose-reconvolve equals the second-order exponential
        # for random symplectomorphisms, purely at symbol level
        for dim in (1, 2):
            t_map = random_symplectomorphism(rng, dim, rho_scale=0.5)
            b = random_symbol(rng, dim, 4)
            eps = 0.4
            lhs = wick_from_weyl(weyl_from_wick(b, eps).compose_rlinear(t_map.adjoint()), eps)
            rhs = exp_lambda_of_map(b.compose_rlinear(t_map.adjoint()), t_map, eps)
            assert lhs.distance_max(rhs) < 1e-10 * max(1.0, rhs.norm_p())


class TestBogoliubovImplementer:
    def test_weyl_conjugation_action(self, rng):
        space = FockSpace(1, 40, 0.5)
        t_map = exp_antilinear(np.eye(1), [0.2])
        u_op = bogoliubov_implementer(t_map, space)
        xi = np.array([0.4 - 0.3j])
        _, w_xi = field_and_weyl(xi, space)
        _, w_mapped = field_and_weyl(t_map.apply(xi), space)
        lhs = u_op.conj().T @ w_xi @ u_op
        assert trusted_block_diff(lhs, w_mapped, space, 16) < 1e-7


def test_flow_map_second_order_operators_agree(rng):
    # the operator attached to L*(t) + A*(t) is the flow's own; symbol
    # equality to machine precision
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = (m + m.T) / 2
    h = QuadraticHamiltonian(2, beta=m, t_end=0.5, dt=1e-3)
    flow = integrate_flow(h)
    c = random_symbol(rng, 2, 4)
    t_map = flow.phi(0.5).adjoint()
    assert Lambda_of_map(c, t_map).distance_max(Lambda_t(c, 0.5, flow)) < 1e-12

