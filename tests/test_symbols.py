import json
import math
import tracemalloc

import numpy as np
import pytest

import hepp_expand.sectors as sec
from hepp_expand.errors import DimensionMismatchError
from hepp_expand.symbols import (
    PolySymbol,
    apply_second_order_operator,
    contraction,
    laplacian,
    preset_symbol,
    random_symbol,
    squeezing_hamiltonian_symbol,
    wick_product_symbol,
)
from hepp_expand.symplectic import RLinearMap, random_symplectomorphism

from conftest import random_vector
from reference import (
    derivative_poly,
    json_terms_loop,
    linear_form_bra,
    linear_form_ket,
    onb_embedding,
    poisson_bracket,
    translate,
)


class TestEvaluate:
    def test_number_on_unit_vector(self):
        b = preset_symbol("number", 2)
        z = np.array([(3 + 4j) / 5, 0.0])
        assert abs(b.evaluate(z) - 1.0) < 1e-14

    def test_constant(self, rng):
        b = PolySymbol.constant(2, 1.0)
        assert abs(b.evaluate(random_vector(rng, 2)) - 1.0) < 1e-15

    def test_im_z_squared(self):
        b = squeezing_hamiltonian_symbol(np.array([[1.0]]))
        assert abs(b.evaluate(np.array([1 + 1j])) - 2.0) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            preset_symbol("number", 2).evaluate(np.zeros(3, dtype=complex))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_paper_definition(self, rng, dim):
        # b(z) = sum_(p,q) conj(z^(vee q)) . b~ . z^(vee p), the symmetric
        # powers taken in full tensor coordinates and projected on the
        # sector bases by the isometries of `onb_embedding`
        b = random_symbol(rng, dim, 5)
        for _ in range(3):
            z = random_vector(rng, dim) / math.sqrt(dim)
            powers = [np.ones(1, dtype=complex)]
            for _ in range(5):
                powers.append(np.kron(powers[-1], z))
            sym = [onb_embedding(dim, n).T @ powers[n] for n in range(6)]
            want = sum(sym[q].conj() @ a @ sym[p] for (p, q), a in b.terms.items())
            assert abs(b.evaluate(z) - want) <= 1e-12 * abs(want)


class TestDerivative:
    # D_zbar^m D_z^n b as a polynomial, evaluated pointwise

    def test_number_mixed_derivative_is_identity(self, rng):
        b = preset_symbol("number", 3)
        z = random_vector(rng, 3)
        unit = np.eye(3, dtype=int)
        d = np.array([[derivative_poly(b, unit[i], unit[j]).evaluate(z) for j in range(3)]
                      for i in range(3)])
        assert np.allclose(d, np.eye(3), atol=1e-14)

    def test_vanishes_above_degree(self, rng):
        b = PolySymbol.monomial(1, (2,), (3,))  # order (p=3, q=2)
        d = derivative_poly(b, (3,), (0,)).evaluate(random_vector(rng, 1))
        assert np.allclose(d, 0.0)

    def test_quartic_1d_value(self):
        b = PolySymbol.monomial(1, (2,), (2,))
        d = derivative_poly(b, (1,), (1,)).evaluate(np.array([2.0 + 0j]))
        assert abs(d - 16.0) < 1e-12

    def test_finite_difference_oracle(self, rng):
        # first derivatives against central differences of evaluate
        b = random_symbol(rng, 2, 4)
        z = random_vector(rng, 2)
        h = 1e-5
        unit, none = np.eye(2, dtype=int), (0, 0)
        dzbar = [derivative_poly(b, unit[i], none).evaluate(z) for i in range(2)]
        dz = [derivative_poly(b, none, unit[i]).evaluate(z) for i in range(2)]
        for i in range(2):
            step = np.zeros(2, dtype=complex)
            step[i] = h
            dx = (b.evaluate(z + step) - b.evaluate(z - step)) / (2 * h)
            dy = (b.evaluate(z + 1j * step) - b.evaluate(z - 1j * step)) / (2 * h)
            fd_dz = (dx - 1j * dy) / 2.0
            fd_dzbar = (dx + 1j * dy) / 2.0
            scale = max(1.0, abs(fd_dz), abs(fd_dzbar))
            assert abs(dz[i] - fd_dz) / scale < 1e-6
            assert abs(dzbar[i] - fd_dzbar) / scale < 1e-6


class TestPoissonBracket:
    def test_self_bracket_vanishes(self, rng):
        b = random_symbol(rng, 2, 4)
        for k in (1, 2):
            assert poisson_bracket(b, b, k).is_zero()

    def test_worked_order_two_example(self, rng):
        # <z^v3, xi1^v3><eta1^v2, z^v2> against <z^v3, xi2^v3><eta2, z>:
        # order-2 bracket is 12 <z,xi1>^3 <eta1,xi2>^2 <z,xi2> <eta2,z>
        xi1, eta1, xi2, eta2 = (random_vector(rng, 2) for _ in range(4))
        b1 = linear_form_bra(xi1)
        b1 = b1 * b1 * b1 * (linear_form_ket(eta1) * linear_form_ket(eta1))
        b2 = linear_form_bra(xi2) * linear_form_bra(xi2) * linear_form_bra(xi2) \
            * linear_form_ket(eta2)
        bracket = poisson_bracket(b1, b2, 2)
        for _ in range(4):
            z = random_vector(rng, 2)
            expected = 12 * np.vdot(z, xi1) ** 3 * np.vdot(eta1, xi2) ** 2 \
                * np.vdot(z, xi2) * np.vdot(eta2, z)
            got = bracket.evaluate(z)
            assert abs(got - expected) < 1e-10 * max(1.0, abs(expected))

    def test_degree_law(self, rng):
        b1 = random_symbol(rng, 2, 3)
        b2 = random_symbol(rng, 2, 3)
        for k in (1, 2):
            br = poisson_bracket(b1, b2, k)
            assert br.degree() <= 6 - 2 * k
            assert all(p + q <= 6 - 2 * k for (p, q) in br.terms)

    def test_antisymmetry_exact(self, rng):
        b1 = random_symbol(rng, 2, 3)
        b2 = random_symbol(rng, 2, 3)
        lhs = poisson_bracket(b1, b2, 2)
        rhs = (-1.0) * poisson_bracket(b2, b1, 2)
        assert lhs.distance_max(rhs) == 0.0


class TestComposeRLinear:
    def test_identity(self, rng):
        b = random_symbol(rng, 2, 4)
        assert b.compose_rlinear(RLinearMap.identity(2)).distance_max(b) < 1e-13

    def test_scaling(self):
        b = preset_symbol("number", 2)
        got = b.compose_rlinear(RLinearMap(2.0 * np.eye(2)))
        assert got.distance_max(4.0 * b) < 1e-14

    def test_squeeze_flow_example(self):
        # z^2 composed with cosh t + sinh t conj, checked pointwise
        t = 0.8
        b = PolySymbol.monomial(1, (0,), (2,))
        phi = RLinearMap([[np.cosh(t)]], [[np.sinh(t)]])
        got = b.compose_rlinear(phi)
        assert set(got.terms) == {(2, 0), (1, 1), (0, 2)}
        for z in (0.3 + 0.1j, 1.2 - 0.7j):
            zv = np.array([z])
            want = (z * np.cosh(t) + np.conj(z) * np.sinh(t)) ** 2
            assert abs(got.evaluate(zv) - want) < 1e-12

    def test_map_stack_needs_as_many_samples(self, rng):
        maps = random_symplectomorphism(rng, 2, samples=3)
        for samples, got in ((None, "one polynomial"), (1, "got 1"), (2, "got 2")):
            b = random_symbol(rng, 2, 3, samples=samples)
            with pytest.raises(DimensionMismatchError, match=f"3 maps .* {got}"):
                b.compose_rlinear(maps)
        composed = random_symbol(rng, 2, 3, samples=3).compose_rlinear(maps)
        assert composed.vectors[3].shape == (20, 3)

    def test_evaluation_property_random(self, rng):
        for dim, order in ((1, 4), (2, 4), (3, 6)):
            b = random_symbol(rng, dim, order)
            t = random_symplectomorphism(rng, dim)
            for _ in range(3):
                z = random_vector(rng, dim)
                lhs = b.compose_rlinear(t).evaluate(z)
                rhs = b.evaluate(t.apply(z))
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_memory_bound(self, rng):
        # at d=4, degree 6 the largest array holds S_3 * 8 * S_2 = 120 * 8 * 36
        # entries (0.6 MB); a dense symmetric-power matrix on the 1716-dim
        # sector would take ~50 MB
        b = random_symbol(rng, 4, 6)
        t = random_symplectomorphism(rng, 4)
        tracemalloc.start()
        try:
            b.compose_rlinear(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_memory_from_cold_tables_at_d6(self, rng):
        # one degree-6 composition at d=6, its sector tables built under
        # the trace: it peaked at 20 MB, and at 122 MB when the order-6
        # vector was spread over the 12^6 entries of the full tensor
        b = random_symbol(rng, 6, 6)
        t = random_symplectomorphism(rng, 6)
        for table in vars(sec).values():
            if hasattr(table, "cache_clear"):
                table.cache_clear()
        tracemalloc.start()
        try:
            b.compose_rlinear(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20

    def test_translate(self, rng):
        b = random_symbol(rng, 2, 3)
        z0 = random_vector(rng, 2)
        shifted = translate(b, z0)
        z = random_vector(rng, 2)
        assert abs(shifted.evaluate(z) - b.evaluate(z0 + z)) < 1e-10


class TestWickProduct:
    def test_constant_factor(self, rng):
        b = random_symbol(rng, 2, 3)
        c = PolySymbol.constant(2, 2.5)
        got = wick_product_symbol(c, b, 0.5)
        assert got.distance_max(2.5 * b) < 1e-13

    def test_ccr(self):
        xi = np.array([0.6, 0.8], dtype=complex)  # unit norm
        crea = linear_form_bra(xi)   # symbol of the creator
        anni = linear_form_ket(xi)   # symbol of the annihilator
        eps = 0.5
        got = wick_product_symbol(anni, crea, eps)
        want = anni * crea + PolySymbol.constant(2, eps)
        assert got.distance_max(want) < 1e-14
        # reversed order has no contraction
        got2 = wick_product_symbol(crea, anni, eps)
        assert got2.distance_max(crea * anni) < 1e-14

    def test_associativity(self, rng):
        eps = 0.3
        syms = [random_symbol(rng, 2, 2) for _ in range(3)]
        left = wick_product_symbol(wick_product_symbol(syms[0], syms[1], eps), syms[2], eps)
        right = wick_product_symbol(syms[0], wick_product_symbol(syms[1], syms[2], eps), eps)
        assert left.distance_max(right) < 1e-12

    def test_rejects_nonpositive_epsilon(self, rng):
        b = random_symbol(rng, 1, 2)
        with pytest.raises(ValueError):
            wick_product_symbol(b, b, 0.0)


class TestNorm:
    def test_number(self):
        assert abs(preset_symbol("number", 3).norm_p() - 1.0) < 1e-15

    def test_zero(self):
        assert PolySymbol.zero(2).norm_p() == 0.0

    def test_composition_estimate(self, rng):
        # ||b o phi|| <= ||phi||_X^m ||b|| over 100 random pairs
        for _ in range(100):
            dim = int(rng.integers(1, 3))
            b = random_symbol(rng, dim, int(rng.integers(1, 5)))
            phi = random_symplectomorphism(rng, dim)
            m = b.degree()
            assert b.compose_rlinear(phi).norm_p() <= phi.norm_x() ** m * b.norm_p() + 1e-10


class TestSerialization:
    def test_omits_all_zero_blocks(self):
        # quartic-cross fills one (p, q) block of its order-4 vector
        data = preset_symbol("quartic-cross", 2).to_json()
        assert [(t["p"], t["q"]) for t in data["terms"]] == [(2, 2)]
        explicit = PolySymbol(2, {(1, 1): np.eye(2), (2, 0): np.zeros((1, 3))})
        assert [(t["p"], t["q"]) for t in explicit.to_json()["terms"]] == [(1, 1)]

    def test_roundtrip(self, rng):
        b = random_symbol(rng, 2, 3)
        data = json.loads(json.dumps(b.to_json()))
        back = PolySymbol.from_json(data)
        assert back.distance_max(b) < 1e-15

    def test_terms_match_loop_reference(self, rng):
        # row-major nonzeros, one fresh index list per entry
        sparse = PolySymbol(3, {(2, 1): np.array([[0, 1j, 0, 0, 0, -2.0]] * 3),
                                (0, 0): np.zeros((1, 1))})
        for b in (random_symbol(rng, 3, 4), preset_symbol("quartic-cross", 2), sparse):
            terms = b.to_json()["terms"]
            assert json.dumps(terms) == json.dumps(json_terms_loop(b))
            lists = [index for t in terms for entry in t["entries"] for index in entry[:2]]
            assert len({id(index) for index in lists}) == len(lists)

    def test_repeated_entries_are_summed(self):
        # 1.0 and 2.0 at the same (1, 1) index, within one block or split
        # over two blocks of the same (p, q)
        entries = [[[1], [1], 1.0, 0.0], [[1], [1], 2.0, 0.0]]
        one = [{"p": 1, "q": 1, "entries": entries}]
        two = [{"p": 1, "q": 1, "entries": [entry]} for entry in entries]
        for terms in (one, two):
            assert PolySymbol.from_json({"dim": 1, "terms": terms}).terms[(1, 1)][0, 0] == 3.0

    def test_indices_are_one_based_nondecreasing(self):
        b = PolySymbol.monomial(2, (1, 1), (0, 2))
        data = b.to_json()
        (term,) = data["terms"]
        (entry,) = term["entries"]
        assert entry[0] == [1, 2]
        assert entry[1] == [2, 2]


class TestBetaHelpers:
    def test_squeezing_symbol_value(self, rng):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = (m + m.T) / 2
        q = squeezing_hamiltonian_symbol(m)
        for _ in range(3):
            z = random_vector(rng, 2)
            want = np.imag(z @ np.conj(m) @ z)
            assert abs(q.evaluate(z) - want) < 1e-12

    def test_tensor_norm_matches_hs_norm(self, rng):
        # the (0, 2) block is i/2 times the 2-vector's sector coefficient,
        # whose norm is the HS norm of the coordinate matrix
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = (m + m.T) / 2
        block = squeezing_hamiltonian_symbol(m).terms[(0, 2)]
        assert abs(2 * np.linalg.norm(block) - np.linalg.norm(m, "fro")) < 1e-13


def test_second_order_kernel_against_derivatives(rng):
    # sum_ij K_ij d_wi d_wj b with w = (z, conj z), term by term
    dim = 2
    b = random_symbol(rng, dim, 4)
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    k = (k + k.T) / 2
    want = PolySymbol.zero(dim)
    for i in range(4):
        for j in range(4):
            m_occ, n_occ = np.zeros(dim, int), np.zeros(dim, int)
            for w in (i, j):
                (n_occ if w < dim else m_occ)[w % dim] += 1
            want = want + k[i, j] * derivative_poly(b, m_occ, n_occ)
    assert apply_second_order_operator(b, k).distance_max(want) < 1e-12


def test_laplacian_on_number():
    b = preset_symbol("number", 2)
    assert abs(laplacian(b).evaluate(np.zeros(2, dtype=complex)) - 2.0) < 1e-14


def test_contraction_degrees(rng):
    b1 = random_symbol(rng, 2, 3)
    b2 = random_symbol(rng, 2, 3)
    c1 = contraction(b1, b2, 1)
    assert c1.degree() <= 4
