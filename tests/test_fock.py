import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

import hepp_expand.fock as fock
import hepp_expand.sectors as sec
from hepp_expand.errors import DimensionMismatchError, LeakageError, SymplecticityError
from hepp_expand.expansions import Lambda_of_map, exp_expand
from hepp_expand.flow import QuadraticHamiltonian, _hermite, integrate_flow, integrate_u_alpha
from hepp_expand.fock import (
    FockSpace,
    QuantumFlowResult,
    check_estimates,
    check_growth_bound,
    conjugate_observable,
    gamma_u,
    quantum_flow,
    trusted_block_diff,
    wick_apply,
    wick_block,
    wick_quantize,
)
from hepp_expand.scenario import Scenario
from hepp_expand.symbols import (
    PolySymbol,
    preset_symbol,
    random_symbol,
    squeezing_hamiltonian_symbol,
    wick_product_symbol,
)
from hepp_expand.symplectic import RLinearMap, random_symplectomorphism

from conftest import random_unitary, random_vector
from reference import (
    dense_ladder_product,
    densify,
    every_point_gate,
    field_and_weyl,
    hermite_basis_by_hand,
    loop_gamma_u,
    occupation_index,
    sym_mult_map,
    translate,
    wick_quantize_slow,
)


def pair_coordinates(m):
    """Reference: the sector-2 coefficient of the 2-vector with symmetric
    coordinate matrix m, m_ab on the pair a <= b times sqrt(2) off the
    diagonal."""
    out = []
    for kappa in sec.occupations(m.shape[0], 2):
        a, b = [i for i, k in enumerate(kappa) for _ in range(k)]
        out.append(m[a, b] * (1.0 if a == b else math.sqrt(2.0)))
    return np.array(out)


def loop_wick_quantize(b, space):
    """Reference: b^Wick as one dense ladder product per nonzero entry of
    the symbol's doubled-variable vectors, summed monomial by monomial."""
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for m, c in b.vectors.items():
        occ = sec.occupations(2 * space.dim, m)
        for k in np.flatnonzero(c):
            rows, cols, values = sec.ladder_entries(
                space.dim, space.n_max, occ[k][space.dim:], occ[k][:space.dim])
            out[rows, cols] += (c[k] * space.epsilon ** (m / 2.0)) * values
    return out


def dense_reference_generator(h, space):
    """Reference: t -> the beta-only generator -(1/2)(g - g^dag) of the
    quantum flow as one dense matrix on the whole space, g = sum_ab
    conj(beta_ab) a_a a_b from dense ladder products, beta rotated by
    u_alpha(t) when alpha is present."""
    u_path = None if h.alpha.is_zero() else integrate_u_alpha(h)
    pair = {}
    for a in range(space.dim):
        for b in range(space.dim):
            kap = [0] * space.dim
            kap[a] += 1
            kap[b] += 1
            pair[a, b] = dense_ladder_product(space, (0,) * space.dim, kap)

    def generator(t):
        beta = h.beta_matrix(t)
        if u_path is not None:
            u = u_path.phi_at(t).linear
            beta = u.conj().T @ beta @ np.conj(u)
        g = sum(np.conj(beta[a, b]) * pab for (a, b), pab in pair.items())
        return -0.5 * (g - g.conj().T)

    return generator


def reference_u_alpha(h):
    """Reference: times -> u_alpha stacked over them, the dense output of
    the classical flow of alpha alone (`flow.integrate_u_alpha`), the
    identity at every time when alpha is zero."""
    path = integrate_u_alpha(h)
    return lambda times: path.phi_on(times)[0]


def dense_reference_flow(h, space, trusted_n):
    """Reference: RK4 on the full dense generator over the whole space,
    leakage by the SVD of the full top-sector x trusted-column block.
    Returns U(t_end) (beta-only flow, no Gamma(u_alpha) factor) and the
    leakage trace."""
    grid = h.grid()
    n_steps = len(grid) - 1
    generator = dense_reference_generator(h, space)
    top_lo = int(space.offsets[max(space.n_max - 1, 0)])
    trusted_hi = int(space.offsets[trusted_n + 1])
    u_mat = np.eye(space.total_dim, dtype=complex)
    leak = np.zeros(n_steps + 1)
    g_now = generator(grid[0])
    for k in range(n_steps):
        t = grid[k]
        dt = grid[k + 1] - t
        g_mid, g_next = generator(t + dt / 2), generator(grid[k + 1])
        k1 = g_now @ u_mat
        k2 = g_mid @ (u_mat + dt / 2 * k1)
        k3 = g_mid @ (u_mat + dt / 2 * k2)
        k4 = g_next @ (u_mat + dt * k3)
        g_now = g_next
        u_mat = u_mat + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        leak[k + 1] = np.linalg.norm(u_mat[top_lo:, :trusted_hi], 2)
    return u_mat, leak


class TestWickQuantize:
    def test_number_operator(self):
        space = FockSpace(1, 12, 0.5)
        op = wick_quantize(preset_symbol("number", 1), space)
        assert np.abs(np.diag(op) - 0.5 * space.number_values()).max() < 1e-13
        assert np.abs(op - np.diag(np.diag(op))).max() == 0.0

    def test_second_quantization_block(self, rng):
        space = FockSpace(2, 6, 0.5)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = (a + a.conj().T) / 2
        op = wick_quantize(PolySymbol(2, {(1, 1): a}), space)
        s = space.sector_slice(1)
        assert np.abs(op[s, s] - space.epsilon * a).max() < 1e-14

    def test_squeeze_block_identity(self, rng):
        # (2i/eps) Q^Wick per sector: sqrt(n(n-1)) times the pair
        # annihilation minus sqrt((n+2)(n+1)) times the pair creation
        space = FockSpace(2, 6, 0.7)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = (m + m.T) / 2
        q_op = wick_quantize(squeezing_hamiltonian_symbol(m), space)
        bt = pair_coordinates(m)
        for n in (2, 3, 4):
            up = np.einsum("kab,a->kb", sym_mult_map(2, 2, n), bt)
            s_in = space.sector_slice(n)
            got_up = (2j / space.epsilon) * q_op[space.sector_slice(n + 2), s_in]
            assert np.abs(got_up + math.sqrt((n + 2) * (n + 1)) * up).max() < 1e-12
            down = np.einsum("kab,a->kb", sym_mult_map(2, 2, n - 2), bt).conj().T
            got_down = (2j / space.epsilon) * q_op[space.sector_slice(n - 2), s_in]
            assert np.abs(got_down - math.sqrt(n * (n - 1)) * down).max() < 1e-12

    def test_grading(self, rng):
        space = FockSpace(2, 5, 0.5)
        b = PolySymbol.monomial(2, (1, 0), (1, 1))  # (p, q) = (2, 1)
        op = wick_quantize(b, space)
        for n_out in range(6):
            for n_in in range(6):
                blk = op[space.sector_slice(n_out), space.sector_slice(n_in)]
                if n_out - n_in != 1 - 2 and blk.size:
                    assert np.abs(blk).max() == 0.0

    def test_adjoint_rule(self, rng):
        space = FockSpace(2, 5, 0.5)
        b = random_symbol(rng, 2, 3)
        lhs = wick_quantize(b, space).conj().T
        rhs = wick_quantize(b.conj(), space)
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_product_rule_on_untruncated_blocks(self, rng):
        space = FockSpace(1, 14, 0.5)
        b1 = random_symbol(rng, 1, 2)
        b2 = random_symbol(rng, 1, 2)
        sym = wick_quantize(wick_product_symbol(b1, b2, space.epsilon), space)
        ops = wick_quantize(b1, space) @ wick_quantize(b2, space)
        assert trusted_block_diff(sym, ops, space, 10) < 1e-12

    def test_fast_path_against_symmetrizer(self, rng):
        for dim, n_max in ((1, 5), (2, 4), (3, 3)):
            space = FockSpace(dim, n_max, 0.7)
            b = random_symbol(rng, dim, 3)
            fast = wick_quantize(b, space)
            slow = wick_quantize_slow(b, space)
            assert np.abs(fast - slow).max() < 1e-12

    def test_ladder_product_matches_sector_matrices(self, rng):
        space = FockSpace(3, 6, 0.5)
        for _ in range(6):
            m_occ = tuple(int(x) for x in rng.integers(0, 3, 3))
            n_occ = tuple(int(x) for x in rng.integers(0, 3, 3))
            got = space.ladder_product(m_occ, n_occ)
            assert np.abs(got - dense_ladder_product(space, m_occ, n_occ)).max() < 1e-13

    def test_degree_six_memory_bound(self, rng):
        space = FockSpace(2, 24, 0.5)
        b = random_symbol(rng, 2, 6)
        tracemalloc.start()
        try:
            wick_quantize(b, space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_degree_above_cutoff_rejected(self, rng):
        space = FockSpace(1, 3, 0.5)
        with pytest.raises(ValueError):
            wick_quantize(random_symbol(rng, 1, 4), space)

    @pytest.mark.parametrize("dim, n_max", [(1, 9), (2, 7), (3, 5)])
    def test_matches_the_monomial_loop(self, rng, dim, n_max):
        # the quantization multiplies and sums the same numbers in the same
        # order as the loop: the results are equal, not just close
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        first, last = (1,) + (0,) * (dim - 1), (0,) * (dim - 1) + (2,)
        symbols = [random_symbol(rng, dim, 4), preset_symbol("number", dim),
                   squeezing_hamiltonian_symbol(m + m.T), PolySymbol.monomial(dim, first, last),
                   PolySymbol.constant(dim, 0.0)]
        space = FockSpace(dim, n_max, 0.7)
        for b in symbols:
            assert np.array_equal(wick_quantize(b, space), loop_wick_quantize(b, space))


class TestWickBlock:
    @pytest.mark.parametrize("dim, n_max", [(1, 9), (2, 7), (3, 5)])
    def test_leading_block_of_wick_quantize(self, rng, dim, n_max):
        b = random_symbol(rng, dim, 5)
        space = FockSpace(dim, n_max, 0.6)
        full = wick_quantize(b, space)
        # n_top below the degree 5 included: those monomials just miss the block
        for n_top in range(n_max + 1):
            n = space.span_slice(n_top).stop
            assert np.array_equal(wick_block(b, space, n_top), full[:n, :n])

    def test_degree_above_the_cutoff(self, rng):
        b = random_symbol(rng, 2, 5)
        small = FockSpace(2, 3, 0.5)
        with pytest.raises(ValueError):
            wick_quantize(b, small)
        full = wick_quantize(b, FockSpace(2, 6, 0.5))
        for n_top in range(4):
            n = small.span_slice(n_top).stop
            assert np.array_equal(wick_block(b, small, n_top), full[:n, :n])

    def test_rejects_sectors_outside_the_space(self, rng):
        space = FockSpace(2, 4, 0.5)
        b = random_symbol(rng, 2, 2)
        for n_top in (-1, 5):
            with pytest.raises(ValueError):
                wick_block(b, space, n_top)
        with pytest.raises(DimensionMismatchError):
            wick_block(random_symbol(rng, 1, 2), space, 2)


class TestLadderMaps:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_raise_tables_match_the_enumeration(self, dim):
        for n in range(7):
            up, weight = sec.raise_table(dim, n)
            index = occupation_index(dim, n + 1)
            for k, kappa in enumerate(sec.occupations(dim, n)):
                for i in range(dim):
                    hi = list(kappa)
                    hi[i] += 1
                    assert up[k, i] == index[tuple(hi)]
                    assert weight[k, i] == kappa[i] + 1

    def test_entries_are_cached_and_frozen(self):
        space = FockSpace(2, 6, 0.5)
        first = sec.ladder_entries(2, 6, (1, 0), (0, 2))
        assert sec.ladder_entries(2, 6, (1, 0), (0, 2)) is first
        assert not any(a.flags.writeable for a in first)
        # the public ladder product takes any sequence of occupations
        got = space.ladder_product(np.array([1, 0]), [0, 2])
        assert np.array_equal(got, dense_ladder_product(space, (1, 0), (0, 2)))
        assert sec.ladder_entries.cache_info().maxsize is not None

    def test_sector_caches_are_bounded_over_a_sweep(self, rng):
        # one process, no cache_clear: a sweep whose largest tables come
        # first must evict them.  In a fresh process the sweep retained
        # 14.2 MB (51.8 MB when every sector cache was unbounded) and
        # peaked at 20 MB (122 MB when the d=6 degree-6 composition spread
        # its order-6 vector over the (2d)^6 full tensor)
        caches = [f for f in vars(sec).values() if hasattr(f, "cache_info")]
        assert caches and all(f.cache_info().maxsize is not None for f in caches)
        tracemalloc.start()
        try:
            for dim in range(6, 0, -1):
                b, t = random_symbol(rng, dim, 6), random_symplectomorphism(rng, dim)
                b.compose_rlinear(t).norm_p()
                Lambda_of_map(b, t).norm_p()
            for dim in range(3, 0, -1):
                b = preset_symbol("quartic-cross" if dim > 1 else "n-squared", dim)
                for n_max in range(4, 25):
                    space = FockSpace(dim, n_max, 0.5)
                    fock._parity_blocks(space, n_max - 4)
                    fock._wick_entries(b, space, n_max)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 20 * 2**20
        assert peak < 40 * 2**20


class TestWickApply:
    def test_rejects_what_wick_quantize_rejects(self, rng):
        space = FockSpace(1, 3, 0.5)
        vectors = np.eye(space.total_dim)
        with pytest.raises(ValueError):
            wick_apply(random_symbol(rng, 1, 4), space, vectors)
        with pytest.raises(DimensionMismatchError):
            wick_apply(random_symbol(rng, 2, 2), space, vectors)

    def test_zero_symbol(self):
        space = FockSpace(2, 4, 0.5)
        vectors = np.ones((space.total_dim, 3), dtype=complex)
        got = wick_apply(PolySymbol.constant(2, 0.0), space, vectors)
        assert got.shape == vectors.shape
        assert not np.any(got)

    @pytest.mark.parametrize("dim, n_max", [(1, 6), (2, 28)])
    def test_one_vector_gives_the_dense_product(self, rng, dim, n_max):
        # a 1-D vector, on either side of the cut (d=2, N=28: 435 states)
        space = FockSpace(dim, n_max, 0.5)
        b, v = random_symbol(rng, dim, 4), space.random_state(rng, n_max)
        got, want = wick_apply(b, space, v), wick_quantize(b, space) @ v
        assert got.shape == v.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_cold_monomial_memory(self):
        # a preset monomial reads its own ladder map only: a first call at
        # d=3, N=24 builds none of the other 125 degree-4 monomials' maps
        code = ("import tracemalloc; import numpy as np; "
                "from hepp_expand.fock import FockSpace, wick_apply; "
                "from hepp_expand.symbols import preset_symbol; "
                "space = FockSpace(3, 24, 0.5); "
                "v = np.random.default_rng(0).standard_normal((space.total_dim, 4)) + 0j; "
                "b = preset_symbol('quartic-cross', 3); "
                "tracemalloc.start(); wick_apply(b, space, v); "
                "print(tracemalloc.get_traced_memory()[1])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 20e6


class TestFieldAndWeyl:
    def test_zero_argument(self):
        space = FockSpace(2, 4, 0.5)
        phi, weyl = field_and_weyl(np.zeros(2, dtype=complex), space)
        assert np.abs(phi).max() == 0.0
        assert np.abs(weyl - np.eye(space.total_dim)).max() == 0.0

    def test_field_is_quantized_real_form(self, rng):
        space = FockSpace(1, 10, 0.5)
        xi = np.array([0.7 - 0.2j])
        phi, _ = field_and_weyl(xi, space)
        # explicit creator/annihilator combination with the sqrt(eps) scale
        up = space.ladder_product((1,), (0,))
        down = space.ladder_product((0,), (1,))
        want = math.sqrt(space.epsilon / 2.0) * (xi[0] * up + np.conj(xi[0]) * down)
        assert np.abs(phi - want).max() < 1e-13

    def test_weyl_translation_property(self):
        # W(sqrt2/(i eps) z0)* b^Wick W(...) = (b(z0 + .))^Wick on low sectors
        space = FockSpace(1, 40, 0.5)
        z0 = np.array([0.2 + 0.1j])
        b = preset_symbol("number", 1)
        _, w = field_and_weyl(np.sqrt(2.0) / (1j * space.epsilon) * z0, space)
        lhs = w.conj().T @ wick_quantize(b, space) @ w
        rhs = wick_quantize(translate(b, z0), space)
        assert trusted_block_diff(lhs, rhs, space, 12) < 1e-7

    def test_weyl_derivative_formula(self, rng):
        # difference quotient of t -> W(z + t h) against
        # W(z)[i Phi(h) + (i eps / 2) Im<z, h>]
        space = FockSpace(1, 36, 0.5)
        z = np.array([0.4 - 0.3j])
        h = np.array([0.2 + 0.5j])
        _, w0 = field_and_weyl(z, space)
        phi_h, _ = field_and_weyl(h, space)
        step = 1e-4
        _, w_plus = field_and_weyl(z + step * h, space)
        _, w_minus = field_and_weyl(z - step * h, space)
        diff = (w_plus - w_minus) / (2 * step)
        bracket = 1j * phi_h + 1j * (space.epsilon / 2.0) * np.imag(np.vdot(z, h)) \
            * np.eye(space.total_dim)
        want = w0 @ bracket
        psi = space.random_state(rng, 10)
        chi = space.random_state(rng, 10)
        got_q = np.vdot(chi, diff @ psi)
        want_q = np.vdot(chi, want @ psi)
        assert abs(got_q - want_q) < 1e-6


class TestGammaU:
    def test_identity(self):
        space = FockSpace(2, 4, 0.5)
        g = block_diag(*gamma_u(np.eye(2), space))
        assert np.abs(g - np.eye(space.total_dim)).max() < 1e-14

    def test_conjugation_is_composition(self, rng):
        space = FockSpace(2, 5, 0.5)
        u = random_unitary(rng, 2)
        b = random_symbol(rng, 2, 3)
        g = block_diag(*gamma_u(u, space))
        lhs = g.conj().T @ wick_quantize(b, space) @ g
        rhs = wick_quantize(b.compose_rlinear(RLinearMap(u)), space)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_functoriality(self, rng):
        space = FockSpace(2, 5, 0.5)
        u = random_unitary(rng, 2)
        v = random_unitary(rng, 2)
        lhs = block_diag(*gamma_u(u, space)) @ block_diag(*gamma_u(v, space))
        rhs = block_diag(*gamma_u(u @ v, space))
        assert np.abs(lhs - rhs).max() < 1e-12

    @pytest.mark.parametrize("dim, n_max", [(1, 30), (2, 24), (3, 10)])
    def test_ladder_recursion_matches_creation_loop(self, rng, dim, n_max):
        space = FockSpace(dim, n_max, 0.5)
        u = random_unitary(rng, dim)
        assert np.abs(block_diag(*gamma_u(u, space)) - loop_gamma_u(u, space)).max() <= 1e-13

    def test_rejects_non_unitary(self):
        space = FockSpace(1, 3, 0.5)
        with pytest.raises(ValueError):
            gamma_u(np.array([[1.5]]), space)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        # the unitarity defect of a non-finite u is NaN, and fails the bound
        space = FockSpace(2, 3, 0.5)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="requires a unitary"):
            gamma_u(np.full((2, 2), value), space)

    def test_rejects_a_matrix_of_another_dim(self, rng):
        # a 3x2 isometry has u* u = I; a 3x3 unitary acts on C^3
        space = FockSpace(2, 4, 0.5)
        for u in (random_unitary(rng, 3)[:, :2], random_unitary(rng, 3)):
            with pytest.raises(DimensionMismatchError):
                gamma_u(u, space)

    def test_fills_no_dense_ladder_cache(self, rng):
        # the creators are applied from the raise table: the sectors
        # module keeps no dense per-sector ladder matrices at all
        gamma_u(random_unitary(rng, 3), FockSpace(3, 8, 0.5))
        assert not hasattr(sec, "creators") and not hasattr(sec, "annihilators")

    def test_sector_blocks_memory_bound(self, rng):
        # the blocks hold sum_n dim(sector n)^2 entries, 1.8 MB at d=3,
        # N=16; the dense total_dim^2 matrix would be 969^2 x 16 B = 15 MB
        space = FockSpace(3, 16, 0.5)
        u = random_unitary(rng, 3)
        # a first call fills the sectors module's shared caches of
        # occupations and raise maps; the bound is on the call
        gamma_u(u, space)
        tracemalloc.start()
        try:
            blocks = gamma_u(u, space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [g.shape[0] for g in blocks] == space.sector_dims
        assert peak < 5e6


def unitary_with_angles(rng, angles):
    """v diag(e^{i angles}) v* for a random unitary v."""
    v = random_unitary(rng, len(angles))
    return (v * np.exp(1j * np.asarray(angles))) @ v.conj().T


class TestGammaOnColumns:
    """Gamma(u) as `quantum_flow` applies it to the evolved columns of a
    parity block: e^{i phi n} exp(dGamma(H)), a `_Table` exponential."""

    @pytest.mark.parametrize("dim, n_max", [(2, 12), (3, 8)])
    @pytest.mark.parametrize("case", ["near-identity", "power-40", "eigenvalue-at-minus-1",
                                      "pair-across-minus-1", "repeated-eigenvalue",
                                      "alpha-scalar"])
    def test_matches_the_loop_reference(self, rng, dim, n_max, case):
        if case == "near-identity":
            u = unitary_with_angles(rng, 1e-6 * rng.standard_normal(dim))
        elif case == "power-40":
            u = np.linalg.matrix_power(random_unitary(rng, dim), 40)
        elif case == "eigenvalue-at-minus-1":
            u = unitary_with_angles(rng, np.concatenate([[np.pi], rng.uniform(-3, 3, dim - 1)]))
        elif case == "pair-across-minus-1":
            # angles 2 pi - 1e-9 apart, so the branch cut must not fall between them
            u = unitary_with_angles(rng, np.concatenate([[np.pi - 5e-10, 5e-10 - np.pi],
                                                         rng.uniform(-2, 2, dim - 2)]))
        elif case == "repeated-eigenvalue":
            # a twofold angle in a random basis: eig's eigenvectors must still span it
            angle = rng.uniform(-3, 3)
            u = unitary_with_angles(rng, np.concatenate([[angle] * 2, rng.uniform(-3, 3, dim - 2)]))
        else:
            h = QuadraticHamiltonian(dim, alpha=0.7 * np.eye(dim), t_end=0.5, dt=1e-3)
            u = integrate_u_alpha(h).phi(0.5).linear
        space = FockSpace(dim, n_max, 0.5)
        want = loop_gamma_u(u, space)
        if case == "pair-across-minus-1":
            # the cut avoids the pair: across it, their arc and spread would be ~2 pi and ~pi
            assert fock._log_unitary(u)[2] < 3.0
        if case == "alpha-scalar":
            # u = e^{i phi} I: H and the spread vanish, Gamma(u) is the phase alone
            _, h, spread = fock._log_unitary(u)
            assert not h.any() and spread == 0.0
        number = space.number_values()
        for parity in (0, 1):
            states = np.flatnonzero(number % 2 == parity)
            g = rng.standard_normal((len(states), 7)) + 1j * rng.standard_normal((len(states), 7))
            err = np.abs(fock._gamma(space, u, states, g) - want[np.ix_(states, states)] @ g)
            assert np.all(err.max(axis=0) <= 1e-13 * np.linalg.norm(g, axis=0))

    def test_d1_is_the_per_row_phase(self, rng):
        # at d = 1, H = 0: Gamma(u) multiplies sector n by e^{i phi n}, exactly
        space = FockSpace(1, 30, 0.5)
        for angle in np.concatenate([[np.pi, -np.pi, 0.0], rng.uniform(-np.pi, np.pi, 5)]):
            u = np.exp(1j * np.array([[angle]]))
            phi, h, spread = fock._log_unitary(u)
            assert not h.any() and spread == 0.0
            g = rng.standard_normal((31, 3)) + 1j * rng.standard_normal((31, 3))
            got = fock._gamma(space, u, np.arange(31), g)
            assert np.array_equal(got, np.exp(1j * phi * np.arange(31))[:, None] * g)
            assert np.abs(got - loop_gamma_u(u, space) @ g).max() <= 1e-13 * np.abs(g).max()

    def test_quantum_flow_memory_bound_at_d5(self):
        # with alpha present at d=5, N=10 (3,003 states, sector 10 alone
        # 1,001 states), the 21 columns of sectors <= 2 take Gamma(u_alpha)
        # as one table exponential per parity block: measured 6.38 MB with
        # each table in one form (a CSR matrix alone above the 400-state
        # cut), against 12.8 MB when every table also kept its slot arrays
        # and each parity block a second table for the leakage gate, and
        # 72 MB when each sector block of Gamma(u_alpha) was formed densely;
        # 8 MB leaves 25 % for allocator noise
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = QuadraticHamiltonian(5, alpha=(a + a.conj().T) / 4, beta=(m + m.T) / 8, t_end=0.01,
                                 dt=5e-3)
        space = FockSpace(5, 10, 0.5)
        # a first run fills the sectors module's shared ladder tables
        quantum_flow(h, space, trusted_n=2, leak_threshold=np.inf)
        tracemalloc.start()
        try:
            qf = quantum_flow(h, space, trusted_n=2, leak_threshold=np.inf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert qf.unitarity_defect() < 1e-13
        assert peak < 8e6


class TestQuantumFlow:
    def test_free_flow_is_identity(self):
        space = FockSpace(1, 8, 0.5)
        h = QuadraticHamiltonian(1, t_end=0.5, dt=1e-2)
        qf = quantum_flow(h, space, 0.5, trusted_n=space.n_max, leak_threshold=np.inf)
        assert np.abs(qf.columns - np.eye(space.total_dim)).max() < 1e-14

    def test_alpha_only_matches_gamma_of_expm(self, rng):
        space = FockSpace(2, 6, 0.5)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = (a + a.conj().T) / 2
        h = QuadraticHamiltonian(2, alpha=a, t_end=0.4, dt=1e-3)
        qf = quantum_flow(h, space, 0.4, trusted_n=space.n_max, leak_threshold=np.inf)
        want = block_diag(*gamma_u(expm(-0.4j * a), space))
        assert np.abs(qf.columns - want).max() < 1e-8

    def test_matches_expm_for_constant_beta(self):
        space = FockSpace(1, 20, 0.5)
        h = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=0.2, dt=5e-4)
        qf = quantum_flow(h, space, 0.2, trusted_n=space.n_max, leak_threshold=np.inf)
        q_op = wick_quantize(squeezing_hamiltonian_symbol(np.array([[1.0]])), space)
        want = expm(-1j * 0.2 * q_op / space.epsilon)
        assert np.abs(qf.columns - want).max() < 1e-9

    def test_bogoliubov_property_small_time(self):
        # U(0,t) W(xi) U(t,0) = W(L*(t) xi + A*(t) conj xi) on low sectors
        space = FockSpace(1, 48, 0.5)
        t = 0.15
        h = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=t, dt=5e-4)
        qf = quantum_flow(h, space, t, leak_threshold=np.inf)
        flow = integrate_flow(h)
        phi = flow.phi(t)
        u = qf.columns
        xi = np.array([0.5 - 0.4j])
        _, w_xi = field_and_weyl(xi, space)
        mapped = phi.adjoint().apply(xi)
        _, w_mapped = field_and_weyl(mapped, space)
        # the block on sectors <= 16 reads only evolved columns
        lhs = u.conj().T @ w_xi @ u
        s = space.span_slice(16)
        assert np.abs(lhs[s, s] - w_mapped[s, s]).max() < 1e-6

    def test_unitarity_invariant(self):
        space = FockSpace(1, 16, 0.5)
        h = QuadraticHamiltonian(1, beta=np.array([[0.8]]), t_end=0.3, dt=1e-3)
        qf = quantum_flow(h, space, 0.3, trusted_n=space.n_max - 2,
                          leak_threshold=np.inf)
        assert qf.unitarity_defect(space.n_max - 2) < 1e-7

    def test_unitarity_defect_is_the_spectral_norm(self, rng):
        # a coarse grid and tolerance leave a defect far above rounding, so
        # the two computations agree on the quantity and not only on the noise
        space = FockSpace(2, 10, 0.5)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = QuadraticHamiltonian(2, alpha=np.diag([0.4, -0.3]), beta=(m + m.T) / 2,
                                 t_end=0.5, dt=0.05)
        qf = quantum_flow(h, space, 0.5, trusted_n=7, leak_threshold=np.inf, tol=1e-6)
        parity = space.number_values() % 2
        for n_top in range(8):
            u = qf.columns[:, space.span_slice(n_top)]
            gram = u.conj().T @ u - np.eye(u.shape[1])
            # the cross-parity blocks the eigvalsh route leaves out are exact zeros
            cols = parity[:u.shape[1]]
            assert not np.any(gram[np.ix_(cols == 0, cols == 1)])
            want = np.linalg.norm(gram, 2)
            assert abs(qf.unitarity_defect(n_top) - want) <= 1e-15
        assert qf.unitarity_defect() > 1e-12

    def test_unitarity_defect_rejects_unevolved_columns(self):
        space = FockSpace(1, 16, 0.5)
        h = QuadraticHamiltonian(1, beta=np.array([[0.8]]), t_end=0.1, dt=1e-3)
        qf = quantum_flow(h, space, 0.1, trusted_n=8, leak_threshold=np.inf)
        assert qf.unitarity_defect() == qf.unitarity_defect(8)
        with pytest.raises(ValueError):
            qf.unitarity_defect(9)

    @pytest.mark.parametrize("case", ["d2-n10-ramped", "d1-n48"])
    def test_parity_split_matches_dense_reference(self, rng, case):
        if case == "d2-n10-ramped":
            times = np.array([0.0, 0.3])
            m = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
            alpha = (m[:2] + np.conj(np.swapaxes(m[:2], 1, 2))) / 2
            beta = (m[2:] + np.swapaxes(m[2:], 1, 2)) / 2
            h = QuadraticHamiltonian(2, alpha=(times, alpha), beta=(times, beta),
                                     t_end=0.3, dt=1e-3)
            space, trusted = FockSpace(2, 10, 0.5), 4
        else:
            h = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=0.15, dt=5e-4)
            space, trusted = FockSpace(1, 48, 0.5), 30
        # each filled parity-block matrix is the dense generator's block on
        # the states of that parity, and no entry of it crosses parities
        reference = dense_reference_generator(h, space)
        coefficients = fock._pair_coefficients(h, reference_u_alpha(h))
        blocks = fock._parity_blocks(space, trusted)
        parity = space.number_values() % 2
        grid = h.grid()
        for t in grid[[0, len(grid) // 3, -1]]:
            want = reference(t)
            assert not np.any(want[np.ix_(parity == 0, parity == 1)])
            for blk in blocks:
                blk.work.fill(coefficients([t])[0])
                assert blk.work.csr is None
                got = densify(blk.work)
                assert np.abs(got - want[np.ix_(blk.states, blk.states)]).max() <= \
                    1e-14 * np.abs(want).max()

    def test_d3_alpha_and_beta_match_the_loop_reference(self, rng):
        # the sector blocks of Gamma(u_alpha) applied to the evolved
        # columns, against the state-by-state Gamma(u): to rounding with
        # beta = 0, where every exponential is exact, and with beta, after
        # dense RK4, at the Magnus bound
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        alpha, tol = (a + a.conj().T) / 2, 1e-9
        space, trusted = FockSpace(3, 8, 0.5), 4
        cols = space.span_slice(trusted)
        h = QuadraticHamiltonian(3, alpha=alpha, t_end=0.1, dt=1e-3)
        qf = quantum_flow(h, space, trusted_n=trusted, leak_threshold=np.inf, tol=tol)
        gamma = loop_gamma_u(integrate_u_alpha(h).phi(0.1).linear, space)
        assert np.abs(qf.columns - gamma[:, cols]).max() < 1e-12
        h = QuadraticHamiltonian(3, alpha=alpha, beta=(m + m.T) / 4, t_end=0.1, dt=1e-3)
        qf = quantum_flow(h, space, trusted_n=trusted, leak_threshold=np.inf, tol=tol)
        u, _ = dense_reference_flow(h, space, trusted)
        assert np.abs(qf.columns - gamma @ u[:, cols]).max() <= 3 * tol

    def test_restricted_columns_match_full_run(self, rng):
        # beta only: the generator is constant, so the step sizes do not
        # depend on the evolved columns (TestMagnusFlow takes a ramp)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = QuadraticHamiltonian(2, beta=(m + m.T) / 2, t_end=0.2, dt=1e-3)
        space = FockSpace(2, 12, 0.5)
        for t in (0.1, 0.2):
            full = quantum_flow(h, space, t, trusted_n=space.n_max, leak_threshold=np.inf)
            for trusted in (0, 3, 8):
                qf = quantum_flow(h, space, t, trusted_n=trusted, leak_threshold=np.inf)
                cols = space.span_slice(trusted)
                assert qf.columns.shape == (space.total_dim, cols.stop)
                assert np.abs(qf.columns - full.columns[:, cols]).max() <= 1e-15

    def test_columns_scatter_the_parity_blocks(self, rng):
        # the result keeps one block per parity; the direct-sum layout is
        # those blocks scattered into a zero block, bit for bit, with exact
        # zeros where a column of one parity meets a row of the other
        space, trusted = FockSpace(2, 10, 0.5), 4
        qf = quantum_flow(ramped_hamiltonian(rng, t_end=0.1), space, trusted_n=trusted,
                          leak_threshold=np.inf)
        parity = space.number_values() % 2
        n_cols = space.span_slice(trusted).stop
        want = np.zeros((space.total_dim, n_cols), dtype=complex)
        assert len(qf.parity_blocks) == 2
        for p, (states, u) in enumerate(qf.parity_blocks):
            assert np.array_equal(states, np.flatnonzero(parity == p))
            assert u.shape == (len(states), np.count_nonzero(parity[:n_cols] == p))
            want[np.ix_(states, states[:u.shape[1]])] = u
        got = qf.columns
        assert np.array_equal(got, want)
        assert not np.any(got[np.ix_(parity == 0, parity[:n_cols] == 1)])
        assert not np.any(got[np.ix_(parity == 1, parity[:n_cols] == 0)])
        # each read assembles a new array
        assert qf.columns is not got

    def test_time_off_the_grid_raises(self):
        space = FockSpace(1, 8, 0.5)
        h = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=0.1, dt=1e-2)
        for t in (0.015, 0.2, -0.01):
            with pytest.raises(ValueError, match="not on the time grid"):
                quantum_flow(h, space, t, leak_threshold=np.inf)

    def test_time_zero_is_identity(self, rng):
        # with alpha present: u_alpha starts at I exactly, and Gamma(I)
        # leaves the identity columns as they are
        space = FockSpace(2, 8, 0.5)
        h = ramped_hamiltonian(rng, t_end=0.2)
        qf = quantum_flow(h, space, 0.0, trusted_n=4, leak_threshold=1e-6, tol=1e-8)
        cols = space.span_slice(4).stop
        assert np.array_equal(qf.columns, np.eye(space.total_dim, cols))
        assert qf.leakage_trace.tolist() == [0.0]
        assert qf.integrator["steps"] == 0

    def test_u_alpha_is_integrated_up_to_t_only(self):
        # alpha of HS norm 8 on dt = 0.01: RK4 takes u_alpha off the unitary
        # group by 6.4e-8 at t = 0.5 and past the classical flow's 1e-6
        # terminal gate by t_end = 50, which a run stopping at t never reads
        alpha = np.array([[1.298461272382126, 2.62479042405227 - 4.866277860882063j],
                          [2.62479042405227 + 4.866277860882063j, 1.0833412874570005]])
        h = QuadraticHamiltonian(2, alpha=alpha, beta=0.05 * np.eye(2), t_end=50.0, dt=0.01)
        space = FockSpace(2, 12)
        qf = quantum_flow(h, space, 0.0, trusted_n=6)
        assert np.array_equal(qf.columns, np.eye(space.total_dim, space.span_slice(6).stop))
        assert qf.integrator["steps"] == 0
        with pytest.raises(SymplecticityError, match=r"u_alpha\(t=0.5\) is unitary only within "
                                                     r"6\.\d+e-08, above the 1e-10"):
            quantum_flow(h, space, 0.5, trusted_n=6)

    def test_overflowing_alpha_raises(self):
        # RK4 on C^d overflows in its first step, so u_alpha(t) is NaN and its
        # unitarity defect too, which the 1e-10 bound must not let through
        h = QuadraticHamiltonian(2, alpha=1e200 * np.diag([1.0, -1.0]), beta=0.05 * np.eye(2),
                                 t_end=0.05, dt=5e-4)
        with pytest.raises(SymplecticityError, match=r"u_alpha\(t=0.05\) is unitary only within "
                                                     r"nan, above the 1e-10"):
            quantum_flow(h, FockSpace(2, 8), trusted_n=4)

    def test_interior_time_matches_a_shorter_hamiltonian(self, rng):
        # alpha and beta ramp over [0, 0.3]; the run stops at t = 0.1
        times = np.array([0.0, 0.3])
        m = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        alpha = (times, (m[:2] + np.conj(np.swapaxes(m[:2], 1, 2))) / 2)
        beta = (times, (m[2:] + np.swapaxes(m[2:], 1, 2)) / 2)
        long = QuadraticHamiltonian(2, alpha=alpha, beta=beta, t_end=0.3, dt=1e-3)
        short = QuadraticHamiltonian(2, alpha=alpha, beta=beta, t_end=0.1, dt=1e-3)
        space = FockSpace(2, 10, 0.5)
        got = quantum_flow(long, space, 0.1, trusted_n=4, leak_threshold=np.inf)
        want = quantum_flow(short, space, trusted_n=4, leak_threshold=np.inf)
        assert np.abs(got.columns - want.columns).max() <= 1e-14
        assert got.leakage_trace.shape == want.leakage_trace.shape == (101,)
        assert np.abs(got.leakage_trace - want.leakage_trace).max() <= 1e-14

    def test_leakage_abort(self):
        space = FockSpace(1, 8, 0.5)
        h = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=0.5, dt=1e-3)
        with pytest.raises(LeakageError) as err:
            quantum_flow(h, space, 0.5, trusted_n=2, leak_threshold=1e-6)
        assert "leakage" in str(err.value)
        assert err.value.diagnostics["n_max"] == 8


def ramped_hamiltonian(rng, t_end=0.3, dt=1e-3):
    """d=2 alpha and beta, each a two-sample linear ramp over [0, t_end]."""
    times = np.array([0.0, t_end])
    m = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    alpha = (m[:2] + np.conj(np.swapaxes(m[:2], 1, 2))) / 2
    beta = (m[2:] + np.swapaxes(m[2:], 1, 2)) / 2
    return QuadraticHamiltonian(2, alpha=(times, alpha), beta=(times, beta),
                                t_end=t_end, dt=dt)


def oracle_u_alpha(monkeypatch, h, t=None):
    """The u_alpha that `quantum_flow` integrates for itself, as the
    callable it hands `_pair_coefficients`."""
    seen, original = [], fock._pair_coefficients
    monkeypatch.setattr(fock, "_pair_coefficients",
                        lambda ham, u_alpha: seen.append(u_alpha) or original(ham, u_alpha))
    quantum_flow(h, FockSpace(h.dim, 4, 0.5), t, trusted_n=0, leak_threshold=np.inf)
    return seen[0]


class TestOracleUAlpha:
    """The oracle's interaction picture: u_alpha by RK4 on C^d from alpha
    itself, independent of the classical flow that the engines share."""

    @pytest.mark.parametrize("kind", ["constant", "ramped", "callable"])
    def test_matches_the_classical_flow_of_alpha(self, monkeypatch, rng, kind):
        # the same RK4 and Hermite rule as `flow.integrate_u_alpha`, on the
        # d x d system rather than the doubled one: equal to rounding at the
        # grid points and at the Gauss times of each grid step and half step
        m = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        a = (m + np.conj(np.swapaxes(m, 1, 2))) / 2
        alpha = {"constant": a[0], "ramped": (np.array([0.0, 0.1]), a),
                 "callable": lambda t: math.cos(20 * t) * a[0] + math.sin(20 * t) * a[1]}[kind]
        h = QuadraticHamiltonian(2, alpha=alpha, beta=0.1 * np.eye(2), t_end=0.1, dt=1e-3)
        got, want, grid = oracle_u_alpha(monkeypatch, h), reference_u_alpha(h), h.grid()
        starts, steps = grid[:-1, None], np.diff(grid)[:, None]
        for times in (grid, (starts + fock._GAUSS * steps).ravel(),
                      (starts + steps / 2 + fock._GAUSS * steps / 2).ravel()):
            assert np.abs(got(times) - want(times)).max() <= 1e-14
        assert np.array_equal(got(grid[:1]), np.eye(2)[None])

    def test_zero_alpha_is_the_identity(self, monkeypatch, rng):
        # with alpha zero every RK4 increment and slope is zero, and the
        # Hermite weights of the two knots sum to exactly 1: u_alpha is I at
        # every time, and Gamma(I) returns the columns bit for bit
        h = QuadraticHamiltonian(2, beta=0.1 * np.eye(2), t_end=0.1, dt=1e-3)
        u_alpha = oracle_u_alpha(monkeypatch, h)
        times = np.concatenate([h.grid(), rng.uniform(0.0, 0.1, 1000)])
        assert np.array_equal(u_alpha(times), np.broadcast_to(np.eye(2), (len(times), 2, 2)))
        space = FockSpace(2, 8, 0.5)
        states = np.flatnonzero(space.number_values() % 2 == 0)
        g = rng.standard_normal((len(states), 5)) + 1j * rng.standard_normal((len(states), 5))
        assert np.array_equal(fock._gamma(space, np.eye(2), states, g), g)


class TestMagnusFlow:
    """The CF4 steps of `quantum_flow`, sized by step doubling to `tol`."""

    @pytest.mark.parametrize("tol", [1e-7, 1e-10])
    def test_constant_generator_matches_expm(self, tol):
        space, trusted = FockSpace(1, 48, 0.5), 30
        h = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=0.15, dt=5e-4)
        qf = quantum_flow(h, space, 0.15, trusted_n=trusted, leak_threshold=np.inf,
                          tol=tol)
        q_op = wick_quantize(squeezing_hamiltonian_symbol(np.array([[1.0]])), space)
        want = expm(-1j * 0.15 * q_op / space.epsilon)[:, space.span_slice(trusted)]
        assert np.abs(qf.columns - want).max() <= 3 * tol
        assert qf.integrator["time_error"] <= tol

    def test_ramped_matches_dense_reference(self):
        # d2-n10-ramped of test_parity_split_matches_dense_reference
        space, trusted = FockSpace(2, 10, 0.5), 4
        cols = space.span_slice(trusted)
        h8 = ramped_hamiltonian(np.random.default_rng(11), dt=1e-3 / 8)
        u, _ = dense_reference_flow(h8, space, trusted)
        want = block_diag(*gamma_u(integrate_u_alpha(h8).phi(0.3).linear, space)) @ u[:, cols]
        # the reference's own error, bounded by its distance to itself at dt/4
        h4 = ramped_hamiltonian(np.random.default_rng(11), dt=1e-3 / 4)
        own = np.abs(dense_reference_flow(h4, space, trusted)[0][:, cols] - u[:, cols]).max()
        h = ramped_hamiltonian(np.random.default_rng(11))
        for tol in (1e-7, 1e-10):
            qf = quantum_flow(h, space, 0.3, trusted_n=trusted, leak_threshold=np.inf,
                              tol=tol)
            assert np.abs(qf.columns - want).max() <= 3 * tol + own
            assert qf.integrator["time_error"] <= tol
            assert qf.integrator["steps"] < 300

    def test_restricted_columns_match_full_run(self, rng):
        h = ramped_hamiltonian(rng, t_end=0.2)
        space, tol = FockSpace(2, 12, 0.5), 1e-9
        for t in (0.1, 0.2):
            full = quantum_flow(h, space, t, trusted_n=space.n_max, leak_threshold=np.inf,
                                tol=tol)
            for trusted in (0, 3, 8):
                qf = quantum_flow(h, space, t, trusted_n=trusted, leak_threshold=np.inf,
                                  tol=tol)
                cols = space.span_slice(trusted)
                assert np.abs(qf.columns - full.columns[:, cols]).max() <= 3 * tol

    def test_leakage_trace_on_the_grid(self, rng):
        # one value per grid point, within the interpolant's reach of the
        # dense reference's SVD leakage
        h = ramped_hamiltonian(rng, t_end=0.2)
        space = FockSpace(2, 12, 0.5)
        _, ref = dense_reference_flow(h, space, 6)
        cf4 = quantum_flow(h, space, 0.2, trusted_n=6, leak_threshold=np.inf, tol=1e-7)
        assert cf4.leakage_trace.shape == ref.shape
        # measured <= 2e-5 relative; a Hermite fit without slopes gives ~1e-2
        slack, exact = 1e-4 * ref.max(), cf4.leakage_exact
        assert np.abs(cf4.leakage_trace - ref)[exact].max() <= slack
        # where the gate kept a Frobenius bound, it bounds the leakage from above
        assert np.all(cf4.leakage_trace[~exact] >= ref[~exact] - slack)
        assert cf4.integrator["refined"] == 0

    def test_gate_slopes_are_the_generator_at_each_knot(self, monkeypatch, rng):
        # a CF4 attempt leaves each block's work table filled for its last
        # exponent; the gate then refills it at each of its three knots.
        # The slope rows it takes there are those of a fresh block's
        # generator filled at that knot, on either side of the numpy/CSR
        # cut, and it writes the leakage of a fresh stepper's gate
        h = ramped_hamiltonian(rng, t_end=0.2)
        space = FockSpace(2, 12, 0.5)
        coefficients = fock._pair_coefficients(h, reference_u_alpha(h))
        grid = h.grid()
        n_h = 40
        t, dt = grid[0], grid[n_h] - grid[0]
        knots = coefficients((t, t + dt / 2, t + dt))
        products, matmul = [], fock._Table.__matmul__

        def recorded(table, g):
            products.append((table, matmul(table, g)))
            return products[-1][1]

        for table in (False, True):
            monkeypatch.setattr(fock, "_NUMPY_MAX_STATES", space.total_dim if table else 0)
            stepper = fock._ColumnStepper(space, 6, coefficients, grid, np.inf)
            stepper.cf4(stepper.us, coefficients(t + fock._GAUSS * dt), dt)
            # knot states with rows in every sector, so every slope row is nonzero
            states = [[rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
                       for u in stepper.us] for _ in range(3)]
            products.clear()
            with monkeypatch.context() as spy:
                spy.setattr(fock._Table, "__matmul__", recorded)
                stepper.leakage(0, n_h, states)
            for b, (blk, fresh) in enumerate(zip(stepper.blocks, fock._parity_blocks(space, 6))):
                assert (blk.work.csr is None) == table
                slopes = [out[blk.top_lo:] for tab, out in products if tab is blk.work]
                assert len(slopes) == 3
                for c, state, slope in zip(knots, states, slopes):
                    want = (fresh.work.fill(c) @ state[b])[blk.top_lo:]
                    assert np.abs(want).max() > 0
                    assert np.array_equal(slope, want)
            again = fock._ColumnStepper(space, 6, coefficients, grid, np.inf)
            again.leakage(0, n_h, states)
            assert np.array_equal(stepper.leak, again.leak)
            assert np.array_equal(stepper.exact, again.exact)

    @pytest.mark.parametrize("case", ["leakage-abort", "example-im-z2"])
    def test_abort_matches_the_dense_reference(self, case):
        # the abort comes at the first grid point where the reference's
        # leakage passes the threshold, and every point up to it whose
        # leakage reaches the gate (threshold / 10) is exact
        if case == "leakage-abort":
            space, trusted, t_end, tol = FockSpace(1, 8, 0.5), 2, 0.5, 1e-8
        else:
            space, trusted, t_end, tol = FockSpace(1, 24, 0.5), 16, 1.0, 1e-7
        h, threshold = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=t_end, dt=1e-3), 1e-6
        _, ref = dense_reference_flow(h, space, trusted)
        k = int(np.argmax(ref > threshold))
        assert k > 0
        coefficients = fock._pair_coefficients(h, reference_u_alpha(h))
        stepper = fock._ColumnStepper(space, trusted, coefficients, h.grid(), threshold)
        with pytest.raises(LeakageError) as err:
            stepper.march(tol)
        got = err.value.diagnostics
        assert (got["t"], got["n_max"], got["trusted_n"]) == (h.grid()[k], space.n_max, trusted)
        assert abs(got["leakage"] - ref[k]) <= 1e-4 * ref[k]
        trace, exact = stepper.leak[:k + 1], stepper.exact[:k + 1]
        assert trace[:k].max() <= threshold < trace[k]
        assert np.any(trace >= threshold / 10) and np.all(exact[trace >= threshold / 10])
        assert stepper.refined > 0

    def test_kept_columns_are_the_unit_roundoff_half_steps(self, monkeypatch):
        # step doubling takes its coarse solve at a looser Taylor remainder,
        # but the columns march keeps are the two half steps of each kept
        # step at the unit roundoff: replayed by a fresh stepper's cf4 at
        # its default precision, they agree bit for bit
        h, space = ramped_hamiltonian(np.random.default_rng(5), t_end=0.1), FockSpace(2, 10, 0.5)
        coefficients, grid = fock._pair_coefficients(h, reference_u_alpha(h)), h.grid()
        kept, leakage = [], fock._ColumnStepper.leakage

        def logged(stepper, k, n_h, states):
            # with no finite threshold nothing is retried: every attempt the
            # error estimate accepts, and only those, reach the gate
            kept.append((k, n_h))
            leakage(stepper, k, n_h, states)

        monkeypatch.setattr(fock._ColumnStepper, "leakage", logged)
        marched = fock._ColumnStepper(space, 4, coefficients, grid, np.inf)
        marched.march(1e-8)
        assert marched.steps == len(kept) > 1 and marched.rejected > 0
        assert sum(n_h for _, n_h in kept) == len(grid) - 1
        replay = fock._ColumnStepper(space, 4, coefficients, grid, np.inf)
        us = replay.us
        for k, n_h in kept:
            t, dt = grid[k], grid[k + n_h] - grid[k]
            mid = replay.cf4(us, coefficients(t + fock._GAUSS * (dt / 2)), dt / 2)
            us = replay.cf4(mid, coefficients(t + dt / 2 + fock._GAUSS * (dt / 2)), dt / 2)
        assert all(np.array_equal(a, b) for a, b in zip(us, marched.us))

    @pytest.mark.parametrize("case", ["d2-ramped", "oracle-im-z2"])
    def test_coarse_precision_moves_only_the_estimate(self, monkeypatch, case):
        # the coarse solve at a thousandth of each attempt's error budget
        # against one at the unit roundoff: the same columns, leakage trace
        # and step counts, and summed estimates within a thousandth of tol
        if case == "d2-ramped":
            h, space = ramped_hamiltonian(np.random.default_rng(5), t_end=0.1), FockSpace(2, 10, 0.5)
            trusted, threshold = 4, np.inf
        else:
            # the demo scenario's flow: its late steps reach the gate
            h = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=0.05, dt=5e-4)
            space, trusted, threshold = FockSpace(1, 24, 0.5), 16, 5e-3
        tol, targets, expm_apply = 1e-7, [], fock._expm_apply

        def spy(mat, norm, u, target=fock._UNIT_ROUNDOFF):
            targets.append(target)
            return expm_apply(mat, norm, u, target)

        run = lambda: quantum_flow(h, space, trusted_n=trusted, leak_threshold=threshold, tol=tol)
        monkeypatch.setattr(fock, "_expm_apply", spy)
        got = run()
        assert max(targets) > fock._UNIT_ROUNDOFF
        monkeypatch.setattr(fock, "_expm_apply", lambda mat, norm, u, target: expm_apply(mat, norm, u))
        want = run()
        counts = ("steps", "rejected", "refined")
        assert [got.integrator[k] for k in counts] == [want.integrator[k] for k in counts]
        assert (got.integrator["refined"] > 0) == (case == "oracle-im-z2")
        assert np.array_equal(got.columns, want.columns)
        assert np.array_equal(got.leakage_trace, want.leakage_trace)
        assert np.array_equal(got.leakage_exact, want.leakage_exact)
        assert abs(got.integrator["time_error"] - want.integrator["time_error"]) <= 1e-3 * tol

    def test_tolerance_below_the_grid_is_reported(self):
        # single grid steps are always kept: the estimate is reported, not looped on
        space = FockSpace(1, 16, 0.5)
        # a turning phase: the generators at two times do not commute
        h = QuadraticHamiltonian(1, beta=lambda t: np.array([[np.exp(40j * t)]]),
                                 t_end=0.05, dt=5e-3)
        qf = quantum_flow(h, space, 0.05, trusted_n=8, leak_threshold=np.inf,
                          tol=1e-16)
        assert qf.integrator["steps"] == 10
        assert qf.integrator["time_error"] > 1e-16


def ci_d3_hamiltonian():
    """The constant-coefficient d=3 Hamiltonian of the CI oracle scenario."""
    return Scenario.from_path(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "demos", "scenarios", "oracle-d3-quartic.json")).hamiltonian()


class TestLeakageGateMemory:
    """The CF4 step and Hermite gate of a flow spanning the d=3, N=16 grid."""

    def test_memory_bound(self):
        # the gate forms the interpolated top rows and Gram matrices of one
        # batch of the points it visits at a time (the Gram matrices of all
        # 99 would be ~13 MB on their own, the 36 products of the knot rows
        # 8 MB), and step doubling drops its coarse solve once the error is
        # taken.  Measured 11.6 MB; 14 MB leaves 20 % for allocator noise.
        h, space = ci_d3_hamiltonian(), FockSpace(3, 16, 0.5)
        quantum_flow(h, space, trusted_n=8, leak_threshold=1e-4, tol=1e-7)
        tracemalloc.start()
        try:
            qf = quantum_flow(h, space, trusted_n=8, leak_threshold=1e-4, tol=1e-7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert qf.integrator["steps"] == 1
        assert peak < 14e6


@pytest.mark.parametrize("case", ["d2-n12-ramped", "d2-n12-refined", "d3-n16-ci"])
def test_gate_is_exact_where_it_decides(monkeypatch, case):
    # the bound-first gate against the reference gate, which takes the top
    # eigenvalue at every grid point of each CF4 step
    if case.startswith("d2"):
        h, space = ramped_hamiltonian(np.random.default_rng(7), t_end=0.2), FockSpace(2, 12, 0.5)
        # trusted 6 leaks most from the even block, trusted 5 from the odd
        # one; at trusted 5 the leakage peaks at 0.27, so with threshold
        # 0.5 the late steps reach the gate at 0.05 and are retried as
        # single grid steps
        trusted, threshold = (6, np.inf) if case == "d2-n12-ramped" else (5, 0.5)
    else:
        h, space, trusted, threshold = ci_d3_hamiltonian(), FockSpace(3, 16, 0.5), 8, 1e-4
    run = lambda: quantum_flow(h, space, trusted_n=trusted, leak_threshold=threshold, tol=1e-7)
    got = run()
    monkeypatch.setattr(fock._ColumnStepper, "leakage", every_point_gate)
    want = run()
    assert got.integrator == want.integrator
    assert np.array_equal(got.columns, want.columns)
    trace, exact, ref = got.leakage_trace, got.leakage_exact, want.leakage_trace
    assert want.leakage_exact.all() and exact[0] and not exact.all()
    assert np.all(np.abs(trace - ref)[exact] <= 1e-12 * ref[exact])
    assert np.all(trace[~exact] >= ref[~exact])
    assert got.max_leakage() == want.max_leakage()
    assert np.count_nonzero(trace) == len(trace) - 1
    # only step ends, all exact, reach the gate
    assert np.all(exact[trace >= threshold / 10])
    assert (got.integrator["refined"] > 0) == (case == "d2-n12-refined")


@pytest.mark.parametrize("case", ["d1-n24", "d2-n8", "d2-n24"])
def test_table_and_csr_kernels_agree(monkeypatch, rng, case):
    # forced to either side of the cut, the oracle's gathers and its CSR
    # products give the same flow and b^Wick to rounding, the same exact
    # leakage points and the same CF4 step counts.  Through
    # conjugate_observable, each kernel gives columns^* b^Wick columns for
    # an odd dense observable, which fills the blocks between the
    # parities, and for n-squared, whose monomials share the diagonal
    if case == "d1-n24":
        space, trusted = FockSpace(1, 24, 0.5), 20
        h = QuadraticHamiltonian(1, alpha=np.array([[0.4]]), beta=np.array([[0.8 + 0.3j]]),
                                 t_end=0.2, dt=1e-3)
    elif case == "d2-n8":
        space, trusted, h = FockSpace(2, 8, 0.5), 6, ramped_hamiltonian(rng, t_end=0.1)
    else:
        space, trusted, h = FockSpace(2, 24, 0.5), 20, ramped_hamiltonian(rng, t_end=0.1)
    b, vectors = random_symbol(rng, space.dim, 4), space.random_state(rng, space.n_max, 5)
    observables = [random_symbol(rng, space.dim, 3), preset_symbol("n-squared", space.dim)]
    runs, applied = {}, {}
    for table, cut in ((True, space.total_dim), (False, space.total_dim - 1)):
        monkeypatch.setattr(fock, "_NUMPY_MAX_STATES", cut)
        assert (fock._parity_blocks(space, trusted)[0].work.csr is None) == table
        applied[table] = wick_apply(b, space, vectors)
        runs[table] = quantum_flow(h, space, trusted_n=trusted, leak_threshold=np.inf, tol=1e-8)
        cols = runs[table].columns
        for obs in observables:
            want = cols.conj().T @ wick_quantize(obs, space) @ cols
            got = conjugate_observable(runs[table], obs)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(applied[True] - applied[False]).max() <= 1e-13 * np.abs(applied[False]).max()
    got, want = runs[True], runs[False]
    assert np.abs(got.columns - want.columns).max() <= 1e-13
    exact = want.leakage_exact
    assert np.array_equal(got.leakage_exact, exact)
    ref = want.leakage_trace[exact]
    assert ref.max() > 1e-3
    assert np.all(np.abs(got.leakage_trace[exact] - ref) <= 1e-13 * ref)
    counts = ("steps", "rejected", "refined")
    assert [got.integrator[k] for k in counts] == [want.integrator[k] for k in counts]


@pytest.mark.parametrize("dim, n_max", [(1, 30), (2, 16), (3, 10)])
def test_pair_terms_have_one_entry_per_row(dim, n_max):
    # the neighbour table's premise: each pair term a^kappa (|kappa| = 2),
    # and its adjoint, has at most one entry in each row, so one slot per
    # term and row holds every nonzero of the generator
    entry_rows = []
    for kappa in sec.occupations(dim, 2):
        rows, cols, _ = sec.ladder_entries(dim, n_max, (0,) * dim, kappa)
        assert len(np.unique(rows)) == len(rows) and len(np.unique(cols)) == len(cols)
        # the rows of the term's entries and of its adjoint's
        entry_rows += [rows, cols]
    entry_rows = np.concatenate(entry_rows)
    for blk in fock._parity_blocks(FockSpace(dim, n_max, 0.5), n_max - 4):
        assert np.count_nonzero(blk.work.val) == np.count_nonzero(np.isin(entry_rows, blk.states))


@pytest.mark.parametrize("kind", ["table", "csr"])
@pytest.mark.parametrize("norm, subs", [(0.7, 1), (3.5, 4)], ids=["one-sub-step", "four-sub-steps"])
def test_taylor_kernel_matches_expm(monkeypatch, rng, kind, norm, subs):
    # exp(G) u for a sparse anti-Hermitian G of the given 1-norm, which
    # sets the ceil(norm) sub-steps: to rounding at the unit roundoff,
    # and within target ||u|| (2-norms) at a loose target.  G is a table
    # of one map per nonzero, of ladder weight 1 and the nonzero as its
    # coefficient, on the 40 states of d=1, N=39, with the cut forced to
    # either side of them.
    n = 40
    m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * (rng.random((n, n)) < 0.2)
    gen = (m - m.conj().T) / 2
    gen *= norm / np.abs(gen).sum(axis=0).max()
    monkeypatch.setattr(fock, "_NUMPY_MAX_STATES", n if kind == "table" else n - 1)
    rows, cols = np.nonzero(gen)
    states = np.arange(n)
    entries = (rows, cols, np.ones(len(rows)), np.arange(len(rows)))
    mat = fock._Table(FockSpace(1, n - 1, 0.5), entries, len(rows), states, states)
    mat.fill(gen[rows, cols])
    assert (mat.csr is None) == (kind == "table")
    assert np.array_equal(densify(mat), gen)
    assert math.ceil(mat.norm1()) == subs
    u = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
    want, scale = expm(gen) @ u, np.linalg.norm(u, 2)
    for target, bound in ((fock._UNIT_ROUNDOFF, 1e-14), (1e-4, 1e-4)):
        got = fock._expm_apply(mat, mat.norm1(), u, target)
        assert np.linalg.norm(got - want, 2) <= bound * scale


def test_numpy_cut_sits_at_400_states():
    # the documented cut: the d=1, N=24 demo spaces (25 states), d=2, N=24
    # (325) and d=3, N=10 (286) run on numpy alone, d=2, N=28 (435) and
    # d=3, N=12 (455) on CSR, and the edge is 400 states
    for dim, n_max, table in ((1, 24, True), (2, 24, True), (3, 10, True), (1, 399, True),
                              (1, 400, False), (2, 28, False), (3, 12, False)):
        space = FockSpace(dim, n_max, 0.5)
        assert (space.total_dim <= fock._NUMPY_MAX_STATES) == table == (space.total_dim <= 400)
        assert all((blk.work.csr is None) == table for blk in fock._parity_blocks(space, n_max - 4))


@pytest.mark.parametrize("table", [True, False], ids=["table", "csr"])
@pytest.mark.parametrize("dim, n_max", [(1, 30), (2, 16), (3, 10)])
def test_generator_norm1_is_exact(monkeypatch, rng, dim, n_max, table):
    # no two pair terms share a position, so on either side of the cut
    # the work table's 1-norm, which sets the CF4 Taylor lengths, is the
    # largest absolute column sum of its dense array
    space = FockSpace(dim, n_max, 0.5)
    monkeypatch.setattr(fock, "_NUMPY_MAX_STATES", space.total_dim if table else 0)
    n_terms = 2 * len(sec.occupations(dim, 2))
    c = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    for blk in fock._parity_blocks(space, n_max - 4):
        assert (blk.work.csr is None) == table
        assert blk.work.fill(c).norm1() == np.abs(densify(blk.work)).sum(0).max()


@pytest.mark.parametrize("table", [True, False], ids=["table", "csr"])
def test_norm1_where_maps_share_positions(monkeypatch, table):
    # two maps on the diagonal, the number operator of mode 0 with
    # coefficients 1 and -1/2: above the cut the CSR sums them first and
    # the 1-norm is exact, below it the slots' weights are summed apart
    # and bound it from above, here 3 times over
    space = FockSpace(2, 8, 0.5)
    monkeypatch.setattr(fock, "_NUMPY_MAX_STATES", space.total_dim if table else 0)
    number = sec.ladder_entries(2, space.n_max, (1, 0), (1, 0))
    states = np.arange(space.total_dim)
    mat = fock._Table(space, fock._stack([number] * 2), 2, states, states).fill([1.0, -0.5])
    exact = np.abs(densify(mat)).sum(0).max()
    assert exact == pytest.approx(0.5 * space.n_max, rel=1e-15)
    assert mat.norm1() == pytest.approx((3 if table else 1) * exact, rel=1e-15)


@pytest.mark.parametrize("grid", [0.125 * np.arange(11), 0.3 + 0.007 * np.arange(13)],
                         ids=["mid-knot-on-the-grid", "decimal"])
def test_gate_basis_is_the_flow_hermite_rule(grid):
    # the gate's basis over one CF4 step is the flow's Hermite rule on the
    # unit vectors of (y0, h/2 y0', ym, h/2 ym', y1, h/2 y1')
    t, h = grid[0], grid[-1] - grid[0]
    knots, inner = np.array([t, t + h / 2, t + h]), grid[1:-1]
    unit = np.eye(6)
    got = _hermite(knots, unit[0::2], unit[1::2] / (h / 2), inner)
    assert np.abs(got - hermite_basis_by_hand(knots, inner)).max() <= 1e-15
    if len(grid) == 11:
        assert inner[4] == knots[1] and np.array_equal(got[4], unit[2])


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5)], ids=["tall", "wide", "square"])
def test_narrow_gram_gives_the_2_norm(rng, shape):
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    narrow = fock._narrow(x)
    assert narrow.shape == (min(shape), max(shape))
    top, want = np.linalg.eigvalsh(narrow @ narrow.conj().T)[-1], np.linalg.norm(x, 2) ** 2
    assert abs(top - want) <= 1e-13 * want


@pytest.mark.parametrize("shape", [(7, 12), (7, 3), (5, 5), (1, 4), (1, 1)],
                         ids=["wide", "rank-deficient", "square", "one-row", "1x1"])
def test_gershgorin_bounds_the_2_norm(rng, shape):
    # the gate's middle tier: the root of the largest absolute row sum of
    # x x* bounds ||x||_2 from above for each matrix of a stack, of full
    # rank or not (7 x 3: a 7 x 7 Gram matrix of rank 3), a zero one
    # included, and is the norm itself for a 1 x 1 Gram matrix
    x = rng.standard_normal((40,) + shape) + 1j * rng.standard_normal((40,) + shape)
    x[0] = 0.0
    grams = fock._gram(x)
    norm = np.sqrt(np.maximum(np.linalg.eigvalsh(grams)[:, -1], 0.0))
    bound = fock._gram_bound(grams)
    assert bound.shape == (40,) and bound[0] == 0.0
    assert np.all(bound >= norm * (1.0 - 1e-14))
    if shape[0] == 1:
        assert np.all(np.abs(bound - norm) <= 1e-14 * norm)
    else:
        assert np.all(bound[1:] > norm[1:] * (1.0 + 1e-3))


def test_gate_bounds_the_dense_reference_leakage():
    # every trace value, exact or a Frobenius or Gershgorin bound, is at
    # least the leakage of the independent dense RK4 flow at that grid
    # point, to within the two integrations' errors, and the largest is an
    # exact value.  Measured: the exact values agree with the reference to
    # 2.7e-12, 2.7 tol (the reference at dt/4 is within 2e-14 of that at dt),
    # and the bounds lie 10 % or more above it.
    space, trusted, tol = FockSpace(2, 10, 0.5), 4, 1e-12
    h = ramped_hamiltonian(np.random.default_rng(5), t_end=0.02, dt=2e-4)
    ref = dense_reference_flow(ramped_hamiltonian(np.random.default_rng(5), t_end=0.02,
                                                  dt=5e-5), space, trusted)[1][::4]
    qf = quantum_flow(h, space, trusted_n=trusted, leak_threshold=np.inf, tol=tol)
    trace, exact, slack = qf.leakage_trace, qf.leakage_exact, 3 * tol
    assert trace.shape == ref.shape and exact[0] and not exact.all()
    assert np.all(trace >= ref - slack)
    assert np.all(np.abs(trace - ref)[exact] <= slack)
    assert exact[np.argmax(trace)] and abs(trace.max() - ref.max()) <= slack


def test_leakage_gate_needs_untrusted_top_sectors():
    # with trusted columns in the top two sectors, even a zero Hamiltonian
    # would read as leakage 1.0
    space = FockSpace(1, 8, 0.5)
    h = QuadraticHamiltonian(1, t_end=0.1, dt=1e-2)
    for trusted in (7, 8):
        with pytest.raises(ValueError, match="n_max - 2"):
            quantum_flow(h, space, trusted_n=trusted, leak_threshold=1e-6, tol=1e-8)
    qf = quantum_flow(h, space, trusted_n=6, leak_threshold=1e-6, tol=1e-8)
    assert qf.max_leakage() == 0.0
    assert np.abs(qf.columns - np.eye(space.total_dim)[:, :7]).max() <= 1e-15


class TestConjugateObservable:
    def test_time_zero(self, rng):
        space = FockSpace(1, 10, 0.5)
        h = QuadraticHamiltonian(1, beta=np.array([[0.5]]), t_end=0.2, dt=1e-2)
        qf = quantum_flow(h, space, 0.0, trusted_n=space.n_max, leak_threshold=np.inf)
        b = random_symbol(rng, 1, 3)
        got = conjugate_observable(qf, b)
        assert np.abs(got - wick_quantize(b, space)).max() < 1e-13

    def test_constant_observable(self):
        space = FockSpace(1, 12, 0.5)
        h = QuadraticHamiltonian(1, beta=np.array([[0.6]]), t_end=0.2, dt=1e-3)
        qf = quantum_flow(h, space, 0.2, trusted_n=space.n_max, leak_threshold=np.inf)
        got = conjugate_observable(qf, PolySymbol.constant(1, 1.0))
        assert np.abs(got - np.eye(space.total_dim)).max() < 1e-10

    def test_trusted_block_matches_full_run(self, rng):
        space = FockSpace(2, 10, 0.5)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = QuadraticHamiltonian(2, alpha=np.diag([0.3, -0.2]), beta=(m + m.T) / 2,
                                 t_end=0.1, dt=1e-3)
        b = random_symbol(rng, 2, 3)
        run = quantum_flow(h, space, 0.1, trusted_n=space.n_max, leak_threshold=np.inf)
        full = conjugate_observable(run, b)
        # the restricted result holds the full run's trusted columns: the
        # prefix of each parity block's columns on sectors <= 5
        stop = space.span_slice(5).stop
        blocks = [(states, u[:, :np.searchsorted(states, stop)]) for states, u in run.parity_blocks]
        trusted = QuantumFlowResult(space, blocks, run.leakage_trace, run.leakage_exact, 5,
                                    run.integrator)
        got = conjugate_observable(trusted, b)
        assert got.shape == (space.span_slice(5).stop,) * 2
        # The two blocks differ by rounding only: the columns are the same,
        # and each entry is a length-total_dim dot product of a unit
        # column of U with a column of b^Wick U, whose entries are at most
        # ~max|b^Wick| at t = 0.1.  The first-order dot-product bound is then
        # c total_dim eps max|b^Wick| with c = 1; measured differences are
        # 0.3-1.5 % of it over Philox seeds 0-7, and a wrong column or a missing
        # Gamma(u_alpha) block is off by ~1e-2 or more.
        b_max = np.abs(wick_quantize(b, space)).max()
        bound = space.total_dim * np.finfo(float).eps * b_max
        assert trusted_block_diff(got, full, space, 5) <= bound
        with pytest.raises(DimensionMismatchError):
            trusted_block_diff(got, full, space, 6)

    def test_memory_below_one_dense_operator(self, rng):
        # b^Wick acts on the evolved columns as a sparse matrix: at d=3,
        # N=16 the call stays below the 969^2 x 16 B = 15 MB of the dense
        # quantization alone.  Each parity pair's table holds only the
        # monomials of the degree parity that links the pair, stacked for
        # that pair alone, as a CSR matrix filled from the coefficients
        # through a sparse map of ladder values: measured 7.51 MB, against
        # 9.99 MB when each table also kept its slot arrays and 11.92 MB
        # when every table held all the monomials; 9.4 MB leaves 25 %
        space = FockSpace(3, 16, 0.5)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = QuadraticHamiltonian(3, alpha=np.diag([0.3, -0.2, 0.1]), beta=(m + m.T) / 4,
                                 t_end=0.01, dt=5e-3)
        qf = quantum_flow(h, space, 0.01, trusted_n=8, leak_threshold=np.inf)
        b = random_symbol(rng, 3, 4)
        # a first call fills the shared ladder tables; the bound is on the
        # call
        conjugate_observable(qf, b)
        tracemalloc.start()
        try:
            got = conjugate_observable(qf, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (qf.columns.shape[1],) * 2
        assert peak < 9.4e6

    def test_dense_observable_memory(self, rng):
        # a dense degree-4 observable at d=2, N=24 (the oracle's trusted
        # sectors <= 16) has 70 monomials; a parity pair's b^Wick table
        # holds those of the degree parity linking the pair, and its
        # product gathers rows in batches of at most 2^14 entries.
        # Measured peak 1.58 MB (3.85 MB with all 70 slots in every table
        # and batches of 2^17, 2.9 MB for the dense block product before
        # the tables); one gather of every row took 16.9 MB.
        space = FockSpace(2, 24, 0.5)
        qf = quantum_flow(ramped_hamiltonian(rng, t_end=0.01), space, trusted_n=16,
                          leak_threshold=np.inf)
        b = random_symbol(rng, 2, 4)
        # a first call fills the shared ladder tables; the bound is on the call
        conjugate_observable(qf, b)
        tracemalloc.start()
        try:
            conjugate_observable(qf, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6

    def test_comparison_memory_bound(self):
        # conjugate_observable and unitarity_defect read the parity blocks
        # and views of them, never a total_dim x n_cols block with half of it
        # zeros, nor copies gathered from one.  On the CI d=3 scenario at
        # N=16, trusted 8, the pair peaked at 1.76 MB, against 3.06 MB when
        # the result held the zero-padded block; 2.2 MB leaves 25 % for
        # allocator noise.
        h, space, b = ci_d3_hamiltonian(), FockSpace(3, 16, 0.5), preset_symbol("quartic-cross", 3)
        qf = quantum_flow(h, space, trusted_n=8, leak_threshold=1e-4, tol=1e-7)
        # a first call fills the shared ladder tables; the bound is on the pair
        conjugate_observable(qf, b)
        tracemalloc.start()
        try:
            conjugate_observable(qf, b)
            qf.unitarity_defect()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2e6

    def test_central_cross_check_converged_cutoff(self):
        # evolved quartic observable against the exponential-engine symbol,
        # with the cutoff high enough that truncation cannot pollute the
        # compared block
        space = FockSpace(1, 48, 0.5)
        t = 0.3
        h = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=t, dt=1e-3)
        qf = quantum_flow(h, space, t, leak_threshold=np.inf)
        flow = integrate_flow(h)
        b = preset_symbol("n-squared", 1)
        evolved = conjugate_observable(qf, b)
        assembled = exp_expand(b, t, flow, epsilon=space.epsilon).assembled()
        assert trusted_block_diff(evolved, wick_quantize(assembled, space), space, 16) < 1e-5


class TestEstimates:
    def test_vacuum_value(self):
        # || Q^Wick vacuum || = sqrt(2) (eps/2) ||beta||
        space = FockSpace(1, 8, 0.5)
        beta = np.array([[0.9]])
        q_op = wick_quantize(squeezing_hamiltonian_symbol(beta), space)
        vac = np.zeros(space.total_dim)
        vac[0] = 1.0
        norm = np.linalg.norm(q_op @ vac)
        assert abs(norm - math.sqrt(2.0) * (space.epsilon / 2.0) * 0.9) < 1e-13

    def test_zero_beta_vacuous(self):
        space = FockSpace(1, 6, 0.5)
        rep = check_estimates(np.zeros((1, 1)), space, n_samples=5)
        assert rep["vacuous"]
        assert rep["max_ratio_generator"] == 0.0

    def test_monte_carlo_bounds_hold(self, rng):
        space = FockSpace(2, 10, 0.5)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = (m + m.T) / 2
        rep = check_estimates(m, space, n_samples=300, rng=rng)
        assert rep["max_ratio_generator"] <= 1.0
        assert all(v <= 1.0 for v in rep["max_ratio_commutator"].values())

    @pytest.mark.parametrize("dim", [1, 2])
    def test_growth_bound_small_cutoff(self, dim):
        # at n_max = 6 the random states reach sector 3 > n_max - 4, the
        # default evolved range: the check must evolve those columns too
        space = FockSpace(dim, 6, 0.5)
        m = np.eye(dim) * 0.6 + 0.1
        rep = check_growth_bound(m, space, 0.3, n_samples=20,
                                 rng=np.random.default_rng(5))
        h = QuadraticHamiltonian(dim, beta=m, t_end=0.3, dt=1e-3)
        u = quantum_flow(h, space, 0.3, trusted_n=space.n_max,
                         leak_threshold=np.inf).columns
        # the check draws its 20 states as one block and weighs by n + 1
        weight = (space.number_values() + 1.0)[:, None]
        psi = space.random_state(np.random.default_rng(5), 3, samples=20)
        for k in (1, 2):
            bound = math.exp(3.0 ** k * math.sqrt(2.0) * np.linalg.norm(m) * 0.3) * 1.1
            ratios = (np.linalg.norm(weight ** (k / 2) * (u @ psi), axis=0)
                      / (bound * np.linalg.norm(weight ** (k / 2) * psi, axis=0)))
            assert rep["max_ratio"][k] == pytest.approx(ratios.max(), rel=1e-12)
            assert rep["max_ratio"][k] <= 1.0

    def test_growth_bound_soft(self, rng):
        space = FockSpace(1, 18, 0.5)
        rep = check_growth_bound(np.array([[0.7]]), space, 0.5,
                                 n_samples=40, rng=rng)
        assert all(v <= 1.0 for v in rep["max_ratio"].values())

    def test_rows_agree_across_epsilon(self):
        # both checks weigh by n + 1, so a seed gives the same ratios at
        # every epsilon
        beta = np.array([[0.7 + 0.2j]])
        reps = []
        for eps in (0.01, 0.5, 1.0, 10.0):
            space = FockSpace(1, 24, eps)
            est = check_estimates(beta, space, n_samples=50, rng=np.random.default_rng(3))
            growth = check_growth_bound(beta, space, 0.05, n_samples=50,
                                        rng=np.random.default_rng(3))
            reps.append([est["max_ratio_generator"], *est["max_ratio_commutator"].values(),
                         *growth["max_ratio"].values()])
        for rep in reps[1:]:
            assert rep == pytest.approx(reps[0], rel=1e-9)

    def test_sample_max_chunks_and_propagates_nan(self, monkeypatch):
        monkeypatch.setattr(fock, "SAMPLE_CHUNK", 4)
        sizes, draws = [], iter([[0.5, 0.1, 0.2, 0.3], [0.9, 0.4, 0.0, 0.2], [0.6, 0.7]])

        def ratios(size):
            sizes.append(size)
            return np.array([next(draws), np.full(size, float(len(sizes)))])

        assert fock.sample_max(ratios, 10).tolist() == [0.9, 3.0]
        assert sizes == [4, 4, 2]
        draws = iter([[0.5, np.nan], [0.9, 0.4]])
        assert np.isnan(fock.sample_max(lambda size: np.array(next(draws)), 4))

    def test_sample_max_block_holds_at_most_sample_entries(self):
        sizes = []

        def ratios(size):
            sizes.append(size)
            return np.zeros(size)

        fock.sample_max(ratios, 7, entries=fock.SAMPLE_ENTRIES // 3)
        fock.sample_max(ratios, 2, entries=fock.SAMPLE_ENTRIES + 1)
        assert sizes == [3, 3, 1, 1, 1]

    def test_no_samples_refused(self):
        space = FockSpace(1, 10, 0.5)
        beta = np.array([[0.7]])
        with pytest.raises(ValueError, match="n_samples"):
            check_estimates(beta, space, n_samples=0)
        with pytest.raises(ValueError, match="n_samples"):
            check_growth_bound(beta, space, 0.1, n_samples=0)

    def test_nan_sample_fails_every_row(self, monkeypatch):
        # one NaN state among finite ones must not drop out of the maximum
        space = FockSpace(1, 10, 0.5)
        draw = space.random_state

        def with_nan(rng, n_top, samples=None):
            psi = draw(rng, n_top, samples)
            psi[:, 1] = np.nan
            return psi

        monkeypatch.setattr(space, "random_state", with_nan)
        beta = np.array([[0.7]])
        est = check_estimates(beta, space, n_samples=5, rng=np.random.default_rng(1))
        growth = check_growth_bound(beta, space, 0.3, n_samples=5, rng=np.random.default_rng(1))
        ratios = [est["max_ratio_generator"], *est["max_ratio_commutator"].values(),
                  *growth["max_ratio"].values()]
        assert all(math.isnan(r) for r in ratios)
