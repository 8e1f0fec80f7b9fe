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
from hepp_expand.errors import DimensionMismatchError, LeakageError
from hepp_expand.expansions import exp_expand
from hepp_expand.flow import QuadraticHamiltonian, _hermite, integrate_flow, integrate_u_alpha
from hepp_expand.fock import (
    FockSpace,
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
from hepp_expand.symplectic import RLinearMap

from conftest import random_unitary, random_vector
from reference import (
    dense_ladder_product,
    every_point_gate,
    field_and_weyl,
    hermite_basis_by_hand,
    loop_gamma_u,
    sym_mult_map,
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


def dense_reference_flow(h, space, trusted_n):
    """Reference: RK4 on the full dense generator over the whole space,
    leakage by the SVD of the full top-sector x trusted-column block.
    Returns U(t_end) (beta-only flow, no Gamma(u_alpha) factor) and the
    leakage trace."""
    n_steps = max(1, int(round((h.t_end - h.t_start) / h.dt)))
    grid = h.t_start + (h.t_end - h.t_start) / n_steps * np.arange(n_steps + 1)
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
            u = u_path.at(t)
            beta = u.conj().T @ beta @ np.conj(u)
        g = sum(np.conj(beta[a, b]) * pab for (a, b), pab in pair.items())
        return -0.5 * (g - g.conj().T)

    top_lo = int(space.offsets[max(space.n_max - 1, 0)])
    trusted_hi = int(space.offsets[trusted_n + 1])
    u_mat = np.eye(space.total_dim, dtype=complex)
    leak = np.zeros(n_steps + 1)
    for k in range(n_steps):
        t = grid[k]
        dt = grid[k + 1] - t
        k1 = generator(t) @ u_mat
        k2 = generator(t + dt / 2) @ (u_mat + dt / 2 * k1)
        k3 = generator(t + dt / 2) @ (u_mat + dt / 2 * k2)
        k4 = generator(t + dt) @ (u_mat + dt * k3)
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
        offsets = np.cumsum([0] + [sec.sector_dim(dim, n) for n in range(7)])
        occ, stacked = sec._direct_sum_tables(dim, 6)
        assert len(occ) == offsets[-1]
        for n in range(7):
            up, weight = sec.raise_table(dim, n)
            index = sec.occupation_index(dim, n + 1)
            for k, kappa in enumerate(sec.occupations(dim, n)):
                assert tuple(occ[offsets[n] + k]) == kappa
                for i in range(dim):
                    hi = list(kappa)
                    hi[i] += 1
                    assert up[k, i] == index[tuple(hi)]
                    assert weight[k, i] == kappa[i] + 1
                    if n < 6:
                        assert stacked[i, offsets[n] + k] == offsets[n + 1] + index[tuple(hi)]

    def test_entries_are_cached_and_frozen(self):
        space = FockSpace(2, 6, 0.5)
        first = sec.ladder_entries(2, 6, (1, 0), (0, 2))
        assert sec.ladder_entries(2, 6, (1, 0), (0, 2)) is first
        assert not any(a.flags.writeable for a in first)
        # the public ladder product takes any sequence of occupations
        got = space.ladder_product(np.array([1, 0]), [0, 2])
        assert np.array_equal(got, dense_ladder_product(space, (1, 0), (0, 2)))
        assert sec.ladder_entries.cache_info().maxsize is not None


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
        rhs = wick_quantize(b.translate(z0), space)
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

    @pytest.mark.parametrize("tol", [None, 1e-6])
    def test_unitarity_defect_is_the_spectral_norm(self, rng, tol):
        # a coarse grid leaves a defect far above rounding, so the two
        # computations agree on the quantity and not only on the noise
        space = FockSpace(2, 10, 0.5)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = QuadraticHamiltonian(2, alpha=np.diag([0.4, -0.3]), beta=(m + m.T) / 2,
                                 t_end=0.5, dt=0.05)
        qf = quantum_flow(h, space, 0.5, trusted_n=7, leak_threshold=np.inf, tol=tol)
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
        full = quantum_flow(h, space, h.t_end, trusted_n=space.n_max,
                            leak_threshold=np.inf)
        qf = quantum_flow(h, space, h.t_end, trusted_n=trusted, leak_threshold=np.inf)
        want, want_leak = dense_reference_flow(h, space, trusted)
        if not h.alpha.is_zero():
            want = block_diag(*gamma_u(integrate_u_alpha(h).at(h.t_end), space)) @ want
        assert np.abs(full.columns - want).max() < 1e-12
        cols = space.span_slice(trusted)
        assert np.abs(qf.columns - want[:, cols]).max() < 1e-12
        assert want_leak[-1] > 0.0
        assert np.all(np.abs(qf.leakage_trace - want_leak) <= 1e-12 * want_leak)

    def test_d3_alpha_and_beta_match_the_loop_reference(self, rng):
        # the sector blocks of Gamma(u_alpha) applied to the evolved
        # columns, against the state-by-state Gamma(u) times dense RK4
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = QuadraticHamiltonian(3, alpha=(a + a.conj().T) / 2, beta=(m + m.T) / 4,
                                 t_end=0.1, dt=1e-3)
        space, trusted = FockSpace(3, 8, 0.5), 4
        qf = quantum_flow(h, space, trusted_n=trusted, leak_threshold=np.inf)
        u, _ = dense_reference_flow(h, space, trusted)
        want = loop_gamma_u(integrate_u_alpha(h).at(0.1), space) @ u[:, space.span_slice(trusted)]
        assert np.abs(qf.columns - want).max() < 1e-12

    @pytest.mark.parametrize("alpha", [False, True], ids=["beta-only", "with-alpha"])
    def test_restricted_columns_match_full_run(self, rng, alpha):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = QuadraticHamiltonian(2, alpha=(a + a.conj().T) / 2 if alpha else None,
                                 beta=(m + m.T) / 2, t_end=0.2, dt=1e-3)
        space = FockSpace(2, 12, 0.5)
        for t in (0.1, 0.2):
            full = quantum_flow(h, space, t, trusted_n=space.n_max, leak_threshold=np.inf)
            for trusted in (0, 3, 8):
                qf = quantum_flow(h, space, t, trusted_n=trusted, leak_threshold=np.inf)
                cols = space.span_slice(trusted)
                assert qf.columns.shape == (space.total_dim, cols.stop)
                assert np.abs(qf.columns - full.columns[:, cols]).max() <= 1e-15

    def test_time_off_the_grid_raises(self):
        space = FockSpace(1, 8, 0.5)
        h = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=0.1, dt=1e-2)
        for t in (0.015, 0.2, -0.01):
            with pytest.raises(ValueError, match="not on the time grid"):
                quantum_flow(h, space, t, leak_threshold=np.inf)

    @pytest.mark.parametrize("tol", [None, 1e-8], ids=["rk4", "magnus"])
    def test_time_zero_is_identity(self, rng, tol):
        space = FockSpace(2, 8, 0.5)
        h = ramped_hamiltonian(rng, t_end=0.2)
        qf = quantum_flow(h, space, 0.0, trusted_n=4, leak_threshold=1e-6, tol=tol)
        cols = space.span_slice(4).stop
        assert np.array_equal(qf.columns, np.eye(space.total_dim, cols))
        assert qf.leakage_trace.tolist() == [0.0]
        if tol is not None:
            assert qf.integrator["steps"] == 0

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


class TestMagnusFlow:
    """The tolerance-driven CF4 path of `quantum_flow` (a float `tol`)."""

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
        want = block_diag(*gamma_u(integrate_u_alpha(h8).at(0.3), space)) @ u[:, cols]
        # the reference's own error, bounded by its distance to RK4 at dt/4
        h4 = ramped_hamiltonian(np.random.default_rng(11), dt=1e-3 / 4)
        own = np.abs(quantum_flow(h4, space, 0.3, trusted_n=trusted,
                                  leak_threshold=np.inf).columns - want).max()
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
        # one value per grid point, within the interpolant's reach of RK4
        h = ramped_hamiltonian(rng, t_end=0.2)
        space = FockSpace(2, 12, 0.5)
        rk4 = quantum_flow(h, space, 0.2, trusted_n=6, leak_threshold=np.inf)
        cf4 = quantum_flow(h, space, 0.2, trusted_n=6, leak_threshold=np.inf, tol=1e-7)
        assert cf4.leakage_trace.shape == rk4.leakage_trace.shape
        assert rk4.leakage_exact.all()
        # measured <= 2e-5 relative; a Hermite fit without slopes gives ~1e-2
        slack, exact = 1e-4 * rk4.max_leakage(), cf4.leakage_exact
        assert np.abs(cf4.leakage_trace - rk4.leakage_trace)[exact].max() <= slack
        # where the gate kept a Frobenius bound, it bounds the leakage from above
        assert np.all(cf4.leakage_trace[~exact] >= rk4.leakage_trace[~exact] - slack)
        assert cf4.integrator["refined"] == 0

    def test_top_rows_survive_the_work_refills(self, rng):
        # the gate refills the top-row matrices at three knots; a CF4
        # attempt then refills the work matrices.  Each top-row matrix must
        # still be the top rows of the generator at the last knot.
        from scipy import sparse

        h = ramped_hamiltonian(rng, t_end=0.2)
        space = FockSpace(2, 12, 0.5)
        coefficients = fock._pair_coefficients(h, integrate_u_alpha(h))
        grid = h.grid()
        stepper = fock._ColumnStepper(space, 6, coefficients, grid, np.inf)
        n_h = 40
        t, dt = grid[0], grid[n_h] - grid[0]
        stepper.leakage(0, n_h, (stepper.us,) * 3)
        last = coefficients((t, t + dt / 2, t + dt))[-1]
        stepper.cf4(stepper.us, t, dt)
        for blk, top in zip(stepper.blocks, stepper.tops):
            full = sparse.csr_matrix((blk.values * last[blk.term], blk.indices, blk.indptr),
                                     shape=blk.shape)
            shape = (blk.shape[1], 3)
            state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert top.shape[0] > 0
            assert np.array_equal(top @ state, (full @ state)[blk.top_lo:])

    @pytest.mark.parametrize("case", ["leakage-abort", "example-im-z2"])
    def test_abort_matches_rk4(self, case):
        # the gate re-runs the leaking step by RK4 on the grid
        if case == "leakage-abort":
            space, trusted, t_end, tol = FockSpace(1, 8, 0.5), 2, 0.5, 1e-8
        else:
            space, trusted, t_end, tol = FockSpace(1, 24, 0.5), 16, 1.0, 1e-7
        h = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=t_end, dt=1e-3)
        diagnostics = []
        for step_tol in (None, tol):
            with pytest.raises(LeakageError) as err:
                quantum_flow(h, space, t_end, trusted_n=trusted, leak_threshold=1e-6,
                             tol=step_tol)
            diagnostics.append(err.value.diagnostics)
        assert diagnostics[1] == diagnostics[0]

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
    """The Hermite gate of a CF4 step spanning the d=3, N=16 grid."""

    def test_memory_bound(self):
        # the gate forms the Gram matrices of the points it visits only:
        # the whole stack of 99 would be ~13 MB on its own
        h, space = ci_d3_hamiltonian(), FockSpace(3, 16, 0.5)
        quantum_flow(h, space, trusted_n=8, leak_threshold=1e-4, tol=1e-7)
        tracemalloc.start()
        try:
            qf = quantum_flow(h, space, trusted_n=8, leak_threshold=1e-4, tol=1e-7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert qf.integrator["steps"] == 1
        assert peak < 21e6


@pytest.mark.parametrize("case", ["d2-n12-ramped", "d2-n12-refined", "d3-n16-ci"])
def test_gate_is_exact_where_it_decides(monkeypatch, case):
    # the bound-first gate against the reference gate, which takes the top
    # eigenvalue at every grid point of each CF4 step
    if case.startswith("d2"):
        h, space = ramped_hamiltonian(np.random.default_rng(7), t_end=0.2), FockSpace(2, 12, 0.5)
        # trusted 6 leaks most from the even block, trusted 5 from the odd
        # one; at trusted 5 the leakage peaks at 0.27, so with threshold
        # 0.5 the late steps reach the gate at 0.05 and are re-run by RK4
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
    # only RK4 points, all exact, reach the gate
    assert np.all(exact[trace >= threshold / 10])
    assert (got.integrator["refined"] > 0) == (case == "d2-n12-refined")


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


@pytest.mark.parametrize("tol", [None, 1e-8], ids=["rk4", "magnus"])
def test_leakage_gate_needs_untrusted_top_sectors(tol):
    # with trusted columns in the top two sectors, even a zero Hamiltonian
    # would read as leakage 1.0
    space = FockSpace(1, 8, 0.5)
    h = QuadraticHamiltonian(1, t_end=0.1, dt=1e-2)
    for trusted in (7, 8):
        with pytest.raises(ValueError, match="n_max - 2"):
            quantum_flow(h, space, trusted_n=trusted, leak_threshold=1e-6, tol=tol)
    qf = quantum_flow(h, space, trusted_n=6, leak_threshold=1e-6, tol=tol)
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
        full = conjugate_observable(
            quantum_flow(h, space, 0.1, trusted_n=space.n_max, leak_threshold=np.inf), b)
        got = conjugate_observable(
            quantum_flow(h, space, 0.1, trusted_n=5, leak_threshold=np.inf), b)
        assert got.shape == (space.span_slice(5).stop,) * 2
        # The two blocks differ by rounding only: the evolved columns agree to
        # ~3e-17, and each entry is a length-total_dim dot product of a unit
        # column of U with a column of b^Wick U, whose entries are at most
        # ~max|b^Wick| at t = 0.1.  The first-order dot-product bound is then
        # c total_dim eps max|b^Wick| with c = 1; measured differences are
        # 0.2-2 % of it over Philox seeds 0-7, and a wrong column or a missing
        # Gamma(u_alpha) block is off by ~1e-2 or more.
        b_max = np.abs(wick_quantize(b, space)).max()
        bound = space.total_dim * np.finfo(float).eps * b_max
        assert trusted_block_diff(got, full, space, 5) <= bound
        with pytest.raises(DimensionMismatchError):
            trusted_block_diff(got, full, space, 6)

    def test_memory_below_one_dense_operator(self, rng):
        # b^Wick acts on the evolved columns as a sparse matrix: at d=3,
        # N=16 the call stays below the 969^2 x 16 B = 15 MB of the dense
        # quantization alone
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
        assert peak < space.total_dim ** 2 * 16

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
