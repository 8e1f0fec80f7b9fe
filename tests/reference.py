"""Independent reference routes that the tests check the package against.

Each function recomputes a quantity of the package by a slower,
separately derived route, or checks an identity the expansions rest on:
dense per-sector ladder matrices, quantization through explicit
symmetrizers, field and Weyl operators, the JSON entries of a symbol
one coefficient at a time, the Poisson-bracket form of
lambda^s, the hand-written kernel of Lambda^t and doubled matrix of
phi_s^-1, the leakage gate's Hermite basis and its eigenvalue at every
grid point, the finite-difference derivative of Lambda, and the
Bogoliubov implementer of a fixed symplectomorphism.  Nothing here is on
the path of the command line tool.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.linalg import block_diag, expm

import hepp_expand.sectors as sec
from hepp_expand.expansions import Lambda_of_map, Lambda_t, lambda_s
from hepp_expand.flow import _hermite, v_vector
from hepp_expand.fock import _fill, _narrow, gamma_u, trusted_block_diff, wick_quantize
from hepp_expand.symbols import (
    PolySymbol,
    contraction,
    preset_symbol,
    second_order_kernel,
    squeezing_hamiltonian_symbol,
)
from hepp_expand.symplectic import decompose, doubled
from hepp_expand.weylwick import weyl_from_wick, wick_from_weyl


# ---------------------------------------------------------------------------
# sector matrices

@lru_cache(maxsize=None)
def annihilators(dim: int, n: int) -> tuple:
    """Mode annihilation matrices a_i mapping sector n >= 1 -> n-1, dense.

    a_i|kappa> = sqrt(kappa_i) |kappa - delta_i>, no epsilon factor; the
    creators a_i^dag from sector n-1 to n are their transposes.
    """
    idx_lo = sec.occupation_index(dim, n - 1)
    mats = []
    for i in range(dim):
        m = np.zeros((sec.sector_dim(dim, n - 1), sec.sector_dim(dim, n)), dtype=complex)
        for col, kappa in enumerate(sec.occupations(dim, n)):
            if kappa[i] > 0:
                low = list(kappa)
                low[i] -= 1
                m[idx_lo[tuple(low)], col] = math.sqrt(kappa[i])
        m.setflags(write=False)  # cached: every caller gets the same array
        mats.append(m)
    return tuple(mats)


def dense_ladder_product(space, m_occ, n_occ):
    """prod a_i^dag^{m_i} prod a_i^{n_i} as products of the sector ladder
    matrices, one sector block at a time."""
    p, q = sum(n_occ), sum(m_occ)
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for n_in in range(p, space.n_max + 1):
        n_out = n_in - p + q
        if n_out > space.n_max:
            continue
        blk = np.eye(space.sector_dims[n_in], dtype=complex)
        cur = n_in
        for i, reps in enumerate(n_occ):
            for _ in range(int(reps)):
                blk = annihilators(space.dim, cur)[i] @ blk
                cur -= 1
        for i, reps in enumerate(m_occ):
            for _ in range(int(reps)):
                blk = annihilators(space.dim, cur + 1)[i].T @ blk
                cur += 1
        out[space.sector_slice(n_out), space.sector_slice(n_in)] = blk
    return out


def loop_gamma_u(u, space):
    """Gamma(u) state by state, each basis vector built as
    prod_i (sum_j u_ji a_j^dag)^{k_i} |0> / sqrt(k!)."""
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for n in range(space.n_max + 1):
        blk = np.empty((space.sector_dims[n], space.sector_dims[n]), dtype=complex)
        for k, kappa in enumerate(sec.occupations(space.dim, n)):
            vec = np.ones(1, dtype=complex)
            cur = 0
            for i, reps in enumerate(kappa):
                for _ in range(int(reps)):
                    ups = annihilators(space.dim, cur + 1)
                    vec = sum(u[j, i] * ups[j].T for j in range(space.dim)) @ vec
                    cur += 1
            blk[:, k] = vec / math.sqrt(sec.occ_factorials(space.dim, n)[k])
        out[space.sector_slice(n), space.sector_slice(n)] = blk
    return out


@lru_cache(maxsize=None)
def onb_embedding(dim: int, n: int) -> np.ndarray:
    """Isometry from the sector basis into full tensor coordinates.

    Column kappa holds the d^n coordinates of |kappa>; the entry at a
    tensor position with content kappa is sqrt(kappa!/n!).
    """
    v = np.zeros((dim**n, sec.sector_dim(dim, n)))
    fk = sec.occ_factorials(dim, n)
    idx = sec.occupation_index(dim, n)
    for pos, word in enumerate(itertools.product(range(dim), repeat=n)):
        occ = [0] * dim
        for i in word:
            occ[i] += 1
        k = idx[tuple(occ)]
        v[pos, k] = math.sqrt(fk[k] / math.factorial(n))
    v.setflags(write=False)
    return v


def sym_mult_map(dim: int, n1: int, n2: int) -> np.ndarray:
    """The vee-multiplication tensor M: sector n1 (x) sector n2 -> sector n1+n2.

    (psi vee chi)_kappa = sum_{k1+k2=kappa} M[kappa, k1, k2] psi_k1 chi_k2
    with M = sqrt(n1! n2! / (n1+n2)!) * sqrt(kappa!/(k1! k2!)).
    """
    d1, d2 = sec.sector_dim(dim, n1), sec.sector_dim(dim, n2)
    out = np.zeros((sec.sector_dim(dim, n1 + n2), d1, d2))
    f1 = sec.occ_factorials(dim, n1)
    f2 = sec.occ_factorials(dim, n2)
    fh = sec.occ_factorials(dim, n1 + n2)
    mm = sec.merge_map(dim, n1, n2)
    pref = math.sqrt(math.factorial(n1) * math.factorial(n2) / math.factorial(n1 + n2))
    for a in range(d1):
        for b in range(d2):
            k = mm[a, b]
            out[k, a, b] = pref * math.sqrt(fh[k] / (f1[a] * f2[b]))
    return out


# ---------------------------------------------------------------------------
# operators on the truncated space

def wick_quantize_slow(b: PolySymbol, space) -> np.ndarray:
    """Quantization through explicit symmetrizer embeddings.

    Builds each block as the stated combinatorial factor times
    (coefficient vee identity) in full tensor coordinates.  Exponential
    in n_max, so for tiny spaces only.
    """
    dim = space.dim
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for (p, q), coeff in b.terms.items():
        tensor = onb_embedding(dim, q) @ coeff @ onb_embedding(dim, p).conj().T
        scale = space.epsilon ** ((p + q) / 2.0)
        for n_in in range(p, space.n_max + 1):
            n_out = n_in - p + q
            if n_out > space.n_max:
                continue
            factor = math.sqrt(math.factorial(n_in) * math.factorial(n_out)) \
                / math.factorial(n_in - p)
            big = np.kron(tensor, np.eye(dim ** (n_in - p)))
            blk = onb_embedding(dim, n_out).conj().T @ big @ onb_embedding(dim, n_in)
            out[space.sector_slice(n_out), space.sector_slice(n_in)] += factor * scale * blk
    return out


def field_and_weyl(xi, space):
    """Field operator of sqrt(2) Re<z, xi> and its Weyl exponential."""
    xi = np.asarray(xi, dtype=complex)
    phi = wick_quantize(preset_symbol("field", space.dim, xi=xi), space)
    return phi, expm(1j * phi)


def json_terms_loop(b: PolySymbol) -> list:
    """`b.to_json()["terms"]` by a loop over every coefficient, with each
    index tuple spelled out from its occupation vector."""
    def indices(occ):
        return [i + 1 for i, k in enumerate(occ) for _ in range(k)]

    out = []
    for (p, q), block in sorted(b.terms.items()):
        occ_q, occ_p = sec.occupations(b.dim, q), sec.occupations(b.dim, p)
        out.append({"p": p, "q": q, "entries": [
            [indices(occ_q[mi]), indices(occ_p[ni]), float(v.real), float(v.imag)]
            for (mi, ni), v in np.ndenumerate(block) if v != 0]})
    return out


# ---------------------------------------------------------------------------
# the generators of the expansions

def poisson_bracket(b1: PolySymbol, b2: PolySymbol, k: int) -> PolySymbol:
    """Poisson bracket of order k."""
    return contraction(b1, b2, k) - contraction(b2, b1, k)


def lambda_s_via_bracket(c: PolySymbol, s: float, flow, hamiltonian) -> PolySymbol:
    """lambda^s through its defining order-2 Poisson bracket with the full
    quadratic Hamiltonian (the alpha part drops out of the bracket
    identically)."""
    g = c.compose_rlinear(flow.phi_at(s).inverse())
    q = squeezing_hamiltonian_symbol(hamiltonian.beta_matrix(s))
    alpha = hamiltonian.alpha_on(s)[0]
    if np.any(alpha):
        q = q + PolySymbol(c.dim, {(1, 1): alpha})
    bracket = poisson_bracket(g, q, 2)
    return (-1j * bracket).compose_rlinear(flow.phi_at(s))


def Lambda_t_kernel_by_hand(flow, t: float) -> np.ndarray:
    """The kernel of Lambda^t written out from the flow's antilinear part
    at grid time t and the 2-vector v_t: a -2 A^T conj(A) trace block
    and the v_t pair blocks."""
    a = flow.antilinear[flow.grid_index(t)]
    return second_order_kernel(-2.0 * (a.T @ np.conj(a)), v_vector(flow, t))


def phi_inverse_doubled_by_hand(flow, s) -> np.ndarray:
    """The doubled matrices of phi_s^-1 = L* - A^T at the times `s`,
    stacked, transposing the dense output's blocks by hand."""
    lm, am = flow.phi_on(s)
    return doubled(np.conj(np.swapaxes(lm, 1, 2)), -np.swapaxes(am, 1, 2))


def hermite_basis_by_hand(knots, inner) -> np.ndarray:
    """The leakage gate's cubic Hermite basis at the times `inner`, written
    out on the two half-steps of knots (t, t + h/2, t + h), one row per
    time over the values and scaled slopes (y0, h/2 y0', ym, h/2 ym', y1,
    h/2 y1'): (1 + 2 tau)(1 - tau)^2, tau (1 - tau)^2, tau^2 (3 - 2 tau)
    and -tau^2 (1 - tau) on the half-step of each time, the second one
    from the mid knot on."""
    h = knots[2] - knots[0]
    second = inner >= knots[1]
    tau = (inner - np.where(second, knots[1], knots[0])) / (h / 2)
    herm = np.stack([(1 + 2 * tau) * (1 - tau) ** 2, tau * (1 - tau) ** 2,
                     tau ** 2 * (3 - 2 * tau), -tau ** 2 * (1 - tau)], axis=-1)
    basis = np.zeros((len(inner), 6))
    basis[~second, :4] = herm[~second]
    basis[second, 2:] = herm[second]
    return basis


def every_point_gate(stepper, k, n_h, states):
    """The leakage gate of a CF4 step with the top eigenvalue taken at every
    grid point k+1..k+n_h, a drop-in for `_ColumnStepper.leakage`: exact at
    the right knot, and from the Gram matrices of the cubic Hermite
    interpolant of the top-sector rows at every inner point, all of them
    as one stack.  Every point it writes is marked exact."""
    grid = stepper.grid
    t, h = grid[k], grid[k + n_h] - grid[k]
    out = np.zeros(n_h)
    out[-1] = max(blk.leakage(u) for blk, u in zip(stepper.blocks, states[-1]))
    if n_h > 1:
        knots = np.array([t, t + h / 2, t + h])
        coeffs = stepper.coefficients(knots)
        inner = grid[k + 1:k + n_h]
        basis = _hermite(knots, np.eye(6)[0::2], np.eye(6)[1::2] / (h / 2), inner)
        pairs = (basis[:, :, None] * basis[:, None, :]).reshape(len(inner), 36)
        for b, (blk, top) in enumerate(zip(stepper.blocks, stepper.tops)):
            ys = []
            for c, state in zip(coeffs, states):
                _fill([top], [blk], c)
                ys += [state[b][blk.top_lo:], (h / 2) * (top @ state[b])]
            ys = _narrow(np.stack(ys))
            if not ys.size:
                continue
            n = ys.shape[1]
            flat = ys.reshape(6 * n, -1)
            prods = (flat @ flat.conj().T).reshape(6, n, 6, n).swapaxes(1, 2).reshape(36, n * n)
            gram = (pairs @ prods).reshape(-1, n, n)
            top_eig = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
            out[:-1] = np.maximum(out[:-1], top_eig)
    stepper.leak[k + 1:k + n_h + 1] = out
    stepper.exact[k + 1:k + n_h + 1] = True


def check_lambda_is_derivative_of_Lambda(flow, hamiltonian, t: float, c: PolySymbol,
                                         h: float = None) -> dict:
    """Finite-difference check that d/ds Lambda^s = lambda^s.

    Uses a central difference of Lambda over grid times (one-sided at
    the left end, where Lambda vanishes); the defect is reported in the
    polynomial norm and should shrink like h^2 (h at the left end).
    """
    if h is None:
        h = float(flow.times[1] - flow.times[0])
    if t + h > flow.times[-1] + 1e-12:
        raise ValueError("h reaches beyond the flow grid")
    lam = lambda_s(c, t, flow, hamiltonian)
    at_left = abs(t - flow.times[0]) < 1e-12
    if at_left:
        diff = (1.0 / h) * Lambda_t(c, t + h, flow)
    else:
        if t - h < flow.times[0] - 1e-12:
            raise ValueError("h reaches beyond the flow grid")
        diff = (1.0 / (2.0 * h)) * (Lambda_t(c, t + h, flow) - Lambda_t(c, t - h, flow))
    defect = diff.distance_p(lam)
    return {"t": t, "h": h, "one_sided": at_left, "defect": defect,
            "lambda_norm": lam.norm_p()}


# ---------------------------------------------------------------------------
# Bogoliubov conjugation by a fixed symplectomorphism

def exp_lambda_of_map(b: PolySymbol, t_map, epsilon: float) -> PolySymbol:
    """Finite exponential sum of the second-order operator of T applied
    to b, truncated at half the degree where it vanishes identically."""
    out = b
    power = b
    for k in range(1, b.degree() // 2 + 1):
        power = Lambda_of_map(power, t_map)
        out = out + ((epsilon / 2.0) ** k / math.factorial(k)) * power
    return out


def bogoliubov_implementer(t_map, space) -> np.ndarray:
    """A unitary U on the truncated space with U* W(xi) U ~= W(T xi).

    For T = u e^{c rho}, U = exp(-i Q_rho^Wick / eps) Gamma(u)^* with
    Q_rho(z) = Im<c rho z, z>.
    """
    dec = decompose(t_map)
    e = dec.conj_basis
    q_rho = squeezing_hamiltonian_symbol((e * dec.rho_eigs) @ e.T)
    squeeze = expm(-1j * wick_quantize(q_rho, space) / space.epsilon)
    return squeeze @ block_diag(*gamma_u(dec.unitary, space)).conj().T


def check_weyl_conjugation(t_map, b: PolySymbol, space, n_trust: int = None) -> dict:
    """Conjugation identity for a fixed symplectomorphism T.

    Symbol route: push b to its Weyl symbol, compose with T*, pull back
    to a Wick symbol; this must equal e^{(eps/2) Lambda[T]} [b o T*]
    exactly.  Operator route: conjugate b^Wick by the implementer and
    compare with the quantization of that symbol on the trusted block.
    """
    eps = space.epsilon
    b_tstar = b.compose_rlinear(t_map.adjoint())
    rhs_symbol = exp_lambda_of_map(b_tstar, t_map, eps)
    weyl_route = wick_from_weyl(weyl_from_wick(b, eps).compose_rlinear(t_map.adjoint()), eps)
    symbol_defect = weyl_route.distance_max(rhs_symbol)

    if n_trust is None:
        n_trust = max(0, space.n_max - b.degree() - 4)
    u_op = bogoliubov_implementer(t_map, space)
    lhs = u_op.conj().T @ wick_quantize(b, space) @ u_op
    operator_defect = trusted_block_diff(lhs, wick_quantize(rhs_symbol, space), space, n_trust)
    return {
        "symbol_defect": float(symbol_defect),
        "operator_defect": float(operator_defect),
        "n_trust": int(n_trust),
    }
