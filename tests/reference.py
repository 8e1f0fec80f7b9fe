"""Independent reference routes that the tests check the package against.

Each function recomputes a quantity of the package by a slower,
separately derived route, or checks an identity the expansions rest on:
the occupation index read off the enumeration, dense per-sector ladder
matrices and Gamma(u) built state by state from them, the dense array
of a generator operator, quantization through explicit symmetrizers,
field and Weyl operators, the JSON entries of a symbol one coefficient at a time,
the linear forms <z, xi> and <eta, z>, derivatives, translates and
compositions of a symbol (the last on the full tensor power), the
Poisson-bracket form of lambda^s, the hand-written kernel of Lambda^t
and doubled matrix of phi_s^-1, u_alpha by RK4 on C^d alone, the
leakage gate's Hermite basis and
its eigenvalue at every grid point, the finite-difference derivative of
Lambda, the growth check's propagator from the eigenpairs of the dense
Q^Wick on every state, and the Bogoliubov implementer of a fixed
symplectomorphism.  Nothing here is on the path of the command line
tool.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

import hepp_expand.sectors as sec
from hepp_expand.expansions import Lambda_of_map, Lambda_t, lambda_s
from hepp_expand.flow import _hermite, v_vector
from hepp_expand.fock import _narrow, _parity_blocks, trusted_block_diff, wick_quantize
from hepp_expand.symbols import (
    PolySymbol,
    _grad,
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
def occupation_index(dim: int, n: int) -> dict:
    """Map occupation vector -> position in the canonical enumeration,
    read off the enumeration itself rather than `sectors.rank`."""
    return {occ: k for k, occ in enumerate(sec.occupations(dim, n))}


@lru_cache(maxsize=None)
def annihilators(dim: int, n: int) -> tuple:
    """Mode annihilation matrices a_i mapping sector n >= 1 -> n-1, dense.

    a_i|kappa> = sqrt(kappa_i) |kappa - delta_i>, no epsilon factor; the
    creators a_i^dag from sector n-1 to n are their transposes.
    """
    idx_lo = occupation_index(dim, n - 1)
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


def densify(mat):
    """The dense array of one of the oracle's `_Table` operators, on
    either side of the numpy/CSR cut: its product with the identity."""
    return mat @ np.eye(mat.shape[1], dtype=complex)


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
    idx = occupation_index(dim, n)
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
# the calculus of one symbol

def linear_form_bra(xi) -> PolySymbol:
    """The polynomial <z, xi> (antilinear in z)."""
    xi = np.asarray(xi, dtype=complex)
    dim = xi.shape[0]
    return PolySymbol(dim, {(0, 1): xi.reshape(-1, 1)})


def linear_form_ket(eta) -> PolySymbol:
    """The polynomial <eta, z> (linear in z)."""
    eta = np.asarray(eta, dtype=complex)
    dim = eta.shape[0]
    return PolySymbol(dim, {(1, 0): eta.conj().reshape(1, -1)})


def derivative_poly(b: PolySymbol, m_occ, n_occ) -> PolySymbol:
    """Iterated Wirtinger derivative D_zbar^m D_z^n b as a polynomial."""
    d = b.dim
    axes = np.concatenate([np.repeat(np.arange(d), n_occ),
                           d + np.repeat(np.arange(d), m_occ)])
    vectors = b.vectors
    for i in axes:
        vectors = {m - 1: _grad(c, m, 2 * d, [i])[:, 0]
                   for m, c in vectors.items() if m > 0}
    return PolySymbol._from_vectors(d, vectors)


def translate(b: PolySymbol, z0) -> PolySymbol:
    """The polynomial z -> b(z0 + z): the nilpotent series
    exp(w0 . grad_w) b with w0 = (z0, conj z0)."""
    z0 = np.asarray(z0, dtype=complex)
    w0 = np.concatenate([z0, z0.conj()])
    power = b.vectors
    out = dict(power)
    k = 1
    while power:
        power = {m - 1: (_grad(c, m, 2 * b.dim) @ w0) / k
                 for m, c in power.items() if m > 0}
        for m, c in power.items():
            out[m] = out[m] + c if m in out else c
        k += 1
    return PolySymbol._from_vectors(b.dim, out)


def compose_full_tensor(b: PolySymbol, t_map) -> PolySymbol:
    """b o T on the full tensor power: each order-m vector is spread over
    the (2d)^m tensor, whose positions and multinomials are read off
    itertools.product, and the doubled matrix is contracted into one
    index at a time.  For a stack of P symbols, T is one map or P maps."""
    n = 2 * b.dim
    doubled_map = t_map.doubled()
    out = {}
    for m, c in b.vectors.items():
        index = {combo: k for k, combo in
                 enumerate(itertools.combinations_with_replacement(range(n), m))}
        full = np.array([index[tuple(sorted(word))]
                         for word in itertools.product(range(n), repeat=m)])
        multinomial = np.bincount(full, minlength=len(index))
        rep = np.empty(len(index), dtype=np.int64)
        rep[full] = np.arange(full.size)
        lead = c.shape[1:]
        tensor = (c.T / multinomial).take(full, axis=-1)
        for _ in range(m):
            # contract the leading index; the new one becomes the last
            tensor = tensor.reshape(lead + (n, -1)).mT @ doubled_map
        out[m] = (tensor.reshape(lead + (-1,)).take(rep, axis=-1) * multinomial).T
    return PolySymbol._from_vectors(b.dim, out)


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


def u_alpha_rk4(h) -> np.ndarray:
    """u_alpha on the Hamiltonian's grid by RK4 on the d x d system
    du/dt = -i alpha u alone, one step at a time: each step's increment
    P - I = h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = G(t), K2 = G(t + h/2)(I +
    h/2 K1), K3 = G(t + h/2)(I + h/2 K2), K4 = G(t + h)(I + h K3), is
    applied as u + (P - I) u.  Stacked over the grid."""
    grid, eye = h.grid(), np.eye(h.dim)
    u = np.eye(h.dim, dtype=complex)
    out = [u]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        step = t1 - t0
        g_now, g_mid, g_next = -1j * h.alpha_on([t0, t0 + step / 2, t1])
        k1 = g_now
        k2 = g_mid @ (eye + step / 2 * k1)
        k3 = g_mid @ (eye + step / 2 * k2)
        k4 = g_next @ (eye + step * k3)
        u = u + (step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)) @ u
        out.append(u)
    return np.stack(out)


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
    as one stack.  The knot slopes come from a fresh `_parity_blocks`
    generator, densified at each knot, so nothing here reads the
    stepper's own tables.  Every point it writes is marked exact."""
    grid = stepper.grid
    t, h = grid[k], grid[k + n_h] - grid[k]
    out = np.zeros(n_h)
    out[-1] = max(blk.leakage(u) for blk, u in zip(stepper.blocks, states[-1]))
    if n_h > 1:
        knots = np.array([t, t + h / 2, t + h])
        coeffs = stepper.coefficients(knots)
        fresh = _parity_blocks(stepper.space, stepper.trusted_n)
        inner = grid[k + 1:k + n_h]
        basis = _hermite(knots, np.eye(6)[0::2], np.eye(6)[1::2] / (h / 2), inner)
        pairs = (basis[:, :, None] * basis[:, None, :]).reshape(len(inner), 36)
        for b, blk in enumerate(stepper.blocks):
            ys = []
            for c, state in zip(coeffs, states):
                gen = densify(fresh[b].work.fill(c))
                ys += [state[b][blk.top_lo:], (h / 2) * (gen @ state[b])[blk.top_lo:]]
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
# the growth check on all the states

def growth_ratios_eigh(beta, space, t: float, n_samples: int, rng) -> dict:
    """The growth check's ratios, k = 1, 2, by the full-space route: U(t, 0)
    from the eigenpairs of the dense Q^Wick of beta's symmetric part on
    every state, applied to n_samples <= fock.SAMPLE_CHUNK states drawn as
    one block on sectors <= n_max // 2, the check's first block."""
    sym = (beta + beta.T) / 2.0
    lam, vecs = np.linalg.eigh(wick_quantize(squeezing_hamiltonian_symbol(sym), space))
    u = (vecs * np.exp(-1j * t * lam / space.epsilon)) @ vecs.conj().T
    psi = space.random_state(rng, space.n_max // 2, n_samples)
    weight = (space.number_values() + 1.0)[:, None]
    ratios = {}
    for k in (1, 2):
        bound = math.exp(3.0 ** k * math.sqrt(2.0) * np.linalg.norm(sym) * t) * 1.1
        ratios[k] = float(np.max(np.linalg.norm(weight ** (k / 2) * (u @ psi), axis=0)
                                 / (bound * np.linalg.norm(weight ** (k / 2) * psi, axis=0))))
    return ratios


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
    return squeeze @ loop_gamma_u(dec.unitary, space).conj().T


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
