"""Truncated bosonic Fock space over C^d as a brute-force oracle.

The space keeps every symmetric sector up to a cutoff N_max and shares
the occupation bases of :mod:`hepp_expand.sectors`, so quantized
matrices here and symbol coefficients elsewhere never disagree about
normalization.  Operators are stored as one dense matrix over the
truncated direct sum with sector block views.

Quantization of a plain monomial conj(z)^m z^n is the normally ordered
ladder product eps^((|m|+|n|)/2) prod a_i^dag^{m_i} prod a_i^{n_i}.
That product is a ladder map with at most one nonzero per column
(``sectors.ladder_entries``), scattered straight into the quantized
matrix; a slow reference route through explicit symmetrizers validates
this fast path on tiny sectors (see ``wick_quantize_slow``).

The quantum flow uses the same ladder maps for its pair generator: a
CSR matrix with a pattern fixed per run, whose data at time t is the
pattern values times d(d+1) pair coefficients.  The generator changes
the particle number by 2, so the even and odd sectors evolve as two
separate dense blocks of U.  Only the columns of U that start in the
trusted sectors 0..trusted_n are evolved: they are all that the trusted
block of the conjugated observable and the leakage gate read.  They are
joined into one total_dim x n_cols column block at the stored times,
where Gamma(u_alpha) acts on them sector by sector.
"""

from __future__ import annotations

import math

import numpy as np

from . import sectors as sec
from .errors import DimensionMismatchError, LeakageError
from .flow import QuadraticHamiltonian, integrate_u_alpha
from .symbols import PolySymbol, preset_symbol, squeezing_hamiltonian_symbol

_EPS_DEFAULT = 0.5


class FockSpace:
    """Sectors 0..n_max over C^dim with semiclassical scale epsilon."""

    def __init__(self, dim: int, n_max: int, epsilon: float = _EPS_DEFAULT):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.dim = dim
        self.n_max = n_max
        self.epsilon = float(epsilon)
        self.sector_dims = [sec.sector_dim(dim, n) for n in range(n_max + 1)]
        self.offsets = np.concatenate([[0], np.cumsum(self.sector_dims)])
        self.total_dim = int(self.offsets[-1])

    def sector_slice(self, n: int) -> slice:
        return slice(int(self.offsets[n]), int(self.offsets[n + 1]))

    def span_slice(self, n_top: int) -> slice:
        """States of all sectors 0..n_top."""
        return slice(0, int(self.offsets[n_top + 1]))

    def number_values(self) -> np.ndarray:
        """Particle number per basis state (unscaled)."""
        out = np.empty(self.total_dim)
        for n in range(self.n_max + 1):
            out[self.sector_slice(n)] = n
        return out

    def ladder_product(self, m_occ, n_occ) -> np.ndarray:
        """Dense matrix of prod_i a_i^dag^{m_i} prod_i a_i^{n_i}
        (no epsilon factor) on the truncated space."""
        rows, cols, values = sec.ladder_entries(self.dim, self.n_max, m_occ, n_occ)
        out = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        out[rows, cols] = values
        return out

    def random_state(self, rng: np.random.Generator, n_top: int) -> np.ndarray:
        """Normalized random vector supported on sectors 0..n_top."""
        d_low = int(self.offsets[n_top + 1])
        psi = np.zeros(self.total_dim, dtype=complex)
        psi[:d_low] = rng.standard_normal(d_low) + 1j * rng.standard_normal(d_low)
        return psi / np.linalg.norm(psi)

    def __repr__(self):
        return f"FockSpace(dim={self.dim}, n_max={self.n_max}, epsilon={self.epsilon})"


class FockOperator:
    """Dense operator on a truncated Fock space with sector block views."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: FockSpace, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (space.total_dim, space.total_dim):
            raise ValueError(f"matrix shape {matrix.shape} does not fit the space")
        self.space = space
        self.matrix = matrix

    @classmethod
    def identity(cls, space: FockSpace) -> "FockOperator":
        return cls(space, np.eye(space.total_dim, dtype=complex))

    @classmethod
    def zeros(cls, space: FockSpace) -> "FockOperator":
        return cls(space, np.zeros((space.total_dim, space.total_dim), dtype=complex))

    def _check(self, other):
        if self.space is not other.space and (
                self.space.dim != other.space.dim
                or self.space.n_max != other.space.n_max
                or self.space.epsilon != other.space.epsilon):
            raise DimensionMismatchError("operators live on different Fock spaces")

    def block(self, n_out: int, n_in: int) -> np.ndarray:
        return self.matrix[self.space.sector_slice(n_out), self.space.sector_slice(n_in)]

    def dagger(self) -> "FockOperator":
        return FockOperator(self.space, self.matrix.conj().T)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.space, self.matrix @ other.matrix)

    def __add__(self, other):
        self._check(other)
        return FockOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check(other)
        return FockOperator(self.space, self.matrix - other.matrix)

    def __mul__(self, c):
        return FockOperator(self.space, c * self.matrix)

    __rmul__ = __mul__

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def trusted_block_diff(self, other: "FockOperator", n_trust: int) -> float:
        """Max |entry difference| over rows and columns in sectors <= n_trust.

        The two spaces may have different cutoffs, both at least n_trust:
        sectors 0..n_trust are the same leading block on either side.
        """
        a, b = self.space, other.space
        if a.dim != b.dim or a.epsilon != b.epsilon or n_trust > min(a.n_max, b.n_max):
            raise DimensionMismatchError(
                f"sectors <= {n_trust} are not shared by {a!r} and {b!r}")
        s = a.span_slice(n_trust)
        return float(np.abs(self.matrix[s, s] - other.matrix[s, s]).max())

    def __repr__(self):
        return f"FockOperator(dim={self.space.dim}, n_max={self.space.n_max})"


def wick_quantize(b: PolySymbol, space: FockSpace) -> FockOperator:
    """Quantize a polynomial on the truncated space.

    Per (p, q)-monomial the sector-n block carries the factor
    sqrt(n!(n+q-p)!)/(n-p)! eps^((p+q)/2) on the symmetrized extension
    of the coefficient; in ladder form that is the normally ordered
    product written above, summed over plain-coefficient entries.
    """
    if b.dim != space.dim:
        raise DimensionMismatchError(f"dim {b.dim} vs {space.dim}")
    deg = b.degree()
    if deg > space.n_max:
        raise ValueError(f"symbol degree {deg} exceeds the sector cutoff {space.n_max}")
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for (p, q), coeffs in b._coeffs().items():
        scale = space.epsilon ** ((p + q) / 2.0)
        occ_q = sec.occupations(space.dim, q)
        occ_p = sec.occupations(space.dim, p)
        for mi in range(coeffs.shape[0]):
            for ni in range(coeffs.shape[1]):
                val = coeffs[mi, ni]
                if val != 0:
                    rows, cols, values = sec.ladder_entries(
                        space.dim, space.n_max, occ_q[mi], occ_p[ni])
                    out[rows, cols] += (val * scale) * values
    return FockOperator(space, out)


def wick_quantize_slow(b: PolySymbol, space: FockSpace) -> FockOperator:
    """Reference quantization through explicit symmetrizer embeddings.

    Builds each block as the stated combinatorial factor times
    (coefficient vee identity) in full tensor coordinates.  Exponential
    in n_max; intended only to validate the fast path on tiny spaces.
    """
    if b.dim != space.dim:
        raise DimensionMismatchError(f"dim {b.dim} vs {space.dim}")
    dim = space.dim
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for (p, q), coeff in b.terms.items():
        tensor = sec.onb_embedding(dim, q) @ coeff @ sec.onb_embedding(dim, p).conj().T
        scale = space.epsilon ** ((p + q) / 2.0)
        for n_in in range(p, space.n_max + 1):
            n_out = n_in - p + q
            if n_out > space.n_max:
                continue
            factor = math.sqrt(math.factorial(n_in) * math.factorial(n_out)) \
                / math.factorial(n_in - p)
            big = np.kron(tensor, np.eye(dim ** (n_in - p)))
            blk = sec.onb_embedding(dim, n_out).conj().T @ big @ sec.onb_embedding(dim, n_in)
            out[space.sector_slice(n_out), space.sector_slice(n_in)] += factor * scale * blk
    return FockOperator(space, out)


def field_and_weyl(xi, space: FockSpace):
    """Field operator of sqrt(2) Re<z, xi> and its Weyl exponential."""
    from scipy.linalg import expm

    xi = np.asarray(xi, dtype=complex)
    phi = wick_quantize(preset_symbol("field", space.dim, xi=xi), space)
    weyl = FockOperator(space, expm(1j * phi.matrix))
    return phi, weyl


def gamma_u(u, space: FockSpace, tol: float = 1e-10) -> FockOperator:
    """Second quantization: block-diagonal sector-wise tensor powers of u.

    Sector n follows from sector n-1 by the ladder recursion
    Gamma(u)|k> = (sum_j u_ji a_j^dag) Gamma(u)|k - e_i> / sqrt(k_i),
    with i the first occupied mode of k: one matmul per mode and sector.
    """
    u = np.asarray(u, dtype=complex)
    if np.linalg.norm(u.conj().T @ u - np.eye(space.dim), 2) > tol:
        raise ValueError("gamma_u requires a unitary within 1e-10")
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    out[0, 0] = 1.0
    blk = out[:1, :1]
    for n in range(1, space.n_max + 1):
        low = sec.occupation_array(space.dim, n - 1)
        s = space.sector_slice(n)
        new = out[s, s]
        for i in range(space.dim):
            # k = kappa + e_i has first occupied mode i iff kappa_j = 0 for j < i
            sel = np.flatnonzero(~low[:, :i].any(axis=1))
            new[:, sec.raise_map(space.dim, n - 1, i)[sel]] = (
                sec.creation_field(u[:, i], n - 1) @ blk[:, sel]) / np.sqrt(low[sel, i] + 1)
        blk = new
    return FockOperator(space, out)


class QuantumFlowResult:
    """Quantum flow on the truncated space at requested sample times.

    Holds the columns of U(t, 0) that start in sectors 0..trusted_n: a
    total_dim x n_cols block per stored time, n_cols the dimension of
    those sectors.
    """

    def __init__(self, space, times, columns, leakage_trace, trusted_n, leak_threshold):
        self.space = space
        self.times = times
        self._columns = columns
        self.leakage_trace = leakage_trace
        self.trusted_n = trusted_n
        self.leak_threshold = leak_threshold

    def u_at(self, t: float) -> np.ndarray:
        """The evolved columns of U(t, 0) (sectors <= trusted_n)."""
        for ts, cols in zip(self.times, self._columns):
            if abs(ts - t) <= 1e-9 * max(1.0, abs(t)):
                return cols
        raise ValueError(f"t={t} was not among the stored sample times {self.times}")

    def max_leakage(self) -> float:
        return float(self.leakage_trace.max()) if len(self.leakage_trace) else 0.0

    def unitarity_defect(self, t: float, n_top: int = None) -> float:
        """Norm of U*U - I on the columns of sectors <= n_top (default
        trusted_n); columns that were not evolved cannot be checked."""
        if n_top is None:
            n_top = self.trusted_n
        if n_top > self.trusted_n:
            raise ValueError(f"n_top {n_top} exceeds the evolved sectors <= {self.trusted_n}")
        u = self.u_at(t)[:, self.space.span_slice(n_top)]
        return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1]), 2))


def quantum_flow(hamiltonian: QuadraticHamiltonian, space: FockSpace,
                 t_end: float = None, dt: float = None, store=None,
                 trusted_n: int = None, leak_threshold: float = 1e-6) -> QuantumFlowResult:
    """Integrate the quantum flow i eps dU/dt = Q_t^Wick U with RK4.

    Only the columns of U that start in sectors 0..trusted_n (default
    n_max - 4) are evolved; the result holds that total_dim x n_cols
    block.  Runs the beta-only generator (rotated by u_alpha when alpha
    is present) and composes with the second-quantized unitary path,
    sector by sector, at the stored times.  The generator is evaluated
    once per distinct time, at the grid points and the step midpoints,
    and applied to the even- and odd-sector columns separately.  Leakage
    of the evolved columns into the top two sectors is recorded each
    step and aborts the run above the threshold.
    """
    from scipy import sparse

    if hamiltonian.dim != space.dim:
        raise DimensionMismatchError(f"dim {hamiltonian.dim} vs {space.dim}")
    t0 = hamiltonian.t_start
    if t_end is None:
        t_end = hamiltonian.t_end
    if dt is None:
        dt = hamiltonian.dt
    if store is None:
        store = [t_end]
    n_steps = max(1, int(round((t_end - t0) / dt)))
    grid = t0 + (t_end - t0) / n_steps * np.arange(n_steps + 1)
    store_idx = {}
    for ts in store:
        k = int(np.argmin(np.abs(grid - ts)))
        if abs(grid[k] - ts) > 1e-9 * max(1.0, abs(ts)):
            raise ValueError(f"store time {ts} is not on the integration grid")
        store_idx[k] = ts

    has_alpha = not hamiltonian.alpha.is_zero()
    u_path = integrate_u_alpha(hamiltonian) if has_alpha else None

    if trusted_n is None:
        trusted_n = space.n_max - 4
    trusted_n = max(0, min(trusted_n, space.n_max))
    blocks = _parity_blocks(space, trusted_n)
    coefficients = _pair_coefficients(hamiltonian, u_path)

    def generator(t, into):
        # refill a fixed-pattern CSR set in place; only its data depends on t
        c = coefficients(t)
        for mat, blk in zip(into, blocks):
            np.multiply(blk.values, c[blk.term], out=mat.data)

    g_now, g_mid, g_next = (
        [sparse.csr_matrix((np.zeros(len(blk.values), dtype=complex), blk.indices, blk.indptr),
                           shape=blk.shape) for blk in blocks] for _ in range(3))

    # the trusted columns are a prefix of each parity block
    us = [np.eye(len(blk.states), blk.trusted_hi, dtype=complex) for blk in blocks]
    leak = np.zeros(n_steps + 1)
    stored = {}
    if 0 in store_idx:
        stored[0] = _assemble(space, blocks, us)
    generator(grid[0], g_now)
    for k in range(n_steps):
        t = grid[k]
        h = grid[k + 1] - t
        generator(t + h / 2, g_mid)
        generator(grid[k + 1], g_next)
        for b, u in enumerate(us):
            k1 = g_now[b] @ u
            k2 = g_mid[b] @ (u + h / 2 * k1)
            k3 = g_mid[b] @ (u + h / 2 * k2)
            k4 = g_next[b] @ (u + h * k3)
            us[b] = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        g_now, g_next = g_next, g_now
        # the leaked block is block-diagonal in parity: its 2-norm is the
        # larger of the two block norms
        leak[k + 1] = max(blk.leakage(u) for blk, u in zip(blocks, us))
        if leak[k + 1] > leak_threshold:
            raise LeakageError(
                f"top-sector leakage {leak[k + 1]:.3e} exceeded {leak_threshold:.1e} "
                f"at t={grid[k + 1]:.4f}; raise n_max or shorten the time span",
                diagnostics={"t": float(grid[k + 1]), "leakage": float(leak[k + 1]),
                             "n_max": space.n_max, "trusted_n": trusted_n})
        if k + 1 in store_idx:
            stored[k + 1] = _assemble(space, blocks, us)

    times, columns = [], []
    for k in sorted(stored):
        t = grid[k]
        cols = stored[k]
        if has_alpha:
            g = gamma_u(u_path.at(t), space)
            for n in range(space.n_max + 1):
                s = space.sector_slice(n)
                cols[s] = g.block(n, n) @ cols[s]
        times.append(float(t))
        columns.append(cols)
    return QuantumFlowResult(space, times, columns, leak, trusted_n, leak_threshold)


class _ParityBlock:
    """States of one particle-number parity, with the pair generator's
    fixed CSR pattern on them.

    Entry j of the pattern carries values[j] times the pair coefficient
    number term[j]; within the block, states keep their direct-sum order,
    so the trusted columns are a prefix and the top-sector rows a suffix.
    """

    def __init__(self, states, rows, cols, values, term, top_lo, trusted_hi):
        self.states = states
        n = len(states)
        local = np.empty(states.max() + 1, dtype=np.int64)
        local[states] = np.arange(n)
        rows, cols = local[rows], local[cols]
        order = np.lexsort((cols, rows))
        self.indices = cols[order]
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        self.values = values[order]
        self.term = term[order]
        self.shape = (n, n)
        self.top_lo = top_lo
        self.trusted_hi = trusted_hi

    def leakage(self, u) -> float:
        """2-norm of the top-sector rows of the evolved columns u, from the
        largest eigenvalue of the smaller of the two Gram matrices."""
        leaked = u[self.top_lo:]
        if not leaked.size:
            return 0.0
        if leaked.shape[0] <= leaked.shape[1]:
            gram = leaked @ leaked.conj().T
        else:
            gram = leaked.conj().T @ leaked
        return math.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))


def _parity_blocks(space: FockSpace, trusted_n: int) -> list:
    """Even- and odd-sector blocks of the pair generator on the space.

    Pair terms change the particle number by 2, so no entry couples the
    two parities.  Term k < P (P pair occupations) is the annihilator
    a^kappa_k, term P + k its adjoint.
    """
    pairs = sec.occupations(space.dim, 2)
    zero = (0,) * space.dim
    rows, cols, values, term = [], [], [], []
    for k, kappa in enumerate(pairs):
        r, c, v = sec.ladder_entries(space.dim, space.n_max, zero, kappa)
        rows += [r, c]
        cols += [c, r]
        values += [v, v]
        term += [np.full(len(v), k), np.full(len(v), len(pairs) + k)]
    rows, cols, values, term = map(np.concatenate, (rows, cols, values, term))
    number = space.number_values()
    top = max(space.n_max - 1, 0)
    blocks = []
    for parity in (0, 1):
        states = np.flatnonzero(number % 2 == parity)
        if not len(states):
            continue
        mine = number[rows] % 2 == parity
        blocks.append(_ParityBlock(
            states, rows[mine], cols[mine], values[mine], term[mine],
            top_lo=int(np.count_nonzero(number[states] < top)),
            trusted_hi=int(np.count_nonzero(number[states] <= trusted_n))))
    return blocks


def _pair_coefficients(hamiltonian: QuadraticHamiltonian, u_path):
    """t -> coefficients of the generator -(1/2)(g - g^dag), where
    g = sum_ab conj(beta_ab) a_a a_b and beta is rotated by u_alpha(t)
    when alpha is present; ordered as the terms of `_parity_blocks`."""
    pairs = sec.occupations(hamiltonian.dim, 2)
    ia, ib = np.array([[i for i, k in enumerate(kappa) for _ in range(k)]
                       for kappa in pairs]).reshape(len(pairs), 2).T
    # a != b: a_a a_b = a_b a_a collects beta_ab and beta_ba
    weight = np.where(ia == ib, 0.5, 1.0)

    def coefficients(t):
        beta = hamiltonian.beta_matrix(t)
        if u_path is not None:
            u = u_path.at(t)
            beta = u.conj().T @ beta @ np.conj(u)
        w = weight * np.conj(beta[ia, ib] + beta[ib, ia])
        return np.concatenate([-0.5 * w, 0.5 * np.conj(w)])

    return coefficients


def _assemble(space: FockSpace, blocks, us) -> np.ndarray:
    """The parity blocks' evolved columns as one total_dim x n_cols block."""
    cols = np.zeros((space.total_dim, sum(blk.trusted_hi for blk in blocks)), dtype=complex)
    for blk, u in zip(blocks, us):
        cols[np.ix_(blk.states, blk.states[:blk.trusted_hi])] = u
    return cols


def conjugate_observable(qflow: QuantumFlowResult, b: PolySymbol,
                         space: FockSpace, t: float) -> FockOperator:
    """U(0,t) b^Wick U(t,0) on the evolved sectors 0..trusted_n.

    That block is U[:, s]^* b^Wick U[:, s] over the evolved columns s;
    it is returned as an operator on the space with cutoff trusted_n.
    """
    flow_space = qflow.space
    if (space.dim, space.n_max, space.epsilon) != (
            flow_space.dim, flow_space.n_max, flow_space.epsilon):
        raise DimensionMismatchError(f"{space!r} is not the flow's {flow_space!r}")
    u = qflow.u_at(t)
    block = u.conj().T @ wick_quantize(b, space).matrix @ u
    return FockOperator(FockSpace(space.dim, qflow.trusted_n, space.epsilon), block)


# ---------------------------------------------------------------------------
# inequality checks

def _beta_norm(beta_mat) -> float:
    # 2-vector norm of beta equals the HS norm of its coordinate matrix
    return float(np.linalg.norm(beta_mat, "fro"))


def check_estimates(beta_mat, space: FockSpace, ks=(1, 2), n_samples: int = 100,
                    rng: np.random.Generator = None) -> dict:
    """Sample the generator bound and the commutator form bound.

    Ratios are LHS over the stated RHS; every row should stay <= 1.
    With beta = 0 both sides vanish and rows are marked vacuous.
    """
    rng = rng or np.random.default_rng(0)
    beta_mat = np.asarray(beta_mat, dtype=complex)
    bnorm = _beta_norm(beta_mat)
    eps = space.epsilon
    report = {"n_samples": n_samples, "beta_norm": bnorm, "vacuous": bnorm == 0.0}
    if bnorm == 0.0:
        report["max_ratio_generator"] = 0.0
        report["max_ratio_commutator"] = {int(k): 0.0 for k in ks}
        return report
    q_op = wick_quantize(squeezing_hamiltonian_symbol(beta_mat), space).matrix / eps
    nvec = space.number_values() / eps + 1.0
    gen_max = 0.0
    comm_max = {int(k): 0.0 for k in ks}
    for _ in range(n_samples):
        psi = space.random_state(rng, space.n_max - 2)
        qpsi = q_op @ psi
        gen_max = max(gen_max, np.linalg.norm(qpsi)
                      / (1.5 * bnorm * np.linalg.norm(nvec * psi)))
        for k in ks:
            wpsi = (nvec ** k) * psi
            lhs = abs(2.0 * np.imag(np.vdot(qpsi, wpsi)))
            rhs = (3.0 ** k) * math.sqrt(2.0) * bnorm * np.real(np.vdot(psi, wpsi))
            comm_max[int(k)] = max(comm_max[int(k)], lhs / rhs)
    report["max_ratio_generator"] = float(gen_max)
    report["max_ratio_commutator"] = {k: float(v) for k, v in comm_max.items()}
    return report


def check_growth_bound(beta_mat, space: FockSpace, t: float, ks=(1, 2),
                       n_samples: int = 50, rng: np.random.Generator = None,
                       dt: float = 1e-3, slack: float = 0.1) -> dict:
    """Soft growth check for the time-independent flow:
    ||(N/eps+1)^{k/2} U psi|| <= e^{3^k sqrt(2) ||beta|| t} ||(N/eps+1)^{k/2} psi||
    with a truncation slack on the right-hand side."""
    rng = rng or np.random.default_rng(0)
    beta_mat = np.asarray(beta_mat, dtype=complex)
    bnorm = _beta_norm(beta_mat)
    h = QuadraticHamiltonian(space.dim, beta=beta_mat, t_end=t, dt=dt)
    # the random states live on sectors <= n_top: evolve just those columns
    n_top = space.n_max // 2
    qf = quantum_flow(h, space, store=[t], trusted_n=n_top, leak_threshold=np.inf)
    u = qf.u_at(t)
    nvec = space.number_values() / space.epsilon + 1.0
    out = {"t": t, "beta_norm": bnorm, "slack": slack}
    ratios = {}
    for k in ks:
        bound = math.exp((3.0 ** k) * math.sqrt(2.0) * bnorm * t) * (1.0 + slack)
        worst = 0.0
        for _ in range(n_samples):
            psi = space.random_state(rng, n_top)
            lhs = np.linalg.norm((nvec ** (k / 2.0)) * (u @ psi[:u.shape[1]]))
            rhs = bound * np.linalg.norm((nvec ** (k / 2.0)) * psi)
            worst = max(worst, lhs / rhs)
        ratios[int(k)] = float(worst)
    out["max_ratio"] = ratios
    return out
