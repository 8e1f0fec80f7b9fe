"""Truncated bosonic Fock space over C^d as a brute-force oracle.

The space keeps every symmetric sector up to a cutoff N_max and shares
the occupation bases of :mod:`hepp_expand.sectors`, so quantized
matrices here and symbol coefficients elsewhere never disagree about
normalization.  The oracle's operators are `_Table`s of ladder maps
applied to blocks of vectors; dense arrays over the truncated direct
sum (``wick_quantize``, ``wick_block``, ``FockSpace.ladder_product``)
serve the comparison on the trusted block and the tests, and
``gamma_u`` returns the sector blocks of Gamma(u).

Quantization of a plain monomial conj(z)^m z^n is the normally ordered
ladder product eps^((|m|+|n|)/2) prod a_i^dag^{m_i} prod a_i^{n_i}.
That product is a ladder map with at most one nonzero per row and per
column (``sectors.ladder_entries``, cached per cutoff and monomial), so
the nonzeros of b^Wick on sectors 0..n_top are the cached entries of
each monomial with a nonzero coefficient, scaled by it.  They are read
two ways: summed into a dense matrix (``wick_quantize``, or its leading
block on sectors 0..n_top alone, ``wick_block``), or as a `_Table`, one
slot per monomial, applied to vectors (``wick_apply``,
``conjugate_observable``).

The quantum flow uses the same ladder maps for its pair generator: a
matrix with a pattern fixed per run, whose nonzeros at time t are the
pattern values times d(d+1) pair coefficients.  The generator changes
the particle number by 2, so the even and odd sectors evolve as two
separate dense blocks of U.  Only the columns of U that start in the
trusted sectors 0..trusted_n are evolved: they are all that the trusted
block of the conjugated observable and the leakage gate read.  The flow
runs in the interaction picture of alpha, on the Hamiltonian's own grid
up to one grid time t, for every Hamiltonian, alpha zero included.  Its
u_alpha, i du/ds = alpha_s u on C^d, is integrated here from alpha
itself, by the generic RK4 and Hermite rule of :mod:`hepp_expand.flow`
but not by the classical flow that both expansion engines share, so a
slip in how that flow reads alpha cannot cancel in the comparison.  At
t, Gamma(u_alpha) = e^{i phi n} exp(dGamma(H)), u_alpha = e^{i phi} e^H,
acts on each parity block: dGamma(H) = sum_ij H_ij a_i^dag a_j is one
more `_Table`, with a slot per (i, j), and its exponential is the
flow's Taylor kernel.  The result keeps the two parity blocks, each
its states by its trusted columns; the total_dim x n_cols layout, half
of it zeros between the parities, is assembled only when the result's
``columns`` property is read, and nothing here reads it.  The
comparison stage reads the parity blocks: the observable acts on them
through its blocks between the parities (the two that couple them
skipped for an even observable), and their unitarity defect is the
larger of `flow.unitarity_defect` on the two blocks.  Each pair term
of the generator is a ladder map too, so a parity block's generator is
a `_Table` with one slot per term, as b^Wick is one with a slot per
monomial of each parity pair's degree parity and dGamma(H) one with a
slot per mode pair: one operator type, held once in the form its
product reads, a neighbour table whose product is a gather of rows and
one batched product on a space of at most _NUMPY_MAX_STATES states,
where the oracle never imports scipy, and a CSR matrix alone above.

One stepper advances the columns by the fourth-order commutator-free
Magnus step CF4 (Blanes & Moan 2006), reading the pair coefficients of
all six Gauss times of a step-doubling attempt in one call, and
refills each parity block's one generator table in place, for each
exponential and at each knot of the leakage gate, whose slopes are the
top-sector rows of its products.  A step spans several grid points,
sized by step doubling; each exponential acts on the columns as a
Taylor series whose length follows from the generator's exact 1-norm
and a remainder target: the unit roundoff for the two half steps whose
columns are kept, a thousandth of the step's error budget for the full
step that only feeds the error estimate.  The leakage gate reads every
grid point: exactly at step ends, from the flow's cubic Hermite rule
`flow._hermite` in between.  A step that comes within a factor 10 of
the leakage threshold is retried as one grid step, so every value from
a tenth of the threshold up, and the abort, is taken at a step end.
The gate is exact wherever it decides something: it bounds every inner
point by a Frobenius norm from the knot rows' 6 x 6 inner products,
bounds again by Gershgorin row sums the points that bound leaves open,
and takes an eigenvalue only where both leave it open.  Elsewhere it
keeps the smaller bound, and ``leakage_exact`` marks which points are
which.  The real Hermite basis interpolates the knot rows' float view
by real products, with no complex cast of the basis.

The inequality checks read the flow's generator too, not a second
quantization of Q_beta: `_parity_blocks` on all the states, filled once
with the `_pair_weights` of beta's symmetric part, is
Q_beta^Wick / eps = i G block by block.  `check_estimates` applies it to
the sampled states, and `check_growth_bound` takes U(t, 0) from the
eigenpairs of each block's Hermitian i G, so no operator on the whole
space is formed and no `eigh` reads more than one parity block.
"""

from __future__ import annotations

import math

import numpy as np

from . import sectors as sec
from .errors import DimensionMismatchError, LeakageError, SymplecticityError
from .flow import QuadraticHamiltonian, _hermite, _linear_rk4, grid_index, unitarity_defect
from .symbols import PolySymbol
from .symplectic import euclidean_norm

_EPS_DEFAULT = 0.5
_UNITARY_TOL = 1e-10
# The most states of a space on which the oracle runs on numpy alone, its
# `_Table` products as gathers, not CSR products; a fresh `oracle` at d=2,
# N=24 without the scipy.sparse import took 0.28 s and 38 MB peak RSS, not
# 0.51 s and 56 MB.  Warm `quantum_flow` as `oracle` runs it (quartic
# observable, trusted sectors <= N - 8), tables over CSR, median of 21
# alternating pairs on a 2-vCPU Xeon: d=2, N=8 (45 states) 0.92, N=16
# (153) 0.98, N=20 (231) 0.98, N=24 (325) 1.10, d=3, N=10 (286) 1.07;
# above the cut d=2, N=28 (435) 1.22, d=3, N=12 (455) 1.19, d=4, N=8
# (495) 1.05.
_NUMPY_MAX_STATES = 400


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
        return np.repeat(np.arange(self.n_max + 1, dtype=float), self.sector_dims)

    def ladder_product(self, m_occ, n_occ) -> np.ndarray:
        """Dense matrix of prod_i a_i^dag^{m_i} prod_i a_i^{n_i}
        (no epsilon factor) on the truncated space."""
        rows, cols, values = sec.ladder_entries(self.dim, self.n_max, tuple(map(int, m_occ)),
                                                tuple(map(int, n_occ)))
        out = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        out[rows, cols] = values
        return out

    def random_state(self, rng: np.random.Generator, n_top: int,
                     samples: int = None) -> np.ndarray:
        """Normalized random vector supported on sectors 0..n_top.

        Given `samples`, a (total_dim, samples) block of such vectors, drawn
        at once; one vector is the draw of a block of one, from the same
        random stream.
        """
        shape = (int(self.offsets[n_top + 1]),) + (() if samples is None else (samples,))
        psi = np.zeros((self.total_dim,) + shape[1:], dtype=complex)
        psi[:shape[0]] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return psi / euclidean_norm(psi.T)

    def __repr__(self):
        return f"FockSpace(dim={self.dim}, n_max={self.n_max}, epsilon={self.epsilon})"


def trusted_block_diff(a: np.ndarray, b: np.ndarray, space: FockSpace, n_trust: int) -> float:
    """Max |entry difference| of two operator arrays over the rows and
    columns of sectors <= n_trust of the space's modes.

    The arrays may come from spaces with different cutoffs, both at least
    n_trust: sectors 0..n_trust are the same leading block on either side.
    """
    n = math.comb(space.dim + n_trust, n_trust)
    if min(a.shape + b.shape) < n:
        raise DimensionMismatchError(
            f"sectors <= {n_trust} ({n} states) are not covered by arrays of shape "
            f"{a.shape} and {b.shape}")
    return float(np.abs(a[:n, :n] - b[:n, :n]).max())


def _wick_entries(b: PolySymbol, space: FockSpace, n_top: int):
    """Ladder entries (rows, cols, values, maps) of b^Wick on sectors
    0..n_top, one map per monomial with a nonzero coefficient, degree by
    degree, and the coefficients of the maps: entry j carries values[j]
    times the coefficient of map maps[j], and entries at one position
    are still to be summed.  A monomial of degree above n_top has no
    entry there."""
    if b.dim != space.dim:
        raise DimensionMismatchError(f"dim {b.dim} vs {space.dim}")
    maps, coeffs = [], []
    for m, c in b.vectors.items():
        occ, scale = sec.occupations(2 * space.dim, m), space.epsilon ** (m / 2.0)
        # w^kappa = conj(z)^mu z^nu for the doubled occupation kappa = (nu, mu)
        for j in np.flatnonzero(c):
            maps.append(sec.ladder_entries(space.dim, n_top, occ[j][space.dim:], occ[j][:space.dim]))
            coeffs.append(c[j] * scale)
    return _stack(maps), np.array(coeffs, dtype=complex)


def _stack(maps):
    """The ladder entries (rows, cols, values, map numbers) of a list of
    ladder maps (rows, cols, values), map k numbered k."""
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    rows, cols, values = (np.concatenate(x) for x in zip(empty, *maps))
    return rows, cols, values, np.repeat(np.arange(len(maps)), [len(v) for _, _, v in maps])


def _check_degree(b: PolySymbol, space: FockSpace):
    """An operator on the whole truncated space needs all of b's terms."""
    deg = b.degree()
    if deg > space.n_max:
        raise ValueError(f"symbol degree {deg} exceeds the sector cutoff {space.n_max}")


def wick_block(b: PolySymbol, space: FockSpace, n_top: int) -> np.ndarray:
    """The leading block of b^Wick on sectors 0..n_top, dense.

    It does not depend on the cutoff of the space as long as that is at
    least n_top; monomials of degree above n_top contribute nothing.
    """
    if not 0 <= n_top <= space.n_max:
        raise ValueError(f"n_top {n_top} is outside the sectors 0..{space.n_max}")
    n = space.span_slice(n_top).stop
    (rows, cols, values, maps), coeffs = _wick_entries(b, space, n_top)
    out = np.zeros(n * n, dtype=complex)
    np.add.at(out, rows * n + cols, values * coeffs[maps])
    return out.reshape(n, n)


def wick_quantize(b: PolySymbol, space: FockSpace) -> np.ndarray:
    """Quantize a polynomial on the truncated space, as a dense matrix.

    Per (p, q)-monomial the sector-n block carries the factor
    sqrt(n!(n+q-p)!)/(n-p)! eps^((p+q)/2) on the symmetrized extension
    of the coefficient; in ladder form that is the normally ordered
    product written above, one per nonzero entry of the symbol's
    doubled-variable vectors.
    """
    _check_degree(b, space)
    return wick_block(b, space, space.n_max)


def wick_apply(b: PolySymbol, space: FockSpace, vectors: np.ndarray) -> np.ndarray:
    """b^Wick @ vectors on the truncated space, for one vector or a block
    of them: the product of a `_Table` with one slot per monomial, never
    forming the dense quantization."""
    _check_degree(b, space)
    entries, coeffs = _wick_entries(b, space, space.n_max)
    states = np.arange(space.total_dim)
    return _Table(space, entries, len(coeffs), states, states).fill(coeffs) @ vectors


def gamma_u(u, space: FockSpace) -> list:
    """Second quantization: the sector blocks 0..n_max of Gamma(u), which
    is block-diagonal with the n-th tensor power of u on sector n.

    Block n is Gamma(u) applied to the identity on sector n by `_gamma`,
    as `quantum_flow` applies it to the evolved columns.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (space.dim, space.dim):
        raise DimensionMismatchError(f"u of shape {u.shape} on a space of dim {space.dim}")
    # NaN, from a non-finite u, fails too
    if not unitarity_defect(u) <= _UNITARY_TOL:
        raise ValueError(f"gamma_u requires a unitary within {_UNITARY_TOL:g}")
    return [_gamma(space, u, np.arange(space.offsets[n], space.offsets[n + 1]),
                   np.eye(space.sector_dims[n], dtype=complex)) for n in range(space.n_max + 1)]


def _log_unitary(u):
    """(phi, H, spread) with u = e^{i phi} e^H, from the eigenvalues
    w_j = |w_j| e^{i theta_j} of u.

    The branch cut of the angles sits in the widest gap between them, so
    angles close on either side of it get close logs.  Re phi is the
    midpoint of the arc they span and Im phi minus the mean log|w_j|
    (0 for a unitary u), so H = V diag(log w_j - i phi) V^-1 is
    anti-Hermitian to within u's unitarity defect, spread is the largest
    |log w_j - i phi|, and at d = 1, H = 0.
    """
    w, v = np.linalg.eig(u)
    ordered = np.sort(np.angle(w))
    k = int(np.argmax(np.diff(ordered, append=ordered[0] + 2.0 * np.pi)))
    # the arc runs from the angle after the widest gap to the one before it
    start = ordered[(k + 1) % len(ordered)]
    half = (ordered[k] - start) % (2.0 * np.pi) / 2.0
    mag = np.log(np.abs(w))
    logs = mag - mag.mean() + 1j * ((np.angle(w) - start) % (2.0 * np.pi) - half)
    return start + half - 1j * mag.mean(), (v * logs) @ np.linalg.inv(v), float(np.abs(logs).max())


def _gamma(space: FockSpace, u, states, g) -> np.ndarray:
    """Gamma(u) g = e^{i phi n} exp(dGamma(H)) g for columns g on `states`,
    whole sectors of the space, with u = e^{i phi} e^H (`_log_unitary`).

    dGamma(H) = sum_ij H_ij a_i^dag a_j keeps every sector: a `_Table`
    with one slot per (i, j), applied by `_expm_apply` at the unit
    roundoff with the top particle number times the spread as its norm,
    the spectral norm of an anti-Hermitian H.
    """
    phi, h, spread = _log_unitary(u)
    ones = sec.occupations(space.dim, 1)
    terms = [sec.ladder_entries(space.dim, space.n_max, ei, ej) for ei in ones for ej in ones]
    number = space.number_values()[states]
    table = _Table(space, _stack(terms), len(terms), states, states).fill(h.ravel())
    g = _expm_apply(table, number.max() * spread, g, _UNIT_ROUNDOFF)
    return np.exp(1j * phi * number)[:, None] * g


class QuantumFlowResult:
    """Quantum flow on the truncated space at one time t.

    Holds the columns of U(t, 0) that start in sectors 0..trusted_n,
    Gamma(u_alpha) included, as the parity blocks the flow evolved them
    in: ``parity_blocks`` is a list of pairs (states, u), one per
    particle-number parity with such columns, of that parity's states in
    direct-sum order and the dense array of U on those rows and on the
    columns of its first u.shape[1] states (the trusted prefix); no
    entry of U links the two parities.  ``columns`` assembles
    the direct-sum layout on each read.  Also holds the leakage at every
    grid point up to t: exact where ``leakage_exact`` is set, an upper
    bound below the exact maximum elsewhere.  ``integrator`` counts the
    kept CF4 steps, the attempts rejected by the error estimate and the
    steps retried as one grid step at the leakage gate (``refined``), and
    sums the error estimates of the steps kept (``time_error``).
    """

    def __init__(self, space, parity_blocks, leakage_trace, leakage_exact, trusted_n, integrator):
        self.space, self.parity_blocks, self.trusted_n = space, parity_blocks, trusted_n
        self.leakage_trace, self.leakage_exact = leakage_trace, leakage_exact
        self.integrator = integrator

    @property
    def columns(self) -> np.ndarray:
        """The evolved columns as one total_dim x n_cols block, n_cols the
        dimension of sectors 0..trusted_n, with exact zeros between the
        parities: a new array on each read, for inspection."""
        cols = np.zeros((self.space.total_dim, self.space.span_slice(self.trusted_n).stop), complex)
        for states, u in self.parity_blocks:
            cols[np.ix_(states, states[:u.shape[1]])] = u
        return cols

    def max_leakage(self) -> float:
        return float(self.leakage_trace.max()) if len(self.leakage_trace) else 0.0

    def _parities(self, n_top: int = None):
        """Per parity block with columns among sectors <= n_top (default
        trusted_n): its states, which are the only rows its columns reach,
        those columns, and a view of U on those rows and columns."""
        n_top = self.trusted_n if n_top is None else n_top
        if n_top > self.trusted_n:
            raise ValueError(f"n_top {n_top} exceeds the evolved sectors <= {self.trusted_n}")
        for states, u in self.parity_blocks:
            k = np.searchsorted(states, self.space.span_slice(n_top).stop)
            if k:
                yield states, states[:k], u[:, :k]

    def unitarity_defect(self, n_top: int = None) -> float:
        """Norm ||U*U - I||_2 on the columns of sectors <= n_top (default
        trusted_n); columns that were not evolved cannot be checked.

        Columns of one parity have their rows in the sectors of that
        parity only, so U*U is block-diagonal in parity with exact zeros
        across: the norm is the larger of `flow.unitarity_defect` on the
        two parity blocks, each on that parity's rows only.
        """
        return max((unitarity_defect(u) for _, _, u in self._parities(n_top)), default=0.0)


def quantum_flow(hamiltonian: QuadraticHamiltonian, space: FockSpace, t: float = None,
                 trusted_n: int = None, leak_threshold: float = 1e-6,
                 tol: float = 1e-9) -> QuantumFlowResult:
    """Integrate the quantum flow i eps dU/dt = Q_t^Wick U up to time t.

    The flow runs on the Hamiltonian's grid from t_start to t (default
    t_end), which must be a grid point.  Only the columns of U that
    start in sectors 0..trusted_n (default n_max - 4) are evolved; the
    result holds them as the even- and odd-sector parity blocks they are
    evolved in (``QuantumFlowResult.parity_blocks``).  Runs the beta-only
    generator, beta rotated by u_alpha, on each parity block and composes
    with the second-quantized unitary path at t: Gamma(u_alpha) acts on
    the columns of each parity block as the exponential of a `_Table`,
    e^{i phi n} exp(dGamma(H)) for u_alpha = e^{i phi} e^H (`_gamma`),
    and no dense block of a sector is formed.  u_alpha solves
    i du/ds = alpha_s u, u(t_start) = I, by RK4 on C^d (`flow._linear_rk4`)
    on the grid up to t, one step at least, and is read between grid
    points by the cubic Hermite rule `flow._hermite`; with alpha zero it
    is exactly I at every time, and Gamma(I) leaves the columns as they
    are.  It must be unitary at t within 1e-10, the bound of `gamma_u`: a
    path that drifted further, or overflowed, raises SymplecticityError
    before any step is taken.

    The integrator is the commutator-free Magnus step CF4, whose step is
    a multiple of the grid step chosen by step doubling so that the
    estimated global error stays below ``tol``.  The step counts and the
    summed error estimate are in ``QuantumFlowResult.integrator``.

    The leakage of the evolved columns into the top two sectors, the
    2-norm of their rows there, is recorded at every grid point and
    aborts the run above ``leak_threshold``.  Between step ends it is
    read from a cubic Hermite interpolant.  A step whose leakage reaches
    leak_threshold / 10 is retried from its left end as one grid step,
    and a left end at that gate takes one grid step, so every value from
    the gate up is exact and the abort comes at the first grid point
    above the threshold; later steps end before the first grid point at
    the gate of a retried step, and single grid steps cross it.  An
    inner point whose Frobenius or Gershgorin bound shows that it can
    neither set its step's maximum nor be the first to reach the gate
    keeps the smaller bound (``leakage_exact`` False there).  A finite
    threshold needs
    trusted_n <= n_max - 2: the top two sectors must hold no trusted
    column.
    """
    if hamiltonian.dim != space.dim:
        raise DimensionMismatchError(f"dim {hamiltonian.dim} vs {space.dim}")
    grid = hamiltonian.grid()
    grid = grid[:grid_index(grid, hamiltonian.t_end if t is None else t) + 1]
    if trusted_n is None:
        trusted_n = space.n_max - 4
    trusted_n = max(0, min(trusted_n, space.n_max))
    if not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")
    if math.isfinite(leak_threshold) and trusted_n > space.n_max - 2:
        raise ValueError(
            f"trusted sectors <= {trusted_n} reach the top two sectors of n_max "
            f"{space.n_max}: the leakage gate needs trusted_n <= n_max - 2")

    # u_alpha by RK4 on C^d, on the grid up to t and one step at least: the
    # Hermite rule reads it between two knots
    knots = hamiltonian.grid()[:max(len(grid), 2)]
    with np.errstate(over="ignore", invalid="ignore"):
        u, slopes = _linear_rk4(knots, lambda s: -1j * hamiltonian.alpha_on(s),
                                np.eye(space.dim, dtype=complex))
    u_t = u[len(grid) - 1]
    defect = unitarity_defect(u_t)
    # NaN, from an overflowed path, fails too
    if not defect <= _UNITARY_TOL:
        raise SymplecticityError(
            f"u_alpha(t={grid[-1]:g}) is unitary only within {defect:.3e}, "
            f"above the {_UNITARY_TOL:.0e} that Gamma(u_alpha) needs; reduce dt")
    coefficients = _pair_coefficients(hamiltonian, lambda s: _hermite(knots, u, slopes, s))
    stepper = _ColumnStepper(space, trusted_n, coefficients, grid, leak_threshold)
    stepper.march(tol)
    blocks = [(blk.states, _gamma(space, u_t, blk.states, v))
              for blk, v in zip(stepper.blocks, stepper.us)]
    counts = {"steps": stepper.steps, "rejected": stepper.rejected, "refined": stepper.refined,
              "time_error": float(stepper.time_error)}
    return QuantumFlowResult(space, blocks, stepper.leak, stepper.exact, trusted_n, counts)


# Gauss nodes on [0, 1] and the weights of CF4 (Blanes & Moan 2006):
# U(t + h) = exp(h(W2 A1 + W1 A2)) exp(h(W1 A1 + W2 A2)) U(t), A_i the
# generator at t + c_i h.  The exponential weighting the earlier node by
# W1 acts first; swapped, the step is only of second order.
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_W1, _W2 = 0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0
_UNIT_ROUNDOFF = 2.0 ** -53
# how far, relative and far above rounding, a bound must fall below a leakage
_BOUND_MARGIN = 1e-6
# the most entries of the interpolated top rows one batch of the gate forms,
# per block, and of one gather of a `_Table` product below the cut.  On the
# d=2, N=24 oracle (bench/run.py, seed 1, 3 alternating runs, 2-vCPU guest)
# a worker's peak RSS went 46.4 -> 45.6 MB from 2^16 and 2^17 at the same
# solve time; 2^12 was ~25 % slower, and 2^14 without the reused gather
# buffer ~45 % slower
_GATE_ENTRIES = 2 ** 14
_GATHER_ENTRIES = 2 ** 14


class _ColumnStepper:
    """The parity blocks' evolved columns, advanced along a time grid.

    Owns the columns, the parity blocks, whose one generator table each
    (``work``) it refills in place, for each CF4 exponent and at each
    knot of the leakage gate, the leakage at every grid point and the CF4
    counters.  `march` takes CF4 steps of several grid points with
    step-doubling control: one attempt from knot k advances n_h grid
    steps twice with H/2, at the unit roundoff, and once with H, whose
    Taylor series stop at a thousandth of the allowed error tol H / T;
    max|difference| / 15 estimates the error of the two-half-step
    result, which is kept when the estimate is at most tol H / T (a
    single grid step is always kept).  The next n_h scales with
    (allowed / estimate)^(1/5).  The first H has H ||G(t0)||_1 ~ 0.5.
    """

    def __init__(self, space, trusted_n, coefficients, grid, leak_threshold):
        self.space, self.trusted_n = space, trusted_n
        self.blocks = _parity_blocks(space, trusted_n)
        self.coefficients, self.grid = coefficients, grid
        self.leak_threshold, self.gate = leak_threshold, leak_threshold / 10
        # the trusted columns are a prefix of each parity block
        self.us = [np.eye(len(blk.states), blk.trusted_hi, dtype=complex) for blk in self.blocks]
        self.leak, self.exact = np.zeros(len(grid)), np.ones(len(grid), dtype=bool)
        self.steps = self.rejected = self.refined = 0
        self.time_error = 0.0

    def cf4(self, us, coeffs, h, target=_UNIT_ROUNDOFF):
        """One CF4 step of length h from the columns us, given the pair
        coefficients at its two Gauss times."""
        for w1, w2 in ((_W1, _W2), (_W2, _W1)):
            c = h * (w1 * coeffs[0] + w2 * coeffs[1])
            for blk in self.blocks:
                blk.work.fill(c)
            # the parity blocks run one after the other: scipy's CSR product holds
            # the GIL, and two threads gave 1.00-1.07x on the product and a paired
            # ratio of 1.02-1.05 per d=2, N=24 oracle solve (2-vCPU Xeon)
            us = [_expm_apply(blk.work, blk.work.norm1(), u, target)
                  for blk, u in zip(self.blocks, us)]
        return us

    def march(self, tol):
        """CF4 over the whole grid, filling the leakage trace.

        A left knot at leak_threshold / 10 takes one grid step, and a
        longer step whose leakage reaches it at a knot or in between is
        retried from its left knot as one grid step.  Until the first grid
        point where a retried step reached it, later steps end before that
        point, and single grid steps cross it.  A right knot above the
        threshold raises the abort.
        """
        grid, gate = self.grid, self.gate
        n_steps, span = len(grid) - 1, grid[-1] - grid[0]
        c = self.coefficients(grid[:1])[0]
        for blk in self.blocks:
            blk.work.fill(c)
        # the first step has H ||G(t0)||_1 ~ 0.5, or spans the run
        spans = 2.0 * span * max(blk.work.norm1() for blk in self.blocks)
        size = n_steps if spans <= 1.0 else max(1, round(n_steps / spans))
        k = wall = 0
        while k < n_steps:
            n_h = 1 if self.leak[k] >= gate else min(size, n_steps - k)
            if k < wall:
                n_h = min(n_h, max(1, wall - 1 - k))
            t, h = grid[k], grid[k + n_h] - grid[k]
            allowed = tol * h / span
            # the Gauss times of both half steps and of the full step, in one call
            c = self.coefficients(np.concatenate(
                [t + _GAUSS * (h / 2), t + h / 2 + _GAUSS * (h / 2), t + _GAUSS * h]))
            mid = self.cf4(self.us, c[:2], h / 2)
            fine = self.cf4(mid, c[2:4], h / 2)
            # the coarse solve only feeds this estimate: its Taylor remainder
            # may reach a thousandth of the attempt's budget, and it is dropped here
            err = max(np.abs(a - b).max(initial=0.0) for a, b in zip(
                fine, self.cf4(self.us, c[4:], h, max(_UNIT_ROUNDOFF, allowed / 1000)))) / 15.0
            factor = 4.0 if err == 0 else min(4.0, 0.9 * (allowed / err) ** 0.2)
            size = max(1, int(n_h * factor))
            if err > allowed and n_h > 1:
                self.rejected += 1
                continue
            self.leakage(k, n_h, (self.us, mid, fine))
            if n_h > 1 and self.leak[k + 1:k + n_h + 1].max() >= gate:
                self.refined += 1
                # the first grid point at the gate: later attempts end before it
                size, wall = 1, k + 1 + int(np.argmax(self.leak[k + 1:] >= gate))
                continue
            self.time_error += err
            self.us = fine
            self.steps += 1
            k += n_h
            if self.leak[k] > self.leak_threshold:
                raise LeakageError(
                    f"top-sector leakage {self.leak[k]:.3e} exceeded "
                    f"{self.leak_threshold:.1e} at t={grid[k]:.4f}; raise n_max or "
                    "shorten the time span",
                    diagnostics={"t": float(grid[k]), "leakage": float(self.leak[k]),
                                 "n_max": self.space.n_max, "trusted_n": self.trusted_n})

    def leakage(self, k, n_h, states):
        """Leakage at grid points k+1..k+n_h of a step whose left, middle
        and right states are `states`, into the trace and its exact mask:
        exact at the right knot, from the cubic Hermite interpolant Y(tau)
        of the top-sector rows in between, in three tiers.  At each knot
        each block's ``work`` table is filled there, and the slope rows
        are h/2 times the top-sector rows of its product with the knot's
        state; values and slopes are written once, into the narrow stack
        that the batches read.  The 6 x 6 inner products of the knot rows
        bound every inner point by ||Y(tau)||_F.  The points are visited
        in decreasing order of that bound, in batches: each forms its
        Y(tau), by one real product on the knot rows' float view, and its
        narrow Gram matrix, whose Gershgorin row sums bound it again, and
        takes the top eigenvalue only where that bound reaches the exact
        maximum so far.  The visits end when a bound falls below that maximum or it
        reaches the gate; every other point keeps its smaller bound.
        """
        grid, lo, hi = self.grid, k + 1, k + n_h
        t, h = grid[k], grid[hi] - grid[k]
        self.leak[hi] = top = max(blk.leakage(u) for blk, u in zip(self.blocks, states[-1]))
        self.exact[lo:hi], self.exact[hi] = False, True
        if n_h == 1:
            return
        knots = np.array([t, t + h / 2, t + h])
        coeffs = self.coefficients(knots)
        # the flow's Hermite rule at each inner point is sum_i basis_i Y_i over
        # the values and scaled slopes Y = (y0, h/2 y0', ym, h/2 ym', y1, h/2 y1')
        basis = _hermite(knots, np.eye(6)[0::2], np.eye(6)[1::2] / (h / 2), grid[lo:hi])
        stacks, bound = [], np.zeros(n_h - 1)
        for b, blk in enumerate(self.blocks):
            # the knot rows and slopes, written once into the narrow stack
            # that the batches read (`_narrow` of each is a view)
            ys = np.empty((6,) + _narrow(states[0][b][blk.top_lo:]).shape, dtype=complex)
            for i, (c, state) in enumerate(zip(coeffs, states)):
                ys[2 * i] = _narrow(state[b][blk.top_lo:])
                ys[2 * i + 1] = _narrow((h / 2) * (blk.work.fill(c) @ state[b])[blk.top_lo:])
            # ||Y(tau)||_F^2 = sum_ij basis_i basis_j Re<Y_i, Y_j>, the real
            # parts read as the dot products of the rows as float vectors
            flat = ys.reshape(6, -1).view(float)
            bound = np.maximum(bound, np.einsum("pi,ij,pj->p", basis, flat @ flat.T, basis))
            stacks.append(ys)
        # the trace's inner points hold the bounds, tightened in place
        self.leak[lo:hi] = np.sqrt(np.maximum(bound, 0.0))
        bound = self.leak[lo:hi]
        size = max(1, _GATE_ENTRIES // max(ys[0].size for ys in stacks))
        order = np.argsort(-bound, kind="stable")
        first = np.count_nonzero(bound >= self.gate)
        # points whose bound reaches the gate go first and in time order, so
        # the first of them to reach it is exact (`march` ends attempts there);
        # with the right knot at the gate no other point decides anything
        order[:first] = np.sort(order[:first])
        order = order if top < self.gate else order[:first]
        floor = min(top * (1.0 - _BOUND_MARGIN), self.gate)
        for start in range(0, len(order), size):
            batch = order[start:start + size]
            batch = batch[bound[batch] >= floor]
            if not batch.size:
                break
            # Y(tau) by real GEMM: the real basis times the rows' float view
            grams = [_gram(np.tensordot(basis[batch], ys.view(float), axes=1).view(complex))
                     for ys in stacks]
            bound[batch] = np.minimum(bound[batch], np.max([_gram_bound(g) for g in grams], 0))
            for j, i in enumerate(batch):
                if bound[i] >= floor:
                    bound[i] = max(_gram_norm(g[j]) for g in grams)
                    self.exact[lo + i], top = True, max(top, bound[i])
                    if bound[i] >= self.gate:
                        return
                    floor = min(top * (1.0 - _BOUND_MARGIN), self.gate)


def _narrow(x):
    """x, or the view x^T if that has fewer rows: the smaller Gram matrix,
    x x* or x^T conj(x) = conj(x* x), whose top eigenvalue is ||x||_2^2."""
    return x.mT if x.shape[-1] < x.shape[-2] else x


def _gram(x):
    """The Gram matrix x x* (of each matrix of a stack)."""
    return x @ x.conj().mT


def _gram_norm(gram) -> float:
    """||x||_2 from the Gram matrix x x*: the root of its top eigenvalue."""
    return math.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))


def _gram_bound(grams) -> np.ndarray:
    """Upper bounds on ||x||_2 from a stack of Gram matrices x x*: the
    root of the largest absolute row sum, which no eigenvalue exceeds
    (Gershgorin)."""
    return np.sqrt(np.abs(grams).sum(axis=-1).max(axis=-1))


def _expm_apply(mat, norm, u, target=_UNIT_ROUNDOFF):
    """exp(mat) u for a `_Table` mat of 1-norm `norm`.

    A truncated Taylor series in ceil(norm) sub-steps of 1-norm x <= 1,
    with the fewest terms m for which the remainder bound
    x^(m+1) e^x / (m+1)! is below `target`: the unit roundoff for every
    state the flow keeps, looser only for the coarse solve of step
    doubling (Al-Mohy & Higham 2011 choose (m, s) by a sharper
    backward-error bound).
    """
    s = max(1, math.ceil(norm))
    x = norm / s
    m = 1
    while x ** (m + 1) * math.exp(x) / math.factorial(m + 1) > target:
        m += 1
    for _ in range(s):
        out, term = u.copy(), u
        for j in range(1, m + 1):
            term = mat @ term
            term *= 1.0 / (s * j)
            out += term
        u = out
    return u


class _Table:
    """A sum of ladder maps, each with at most one entry per row, between a
    set of row states and one of column states (positions in the direct
    sum), held once, in the form its product reads.

    The one reader of the numpy/CSR cut.  On a space of at most
    _NUMPY_MAX_STATES states it is a neighbour table, the ELLPACK layout
    of Bell & Garland 2009: slot k of row i holds map k's entry there, its
    column src[i, k] and ladder weight val[i, k] (0, at column 0, where
    map k has none); `fill` sets the weights W = val c from one
    coefficient per map, and row i of the product with g is
    sum_k W[i, k] g[src[i, k]], a gather of rows into one buffer and one
    batched product, in row batches whose gather holds at most
    _GATHER_ENTRIES entries.  Above the cut it is a CSR matrix alone, with
    one nonzero per (row, column) that a map reaches, and the product is
    scipy's: `fill` sets the nonzeros to coef c, coef holding each map's
    ladder value at each nonzero, so a nonzero that several maps reach
    is the sum of their weights.
    """

    def __init__(self, space, entries, n_maps, row_states, col_states):
        self.shape = (len(row_states), len(col_states))
        # positions within the row and column states; -1 off them
        at = np.full((2, space.total_dim), -1)
        at[0, row_states], at[1, col_states] = np.arange(self.shape[0]), np.arange(self.shape[1])
        rows, cols = at[0, entries[0]], at[1, entries[1]]
        mine = (rows >= 0) & (cols >= 0)
        rows, cols, values, maps = rows[mine], cols[mine], entries[2][mine], entries[3][mine]
        self.csr = None
        if space.total_dim > _NUMPY_MAX_STATES:
            from scipy import sparse

            keys, at = np.unique(rows * self.shape[1] + cols, return_inverse=True)
            self.coef = sparse.csr_matrix((values, (at, maps)), shape=(len(keys), n_maps))
            indptr = np.searchsorted(keys, np.arange(self.shape[0] + 1) * self.shape[1])
            self.csr = sparse.csr_matrix(
                (np.zeros(len(keys), complex), keys % self.shape[1], indptr), shape=self.shape)
        else:
            self.src = np.zeros((self.shape[0], n_maps), dtype=np.int64)
            self.val = np.zeros(self.src.shape)
            self.src[rows, maps], self.val[rows, maps] = cols, values
            self.W = np.zeros(self.src.shape, dtype=complex)

    def fill(self, c):
        """Set the weights from the coefficients c, one per map; returns
        the table."""
        if self.csr is None:
            np.multiply(self.val, c, out=self.W)
        else:
            self.csr.data[:] = self.coef @ c
        return self

    def norm1(self) -> float:
        """The 1-norm (largest column sum) of the table's absolute weights.

        Above the cut these are the CSR's nonzeros, and the norm is exact
        for any table.  Below it they are the slots' weights: exact where
        no two maps share a position, as no two pair terms of the
        generator do, and an upper bound otherwise.
        """
        cols, w = (self.src, self.W) if self.csr is None else (self.csr.indices, self.csr.data)
        return float(np.bincount(cols.ravel(), weights=np.abs(w).ravel()).max(initial=0.0))

    def __matmul__(self, g):
        if self.csr is not None:
            return self.csr @ g
        flat = g.reshape(len(g), -1)
        out = np.empty((self.shape[0], 1, flat.shape[1]), dtype=complex)
        step = max(1, _GATHER_ENTRIES // max(1, self.W.shape[1] * flat.shape[1]))
        buf = np.empty((min(step, self.shape[0]), self.W.shape[1], flat.shape[1]), flat.dtype)
        for lo in range(0, self.shape[0], step):
            # mode "clip" gathers into the buffer directly; "raise" copies it once more
            rows = np.take(flat, self.src[lo:lo + step], 0, buf[:self.shape[0] - lo], "clip")
            np.matmul(self.W[lo:lo + step, None, :], rows, out=out[lo:lo + step])
        return out.reshape(self.shape[:1] + g.shape[1:])


class _ParityBlock:
    """States of one particle-number parity, in direct-sum order, so the
    trusted columns are a prefix and the top-sector rows a suffix, with
    the pair generator on them as one `_Table`, slot k pair term k:
    ``work``, refilled for each CF4 exponent and at each knot of the
    leakage gate."""

    def __init__(self, space, states, entries, n_terms, top_lo, trusted_hi):
        self.states, self.top_lo, self.trusted_hi = states, top_lo, trusted_hi
        self.work = _Table(space, entries, n_terms, states, states)

    def leakage(self, u) -> float:
        """2-norm of the top-sector rows of the evolved columns u, from the
        largest eigenvalue of the smaller of the two Gram matrices."""
        return _gram_norm(_gram(_narrow(u[self.top_lo:])))


def _parity_blocks(space: FockSpace, trusted_n: int) -> list:
    """Even- and odd-sector blocks of the pair generator on the space.

    Pair terms change the particle number by 2, so no entry couples the
    two parities.  Term k < P (P pair occupations) is the annihilator
    a^kappa_k, term P + k its adjoint.  A parity with no state in sectors
    <= trusted_n has no column to evolve and no block.
    """
    terms = [sec.ladder_entries(space.dim, space.n_max, (0,) * space.dim, kappa)
             for kappa in sec.occupations(space.dim, 2)]
    terms += [(c, r, v) for r, c, v in terms]
    entries = _stack(terms)
    number = space.number_values()
    top = max(space.n_max - 1, 0)
    parities = [np.flatnonzero(number % 2 == parity) for parity in (0, 1)]
    return [_ParityBlock(space, states, entries, len(terms),
                         top_lo=int(np.count_nonzero(number[states] < top)),
                         trusted_hi=int(np.count_nonzero(number[states] <= trusted_n)))
            for states in parities if np.any(number[states] <= trusted_n)]


def _pair_weights(beta) -> np.ndarray:
    """The (..., 2P) coefficients of the generator -(1/2)(g - g^dag),
    g = sum_ab conj(beta_ab) a_a a_b, for a (stack of) d x d beta, ordered
    as the terms of `_parity_blocks`: Q_beta^Wick / eps = i G for the
    generator G of symmetric beta, and beta and (beta + beta^T)/2 give
    the same weights."""
    ia, ib = sec.pair_modes(beta.shape[-1])
    # a != b: a_a a_b = a_b a_a collects beta_ab and beta_ba
    w = np.where(ia == ib, 0.5, 1.0) * np.conj(beta[..., ia, ib] + beta[..., ib, ia])
    return np.concatenate([-0.5 * w, 0.5 * np.conj(w)], axis=-1)


def _pair_coefficients(hamiltonian: QuadraticHamiltonian, u_alpha):
    """times -> (n_times, 2P) table of the `_pair_weights` of beta rotated
    by u_alpha(t), `u_alpha(times)` stacking it over the times (the
    identity at every time when alpha is zero, and the rotation then
    exact)."""

    def coefficients(times):
        u = u_alpha(times)
        return _pair_weights(np.conj(u.mT) @ hamiltonian.beta_on(times) @ np.conj(u))

    return coefficients


def conjugate_observable(qflow: QuantumFlowResult, b: PolySymbol) -> np.ndarray:
    """U(0,t) b^Wick U(t,0) on the evolved sectors 0..trusted_n, at the
    flow's time t and on its space.

    That block is U[:, s]^* (b^Wick U[:, s]) over the evolved columns s,
    an n_cols x n_cols array, taken per pair of parities (p, q): the
    columns of parity q live on the states of q, so they meet the columns
    of p through the block of b^Wick between those states only, a
    `_Table` with one slot per monomial of the degree parity that links
    p and q, as in `wick_apply`.  A pair that no monomial links (p != q
    for an observable of even degrees only) is zero and skipped.
    """
    space = qflow.space
    _check_degree(b, space)
    # the monomials of even degree link a parity to itself, those of odd degree to the
    # other; each pair stacks the entries it needs, so one table's are alive at a time
    halves = [PolySymbol._from_vectors(b.dim, {m: c for m, c in b.vectors.items() if m % 2 == r})
              for r in (0, 1)]
    parts = list(qflow._parities())
    # the adjoint of the result, block by block: (b^Wick u_q)^* u_p needs no
    # conjugate copy of the columns
    adj = np.zeros((sum(len(cols) for _, cols, _ in parts),) * 2, dtype=complex)
    for q, (states_q, cols_q, u_q) in enumerate(parts):
        for p, (states_p, cols_p, u_p) in enumerate(parts):
            entries, coeffs = _wick_entries(halves[p != q], space, space.n_max)
            if len(coeffs):
                applied = _Table(space, entries, len(coeffs), states_p, states_q).fill(coeffs) @ u_q
                adj[np.ix_(cols_q, cols_p)] = np.conjugate(applied, out=applied).T @ u_p
    return np.conjugate(adj, out=adj).T


# ---------------------------------------------------------------------------
# inequality checks

# the powers k of (N/eps + 1) = (n + 1) that the checks sample; the growth
# bound's slack; the most samples, and the most entries of one array
# holding one per sample, in a block
_KS = (1, 2)
_GROWTH_SLACK = 0.1
SAMPLE_CHUNK = 256
SAMPLE_ENTRIES = 2 ** 16


def sample_max(ratios, n_samples: int, entries: int = 1) -> np.ndarray:
    """The largest of `n_samples` sampled ratios, per row.

    `ratios(size)` draws `size` fresh samples and returns their ratios,
    shape (..., size).  `entries` is the size of the largest array one
    sample builds.  The samples go through in blocks of at most
    SAMPLE_CHUNK samples and SAMPLE_ENTRIES entries (but at least one
    sample), so memory grows neither with n_samples nor with the
    block's stack.  The maximum propagates NaN: a NaN ratio fails its row.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    chunk = max(1, min(SAMPLE_CHUNK, SAMPLE_ENTRIES // entries))
    worst = None
    for start in range(0, n_samples, chunk):
        block = np.max(ratios(min(chunk, n_samples - start)), axis=-1)
        worst = block if worst is None else np.maximum(worst, block)
    return worst


def _check_setup(beta_mat, space: FockSpace, rng):
    """What both checks start from: the rng (seed 0 by default), the HS
    norm of beta's symmetric part (beta + beta^T)/2, the one part that
    Q_beta and the flow's generator read, the weight column n + 1, and
    the parity blocks on all the states (`_parity_blocks`), their tables
    G filled with that part's `_pair_weights`: Q_beta^Wick / eps = i G
    on each block, and no entry of Q_beta^Wick links the two."""
    if np.shape(beta_mat) != (space.dim, space.dim):
        raise DimensionMismatchError(f"beta of shape {np.shape(beta_mat)} on dim {space.dim}")
    if space.n_max < 2 and np.any(beta_mat):
        raise ValueError(f"Q_beta has degree 2, above the sector cutoff {space.n_max}")
    beta_mat = (np.asarray(beta_mat, dtype=complex) + np.transpose(beta_mat)) / 2.0
    return (rng or np.random.default_rng(0), float(np.linalg.norm(beta_mat, "fro")),
            (space.number_values() + 1.0)[:, None],
            [(blk.states, blk.work.fill(_pair_weights(beta_mat)))
             for blk in _parity_blocks(space, space.n_max)])


def check_estimates(beta_mat, space: FockSpace, n_samples: int = 100,
                    rng: np.random.Generator = None) -> dict:
    """Sample the generator bound and the commutator form bound, k in _KS.

    Ratios are LHS over the stated RHS; every row should stay <= 1.
    With beta = 0 both sides vanish and rows are marked vacuous.  The
    bounds weigh by N/eps + 1 for the scaled number operator N = eps n
    (|z|^2 quantizes to eps a*a), that is by n + 1, so no row depends on
    eps.  The states are drawn and checked in blocks (`sample_max`), with
    one product by Q^Wick / eps = i G per block and parity, through the
    parity block's pair table G, the quantum flow's generator.
    """
    rng, bnorm, weight, blocks = _check_setup(beta_mat, space, rng)

    def ratios(size):
        psi = space.random_state(rng, space.n_max - 2, size)
        qpsi = np.empty_like(psi)
        for states, table in blocks:
            qpsi[states] = 1j * (table @ psi[states])
        rows = [euclidean_norm(qpsi.T) / (1.5 * bnorm * euclidean_norm((weight * psi).T))]
        for k in _KS:
            wpsi = (weight ** k) * psi
            lhs = np.abs(2.0 * np.imag(np.sum(qpsi.conj() * wpsi, axis=0)))
            rhs = (3.0 ** k) * math.sqrt(2.0) * bnorm * np.real(np.sum(psi.conj() * wpsi, axis=0))
            rows.append(lhs / rhs)
        return np.array(rows)

    worst = sample_max(ratios, n_samples) if bnorm else np.zeros(1 + len(_KS))
    return {"n_samples": n_samples, "beta_norm": bnorm, "vacuous": bnorm == 0.0,
            "max_ratio_generator": float(worst[0]),
            "max_ratio_commutator": {k: float(v) for k, v in zip(_KS, worst[1:])}}


def check_growth_bound(beta_mat, space: FockSpace, t: float, n_samples: int = 50,
                       rng: np.random.Generator = None) -> dict:
    """Soft growth check for the time-independent flow, for k in _KS:
    ||(N/eps+1)^{k/2} U psi|| <= e^{3^k sqrt(2) ||beta|| t} ||(N/eps+1)^{k/2} psi||
    with the truncation slack _GROWTH_SLACK on the right-hand side.  As in
    `check_estimates`, N = eps n is the scaled number operator, so the
    weight N/eps + 1 is n + 1.

    The generator Q^Wick / eps does not depend on time and keeps the
    particle-number parity, so U(t, 0) is, on each parity block, the
    exact propagator V e^{-i t lambda} V^* from the eigenpairs of the
    Hermitian i G, the block's pair table applied to the identity.  Every
    k reads the same states, drawn and evolved in blocks (`sample_max`),
    one product by U per block of samples and parity.
    """
    rng, bnorm, weight, blocks = _check_setup(beta_mat, space, rng)
    # the random states live on sectors <= n_top: only those columns of U,
    # a prefix of each parity block's states
    n_top, props = space.n_max // 2, []
    for states, table in blocks:
        lam, vecs = np.linalg.eigh(1j * (table @ np.eye(len(states), dtype=complex)))
        k = np.searchsorted(states, space.span_slice(n_top).stop)
        props.append((states, k, (vecs * np.exp(-1j * t * lam)) @ vecs[:k].conj().T))
    bounds = {k: math.exp((3.0 ** k) * math.sqrt(2.0) * bnorm * t) * (1.0 + _GROWTH_SLACK)
              for k in _KS}

    def ratios(size):
        psi = space.random_state(rng, n_top, size)
        upsi = np.zeros_like(psi)
        for states, k, u in props:
            upsi[states] = u @ psi[states[:k]]
        return np.array([euclidean_norm((weight ** (k / 2.0) * upsi).T)
                         / (bounds[k] * euclidean_norm((weight ** (k / 2.0) * psi).T))
                         for k in _KS])

    worst = sample_max(ratios, n_samples)
    return {"t": t, "beta_norm": bnorm, "slack": _GROWTH_SLACK,
            "max_ratio": {k: float(v) for k, v in zip(_KS, worst)}}
