"""Truncated bosonic Fock space over C^d as a brute-force oracle.

The space keeps every symmetric sector up to a cutoff N_max and shares
the occupation bases of :mod:`hepp_expand.sectors`, so quantized
matrices here and symbol coefficients elsewhere never disagree about
normalization.  Operators are plain dense arrays over the truncated
direct sum, cut into sector blocks by ``FockSpace.sector_slice`` and
``span_slice``; Gamma(u) is block-diagonal and kept as its sector
blocks.

Quantization of a plain monomial conj(z)^m z^n is the normally ordered
ladder product eps^((|m|+|n|)/2) prod a_i^dag^{m_i} prod a_i^{n_i}.
That product is a ladder map with at most one nonzero per column
(``sectors.ladder_entries``, cached per cutoff and monomial), so the
nonzeros of b^Wick on sectors 0..n_top are the cached entries of each
monomial with a nonzero coefficient, scaled by it.  They are read
three ways: summed into a dense matrix (``wick_quantize``), or
into its leading block on sectors 0..n_top alone (``wick_block``), or
as a sparse matrix applied to a block of vectors (``wick_apply``).

The quantum flow uses the same ladder maps for its pair generator: a
CSR matrix with a pattern fixed per run, whose data at time t is the
pattern values times d(d+1) pair coefficients.  The generator changes
the particle number by 2, so the even and odd sectors evolve as two
separate dense blocks of U.  Only the columns of U that start in the
trusted sectors 0..trusted_n are evolved: they are all that the trusted
block of the conjugated observable and the leakage gate read.  The flow
runs on the Hamiltonian's own grid up to one grid time t, where the
columns are joined into one total_dim x n_cols block and the sector
blocks of Gamma(u_alpha) act on them.  The comparison stage stays on
those columns too: the observable acts on them as a sparse matrix, and
their unitarity defect comes from one Gram block per parity.

One stepper advances the columns by either of two integrators, reading
the pair coefficients of all the times a stretch needs in one call, and
refills the generator's CSR matrices and those of its top-sector rows
(the leakage gate's) in place.  RK4 on the grid is the reference.  Given
a tolerance, the fourth-order commutator-free Magnus step CF4 (Blanes &
Moan 2006) takes steps of several grid points, sized by step doubling;
each exponential acts on the columns as a Taylor series whose length
follows from the generator's exact sparse 1-norm.  The leakage gate
still reads every grid point (between step ends from the flow's cubic
Hermite rule `flow._hermite`), and a step that comes within a factor 10
of the leakage threshold is re-run by RK4 on the grid.  The gate is
exact wherever it decides something; elsewhere it keeps a Frobenius
upper bound, and ``leakage_exact`` marks which points are which.
"""

from __future__ import annotations

import math

import numpy as np

from . import sectors as sec
from .errors import DimensionMismatchError, LeakageError
from .flow import (QuadraticHamiltonian, _hermite, grid_index, integrate_u_alpha, rk4_times,
                   unitarity_defect)
from .symbols import PolySymbol, squeezing_hamiltonian_symbol
from .symplectic import euclidean_norm

_EPS_DEFAULT = 0.5
_UNITARY_TOL = 1e-10


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
    """Nonzeros (rows, cols, values) of b^Wick on sectors 0..n_top, one
    per ladder entry of each monomial, degree by degree; entries at the
    same position are still to be summed.  A monomial of degree above
    n_top has no entry there."""
    if b.dim != space.dim:
        raise DimensionMismatchError(f"dim {b.dim} vs {space.dim}")
    rows, cols, values = [], [], []
    for m, c in b.vectors.items():
        occ, scale = sec.occupations(2 * space.dim, m), space.epsilon ** (m / 2.0)
        # w^kappa = conj(z)^mu z^nu for the doubled occupation kappa = (nu, mu)
        for j in np.flatnonzero(c):
            r, k, v = sec.ladder_entries(space.dim, n_top, occ[j][space.dim:], occ[j][:space.dim])
            rows.append(r)
            cols.append(k)
            values.append((c[j] * scale) * v)
    if not rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


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
    rows, cols, values = _wick_entries(b, space, n_top)
    n = space.span_slice(n_top).stop
    out = np.zeros(n * n, dtype=complex)
    # unbuffered: the entries of one position are summed in the order given
    np.add.at(out, rows * n + cols, values)
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
    """b^Wick @ vectors on the truncated space, through a sparse matrix:
    the dense total_dim x total_dim quantization is never formed."""
    from scipy import sparse

    _check_degree(b, space)
    rows, cols, values = _wick_entries(b, space, space.n_max)
    n = space.total_dim
    return sparse.csr_matrix((values, (rows, cols)), shape=(n, n)) @ vectors


def gamma_u(u, space: FockSpace) -> list:
    """Second quantization: the sector blocks 0..n_max of Gamma(u), which
    is block-diagonal with the n-th tensor power of u on sector n.

    Sector n follows from sector n-1 by the ladder recursion
    Gamma(u)|k> = (sum_j u_ji a_j^dag) Gamma(u)|k - e_i> / sqrt(k_i),
    with i the first occupied mode of k: one matmul per mode and sector.
    Each a_j^dag has one nonzero per column, sqrt(kappa_j + 1) at row
    kappa + e_j, so the field is scattered from the raise table.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (space.dim, space.dim):
        raise DimensionMismatchError(f"u of shape {u.shape} on a space of dim {space.dim}")
    if unitarity_defect(u) > _UNITARY_TOL:
        raise ValueError(f"gamma_u requires a unitary within {_UNITARY_TOL:g}")
    blocks = [np.ones((1, 1), dtype=complex)]
    for n in range(1, space.n_max + 1):
        low = sec.occupation_array(space.dim, n - 1)
        up, weight = sec.raise_table(space.dim, n - 1)
        root, cols = np.sqrt(weight), np.arange(len(low))
        # every mode's entries of the field land on the same positions
        field = np.zeros((space.sector_dims[n], len(low)), dtype=complex)
        new = np.zeros((space.sector_dims[n], space.sector_dims[n]), dtype=complex)
        for i in range(space.dim):
            for j in range(space.dim):
                field[up[:, j], cols] = u[j, i] * root[:, j]
            # k = kappa + e_i has first occupied mode i iff kappa_j = 0 for j < i
            sel = np.flatnonzero(~low[:, :i].any(axis=1))
            new[:, up[sel, i]] = (field @ blocks[-1][:, sel]) / np.sqrt(low[sel, i] + 1)
        blocks.append(new)
    return blocks


class QuantumFlowResult:
    """Quantum flow on the truncated space at one time t.

    Holds the columns of U(t, 0) that start in sectors 0..trusted_n: a
    total_dim x n_cols block, n_cols the dimension of those sectors, and
    the leakage at every grid point up to t: exact where ``leakage_exact``
    is set, an upper bound below the exact maximum elsewhere.
    ``integrator`` is None for RK4; for CF4 it counts the kept steps, the
    rejected attempts and the steps re-run by RK4, and sums the error
    estimates of the CF4 steps kept (``time_error``).
    """

    def __init__(self, space, columns, leakage_trace, leakage_exact, trusted_n, integrator=None):
        self.space = space
        self.columns = columns
        self.leakage_trace = leakage_trace
        self.leakage_exact = leakage_exact
        self.trusted_n = trusted_n
        self.integrator = integrator

    def max_leakage(self) -> float:
        return float(self.leakage_trace.max()) if len(self.leakage_trace) else 0.0

    def unitarity_defect(self, n_top: int = None) -> float:
        """Norm ||U*U - I||_2 on the columns of sectors <= n_top (default
        trusted_n); columns that were not evolved cannot be checked.

        Columns of one parity have their rows in the sectors of that
        parity only, so U*U is block-diagonal in parity with exact zeros
        across: the norm is the largest |eigenvalue| of the two Hermitian
        Gram blocks, one per parity of the columns.
        """
        if n_top is None:
            n_top = self.trusted_n
        if n_top > self.trusted_n:
            raise ValueError(f"n_top {n_top} exceeds the evolved sectors <= {self.trusted_n}")
        n_cols = self.space.span_slice(n_top).stop
        parity = self.space.number_values()[:n_cols] % 2
        defect = 0.0
        for p in (0, 1):
            u = self.columns[:, :n_cols][:, parity == p]
            if not u.shape[1]:
                continue
            gram = u.conj().T @ u - np.eye(u.shape[1])
            defect = max(defect, float(np.abs(np.linalg.eigvalsh(gram)).max()))
        return defect


def quantum_flow(hamiltonian: QuadraticHamiltonian, space: FockSpace, t: float = None,
                 trusted_n: int = None, leak_threshold: float = 1e-6,
                 tol: float = None) -> QuantumFlowResult:
    """Integrate the quantum flow i eps dU/dt = Q_t^Wick U up to time t.

    The flow runs on the Hamiltonian's grid from t_start to t (default
    t_end), which must be a grid point.  Only the columns of U that
    start in sectors 0..trusted_n (default n_max - 4) are evolved; the
    result holds that total_dim x n_cols block.  Runs the beta-only
    generator (rotated by u_alpha when alpha is present) and composes
    with the second-quantized unitary path, sector by sector, at t.  The
    generator is applied to the even- and odd-sector columns separately.

    With ``tol=None`` the integrator is RK4 on the grid.  With a float
    ``tol`` it is the commutator-free Magnus step CF4, whose step is a
    multiple of the grid step chosen by step doubling so that the
    estimated global error stays below ``tol``.  The step counts and the
    summed error estimate are in ``QuantumFlowResult.integrator``.

    The leakage of the evolved columns into the top two sectors, the
    2-norm of their rows there, is recorded at every grid point and
    aborts the run above ``leak_threshold``.  Between Magnus step ends
    it is read from a cubic Hermite interpolant; any step whose leakage
    reaches leak_threshold / 10 is re-run from its left end by RK4 on the
    grid, so an abort is always decided, timed and reported by the RK4
    gate of ``tol=None``.  An inner point whose Frobenius bound shows that
    it cannot set its step's maximum keeps that bound (``leakage_exact``
    False there, True at step ends and RK4 points).  A finite threshold needs
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
    if tol is not None and not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")
    if math.isfinite(leak_threshold) and trusted_n > space.n_max - 2:
        raise ValueError(
            f"trusted sectors <= {trusted_n} reach the top two sectors of n_max "
            f"{space.n_max}: the leakage gate needs trusted_n <= n_max - 2")

    u_path = None if hamiltonian.alpha.is_zero() else integrate_u_alpha(hamiltonian)
    stepper = _ColumnStepper(space, trusted_n, _pair_coefficients(hamiltonian, u_path), grid,
                             leak_threshold)
    if tol is None:
        stepper.rk4(0, len(grid) - 1)
    else:
        stepper.march(tol)
    cols = stepper.assemble()
    if u_path is not None:
        for n, g in enumerate(gamma_u(u_path.at(grid[-1]), space)):
            s = space.sector_slice(n)
            cols[s] = g @ cols[s]
    return QuantumFlowResult(space, cols, stepper.leak, stepper.exact, trusted_n,
                             None if tol is None else stepper.report())


# Gauss nodes on [0, 1] and the weights of CF4 (Blanes & Moan 2006):
# U(t + h) = exp(h(W2 A1 + W1 A2)) exp(h(W1 A1 + W2 A2)) U(t), A_i the
# generator at t + c_i h.  The exponential weighting the earlier node by
# W1 acts first; swapped, the step is only of second order.
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_W1, _W2 = 0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0
_UNIT_ROUNDOFF = 2.0 ** -53
# how far, relative and far above rounding, a bound must fall below a leakage
_BOUND_MARGIN = 1e-6


class _ColumnStepper:
    """The parity blocks' evolved columns, advanced along a time grid.

    Owns the columns, three CSR work matrices per block (the generator
    at the start, middle and end of an RK4 step; CF4 uses the first for
    its exponents) and one of its top-sector rows (the leakage gate's
    slopes), all refilled in place by `_fill`, the leakage at every grid
    point and the CF4 counters.  `rk4` advances grid step by grid step.
    `march` takes CF4 steps of several grid points with step-doubling
    control: one attempt from knot k advances n_h grid steps once with
    step H and twice with H/2; max|difference| / 15 estimates the error
    of the two-half-step result, which is kept when the estimate is at
    most tol H / T (a single grid step is always kept).  The next n_h
    scales with (allowed / estimate)^(1/5).  The first H has
    H ||G(t0)||_1 ~ 0.5.
    """

    def __init__(self, space, trusted_n, coefficients, grid, leak_threshold):
        self.space, self.trusted_n = space, trusted_n
        self.blocks = _parity_blocks(space, trusted_n)
        self.coefficients, self.grid = coefficients, grid
        self.leak_threshold, self.gate = leak_threshold, leak_threshold / 10
        # the trusted columns are a prefix of each parity block
        self.us = [np.eye(len(blk.states), blk.trusted_hi, dtype=complex) for blk in self.blocks]
        self.work = [[blk.pattern() for blk in self.blocks] for _ in range(3)]
        self.tops = [blk.pattern(blk.top_lo) for blk in self.blocks]
        self.leak, self.exact = np.zeros(len(grid)), np.ones(len(grid), dtype=bool)
        self.steps = self.rejected = self.refined = 0
        self.time_error = 0.0

    def report(self) -> dict:
        return {"steps": self.steps, "rejected": self.rejected, "refined": self.refined,
                "time_error": float(self.time_error)}

    def assemble(self) -> np.ndarray:
        """The evolved columns as one total_dim x n_cols block."""
        cols = np.zeros((self.space.total_dim, sum(blk.trusted_hi for blk in self.blocks)),
                        dtype=complex)
        for blk, u in zip(self.blocks, self.us):
            cols[np.ix_(blk.states, blk.states[:blk.trusted_hi])] = u
        return cols

    def rk4(self, k_from, k_to):
        """RK4 on the columns over grid steps k_from..k_to, with the
        leakage gate; the pair coefficients at every grid point and step
        midpoint come from one call."""
        grid = self.grid[k_from:k_to + 1]
        h = np.diff(grid)
        c = self.coefficients(rk4_times(grid))
        self.exact[k_from:k_to + 1] = True
        g_now, g_mid, g_next = self.work
        _fill(g_now, self.blocks, c[0])
        for j, hj in enumerate(h):
            _fill(g_mid, self.blocks, c[2 * j + 1])
            _fill(g_next, self.blocks, c[2 * j + 2])
            for b, u in enumerate(self.us):
                k1 = g_now[b] @ u
                k2 = g_mid[b] @ (u + hj / 2 * k1)
                k3 = g_mid[b] @ (u + hj / 2 * k2)
                k4 = g_next[b] @ (u + hj * k3)
                self.us[b] = u + (hj / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            g_now, g_next = g_next, g_now
            k = k_from + j + 1
            # the leaked block is block-diagonal in parity: its 2-norm is the
            # larger of the two block norms
            self.leak[k] = max(blk.leakage(u) for blk, u in zip(self.blocks, self.us))
            if self.leak[k] > self.leak_threshold:
                raise LeakageError(
                    f"top-sector leakage {self.leak[k]:.3e} exceeded "
                    f"{self.leak_threshold:.1e} at t={grid[j + 1]:.4f}; raise n_max or "
                    "shorten the time span",
                    diagnostics={"t": float(grid[j + 1]), "leakage": float(self.leak[k]),
                                 "n_max": self.space.n_max, "trusted_n": self.trusted_n})

    def cf4(self, us, t, h):
        c1, c2 = self.coefficients(t + _GAUSS * h)
        work = self.work[0]
        for w1, w2 in ((_W1, _W2), (_W2, _W1)):
            _fill(work, self.blocks, h * (w1 * c1 + w2 * c2))
            us = [_expm_apply(mat, _norm1(mat), u) for mat, u in zip(work, us)]
        return us

    def march(self, tol):
        """CF4 over the whole grid, filling the leakage trace.

        A step whose leakage reaches leak_threshold / 10 at a knot or in
        between is re-run from its left knot by `rk4` (which raises the
        abort).
        """
        grid, gate = self.grid, self.gate
        n_steps, span = len(grid) - 1, grid[-1] - grid[0]
        _fill(self.work[0], self.blocks, self.coefficients(grid[:1])[0])
        # the first step has H ||G(t0)||_1 ~ 0.5, or spans the run
        spans = 2.0 * span * max(_norm1(mat) for mat in self.work[0])
        size = n_steps if spans <= 1.0 else max(1, round(n_steps / spans))
        k = 0
        while k < n_steps:
            n_h = min(size, n_steps - k)
            kept = False
            # a left knot at the gate already dooms the step to RK4
            if self.leak[k] < gate:
                t, h = grid[k], grid[k + n_h] - grid[k]
                coarse = self.cf4(self.us, t, h)
                mid = self.cf4(self.us, t, h / 2)
                fine = self.cf4(mid, t + h / 2, h / 2)
                err = max(np.abs(a - b).max(initial=0.0) for a, b in zip(fine, coarse)) / 15.0
                allowed = tol * h / span
                factor = 4.0 if err == 0 else min(4.0, 0.9 * (allowed / err) ** 0.2)
                size = max(1, int(n_h * factor))
                if err > allowed and n_h > 1:
                    self.rejected += 1
                    continue
                self.leakage(k, n_h, (self.us, mid, fine))
                kept = self.leak[k + 1:k + n_h + 1].max() < gate
                if kept:
                    self.time_error += err
                    self.us = fine
            if not kept:
                self.refined += 1
                self.rk4(k, k + n_h)
            self.steps += 1
            k += n_h

    def leakage(self, k, n_h, states):
        """Leakage at grid points k+1..k+n_h of a step whose left, middle
        and right states are `states`, into the trace and its exact mask:
        exact at the right knot, from a cubic Hermite interpolant of the
        top-sector rows in between.  The traces of the interpolant's Gram
        matrices bound each inner point by a Frobenius norm; the points
        are visited in decreasing order of that bound, each taking the top
        eigenvalue, until a bound falls below the exact maximum so far or
        that maximum reaches the gate.  Points not visited keep the bound.
        """
        grid, lo, hi = self.grid, k + 1, k + n_h
        t, h = grid[k], grid[hi] - grid[k]
        self.leak[hi] = top = max(blk.leakage(u) for blk, u in zip(self.blocks, states[-1]))
        self.exact[lo:hi] = False
        if n_h == 1:
            return
        knots = np.array([t, t + h / 2, t + h])
        coeffs = self.coefficients(knots)
        # the flow's Hermite rule at each inner point is sum_i basis_i Y_i over
        # the values and scaled slopes Y = (y0, h/2 y0', ym, h/2 ym', y1, h/2 y1')
        inner = grid[lo:hi]
        basis = _hermite(knots, np.eye(6)[0::2], np.eye(6)[1::2] / (h / 2), inner)
        pairs = (basis[:, :, None] * basis[:, None, :]).reshape(len(inner), 36)
        grams, bound = [], np.zeros(len(inner))
        for b, (blk, top_rows) in enumerate(zip(self.blocks, self.tops)):
            ys = []
            for c, state in zip(coeffs, states):
                _fill([top_rows], [blk], c)
                ys += [state[b][blk.top_lo:], (h / 2) * (top_rows @ state[b])]
            ys = _narrow(np.stack(ys))
            if not ys.size:
                continue
            # Gram(tau) = sum_ij basis_i basis_j Y_i Y_j^*, from the 36 products
            n = ys.shape[1]
            flat = ys.reshape(6 * n, -1)
            prods = (flat @ flat.conj().T).reshape(6, n, 6, n).swapaxes(1, 2).reshape(36, n * n)
            grams.append((n, prods))
            bound = np.maximum(bound, pairs @ prods[:, ::n + 1].sum(axis=1).real)
        bound = np.sqrt(np.maximum(bound, 0.0))
        for i in np.argsort(-bound, kind="stable"):
            if top >= self.gate or bound[i] < top * (1.0 - _BOUND_MARGIN):
                break
            bound[i] = max(_gram_norm((pairs[i] @ prods).reshape(n, n)) for n, prods in grams)
            self.exact[lo + i], top = True, max(top, bound[i])
        self.leak[lo:hi] = bound


def _narrow(x):
    """x, or x* if that has fewer rows: the smaller Gram matrix x x*, same ||x||_2^2."""
    return x.conj().mT if x.shape[-1] < x.shape[-2] else x


def _gram_norm(gram) -> float:
    """||x||_2 from the Gram matrix x x*: the root of its top eigenvalue."""
    return math.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))


def _fill(mats, blocks, c):
    """Refill the data of each fixed-pattern CSR matrix, a suffix of its
    block's pattern, in place from the pair coefficients c."""
    for mat, blk in zip(mats, blocks):
        lo = len(blk.values) - len(mat.data)
        np.multiply(blk.values[lo:], c[blk.term[lo:]], out=mat.data)


def _norm1(mat) -> float:
    """Exact 1-norm (largest column sum) of a CSR matrix."""
    sums = np.bincount(mat.indices, weights=np.abs(mat.data), minlength=mat.shape[1])
    return float(sums.max(initial=0.0))


def _expm_apply(mat, norm, u):
    """exp(mat) u for a sparse mat of 1-norm `norm`.

    A truncated Taylor series in ceil(norm) sub-steps of 1-norm x <= 1,
    with the fewest terms m for which the remainder bound
    x^(m+1) e^x / (m+1)! is below the unit roundoff (Al-Mohy & Higham
    2011 choose (m, s) by a sharper backward-error bound).
    """
    s = max(1, math.ceil(norm))
    x = norm / s
    m = 1
    while x ** (m + 1) * math.exp(x) / math.factorial(m + 1) > _UNIT_ROUNDOFF:
        m += 1
    for _ in range(s):
        out, term = u.copy(), u
        for j in range(1, m + 1):
            term = mat @ term
            term *= 1.0 / (s * j)
            out += term
        u = out
    return u


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
        leaked = _narrow(u[self.top_lo:])
        return _gram_norm(leaked @ leaked.conj().T) if leaked.size else 0.0

    def pattern(self, row: int = 0):
        """A zero CSR matrix of the generator's rows from `row` on, for `_fill`."""
        from scipy import sparse

        lo = self.indptr[row]
        return sparse.csr_matrix((np.zeros(len(self.values) - lo, dtype=complex), self.indices[lo:],
                                  self.indptr[row:] - lo), shape=(self.shape[0] - row, self.shape[1]))


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
    """times -> (n_times, 2P) table of the coefficients of the generator
    -(1/2)(g - g^dag), where g = sum_ab conj(beta_ab) a_a a_b and beta is
    rotated by u_alpha(t) when alpha is present; each row ordered as the
    terms of `_parity_blocks`."""
    ia, ib = sec.pair_modes(hamiltonian.dim)
    # a != b: a_a a_b = a_b a_a collects beta_ab and beta_ba
    weight = np.where(ia == ib, 0.5, 1.0)

    def coefficients(times):
        beta = hamiltonian.beta_on(times)
        if u_path is not None:
            u = u_path.on(times)
            beta = np.conj(u.mT) @ beta @ np.conj(u)
        w = weight * np.conj(beta[:, ia, ib] + beta[:, ib, ia])
        return np.concatenate([-0.5 * w, 0.5 * np.conj(w)], axis=1)

    return coefficients


def conjugate_observable(qflow: QuantumFlowResult, b: PolySymbol) -> np.ndarray:
    """U(0,t) b^Wick U(t,0) on the evolved sectors 0..trusted_n, at the
    flow's time t and on its space.

    That block is U[:, s]^* (b^Wick U[:, s]) over the evolved columns s,
    an n_cols x n_cols array; b^Wick acts on the columns as a sparse
    matrix.
    """
    u = qflow.columns
    return u.conj().T @ wick_apply(b, qflow.space, u)


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
    """What both checks start from: the rng (seed 0 by default), beta as a
    complex matrix, its 2-vector (HS) norm and the weight column n + 1."""
    beta_mat = np.asarray(beta_mat, dtype=complex)
    return (rng or np.random.default_rng(0), beta_mat, float(np.linalg.norm(beta_mat, "fro")),
            (space.number_values() + 1.0)[:, None])


def check_estimates(beta_mat, space: FockSpace, n_samples: int = 100,
                    rng: np.random.Generator = None) -> dict:
    """Sample the generator bound and the commutator form bound, k in _KS.

    Ratios are LHS over the stated RHS; every row should stay <= 1.
    With beta = 0 both sides vanish and rows are marked vacuous.  The
    bounds weigh by N/eps + 1 for the scaled number operator N = eps n
    (|z|^2 quantizes to eps a*a), that is by n + 1, so no row depends on
    eps.  The states are drawn and checked in blocks (`sample_max`), with
    one product by Q^Wick per block.
    """
    rng, beta_mat, bnorm, weight = _check_setup(beta_mat, space, rng)
    report = {"n_samples": n_samples, "beta_norm": bnorm, "vacuous": bnorm == 0.0}
    if bnorm == 0.0:
        report["max_ratio_generator"] = 0.0
        report["max_ratio_commutator"] = {k: 0.0 for k in _KS}
        return report
    q_op = wick_quantize(squeezing_hamiltonian_symbol(beta_mat), space) / space.epsilon

    def ratios(size):
        psi = space.random_state(rng, space.n_max - 2, size)
        qpsi = q_op @ psi
        rows = [euclidean_norm(qpsi.T) / (1.5 * bnorm * euclidean_norm((weight * psi).T))]
        for k in _KS:
            wpsi = (weight ** k) * psi
            lhs = np.abs(2.0 * np.imag(np.sum(qpsi.conj() * wpsi, axis=0)))
            rhs = (3.0 ** k) * math.sqrt(2.0) * bnorm * np.real(np.sum(psi.conj() * wpsi, axis=0))
            rows.append(lhs / rhs)
        return np.array(rows)

    worst = sample_max(ratios, n_samples)
    report["max_ratio_generator"] = float(worst[0])
    report["max_ratio_commutator"] = {k: float(v) for k, v in zip(_KS, worst[1:])}
    return report


def check_growth_bound(beta_mat, space: FockSpace, t: float, n_samples: int = 50,
                       rng: np.random.Generator = None) -> dict:
    """Soft growth check for the time-independent flow, for k in _KS:
    ||(N/eps+1)^{k/2} U psi|| <= e^{3^k sqrt(2) ||beta|| t} ||(N/eps+1)^{k/2} psi||
    with the truncation slack _GROWTH_SLACK on the right-hand side.  As in
    `check_estimates`, N = eps n is the scaled number operator, so the
    weight N/eps + 1 is n + 1.

    The generator Q^Wick / eps does not depend on time, so U(t, 0) is the
    exact propagator V e^{-i t lambda / eps} V^* from the eigenpairs of the
    dense Q^Wick on the truncated space.  Every k reads the same states,
    drawn and evolved in blocks (`sample_max`), one product by U per block.
    """
    rng, beta_mat, bnorm, weight = _check_setup(beta_mat, space, rng)
    lam, vecs = np.linalg.eigh(wick_quantize(squeezing_hamiltonian_symbol(beta_mat), space))
    # the random states live on sectors <= n_top: only those columns of U
    n_top = space.n_max // 2
    n_cols = space.span_slice(n_top).stop
    u = (vecs * np.exp(-1j * t * lam / space.epsilon)) @ vecs[:n_cols].conj().T
    bounds = {k: math.exp((3.0 ** k) * math.sqrt(2.0) * bnorm * t) * (1.0 + _GROWTH_SLACK)
              for k in _KS}

    def ratios(size):
        psi = space.random_state(rng, n_top, size)
        upsi = u @ psi[:n_cols]
        return np.array([euclidean_norm((weight ** (k / 2.0) * upsi).T)
                         / (bounds[k] * euclidean_norm((weight ** (k / 2.0) * psi).T))
                         for k in _KS])

    worst = sample_max(ratios, n_samples)
    return {"t": t, "beta_norm": bnorm, "slack": _GROWTH_SLACK,
            "max_ratio": {k: float(v) for k, v in zip(_KS, worst)}}
