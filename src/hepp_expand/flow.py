"""Classical flow of a time-dependent quadratic Hamiltonian on C^d.

The Hamiltonian is Q_t(z) = <z, alpha_t z> + Im<beta_t, z^(vee 2)>.
Its flow phi(t, t_start) = L(t) + A(t) is integrated in the doubled
form W = [L; conj A], dW/dt = G(t) W with
G = [[-i alpha, beta], [conj beta, i conj alpha]], by fixed-step RK4.

The coefficients are sampled for the whole grid and all step midpoints
in one call, and the Hermiticity of alpha is checked over that stack.
RK4 on a linear system advances each step by a matrix,
P = I + h/6 (K1 + 2 K2 + 2 K3 + K4); all step propagators are built as
batched products, and one pass of small products W_{k+1} = P_k W_k
follows.  The slopes G W at the grid points feed the dense output, a
cubic Hermite interpolant that matches the integrator's own order and
is evaluated for many times at once.  The unitary path u_alpha is the
classical flow of alpha alone (``integrate_u_alpha``): the same
integration with beta = 0, whose antilinear part stays exactly zero and
whose linear part is u_alpha.  It is a reference for the tests; the
Fock oracle integrates its own u_alpha on C^d with the generic RK4
(``_linear_rk4``) and Hermite rule (``_hermite``) here, so that it
shares no reading of alpha with the classical flow.
``unitarity_defect`` is the one rule for ||u*u - I||_2.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import SymplecticityError
from .symplectic import RLinearMap, doubled, symplectic_defects

_DEFECT_TOL = 1e-6
HERMITIAN_TOL = 1e-12


class _Sampler:
    """Matrix-valued function of time: zero, constant, callable, or
    linearly interpolated samples (held at the end values outside the
    sample times), read for a whole array of times at once."""

    def __init__(self, name, spec, shape):
        self.name = name
        self.shape = shape
        if spec is None:
            self.kind = "zero"
        elif callable(spec):
            self.kind = "callable"
            self.func = spec
        elif isinstance(spec, tuple) and len(spec) == 2:
            self.kind = "sampled"
            self.times = np.asarray(spec[0], dtype=float)
            self.values = np.asarray(spec[1], dtype=complex)
            if self.values.shape[1:] != shape or self.values.shape[0] != self.times.shape[0]:
                raise ValueError(f"sampled values must have shape (n_times,) + {shape}")
        else:
            mat = np.asarray(spec, dtype=complex)
            if mat.shape != shape:
                raise ValueError(f"expected shape {shape}, got {mat.shape}")
            self.kind = "constant"
            self.value = mat

    def is_zero(self):
        return self.kind == "zero"

    def _call(self, t) -> np.ndarray:
        value = np.asarray(self.func(t), dtype=complex)
        if value.shape != self.shape:
            raise ValueError(f"{self.name}(t={t}) returned shape {value.shape}, "
                             f"expected {self.shape}")
        return value

    def on(self, times: np.ndarray) -> np.ndarray:
        """The values at every entry of the 1-d array `times`, stacked."""
        n = len(times)
        if self.kind == "zero":
            return np.zeros((n,) + self.shape, dtype=complex)
        if self.kind == "constant":
            return np.broadcast_to(self.value, (n,) + self.shape)
        if self.kind == "callable":
            return np.stack([self._call(t) for t in times])
        idx = np.clip(np.searchsorted(self.times, times) - 1, 0, len(self.times) - 2)
        t0, t1 = self.times[idx], self.times[idx + 1]
        span = t1 - t0
        w = np.divide(times - t0, span, out=np.zeros(n), where=span != 0)
        w = np.clip(w, 0.0, 1.0)[:, None, None]
        return (1.0 - w) * self.values[idx] + w * self.values[idx + 1]


class QuadraticHamiltonian:
    """Time-sampled pair (alpha_t Hermitian, beta_t in the 2-vector sector)
    together with the integration grid.

    `alpha` may be None, a constant Hermitian matrix, a callable
    t -> matrix, or a (times, values) sample pair.  `beta` is the same
    with symmetric matrices holding the tensor coordinates of beta_t
    (equivalently the matrix of the induced antilinear map).
    """

    def __init__(self, dim, alpha=None, beta=None, t_start=0.0, t_end=1.0, dt=1e-3):
        self.dim = dim
        self.alpha = _Sampler("alpha", alpha, (dim, dim))
        self.beta = _Sampler("beta", beta, (dim, dim))
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.dt = float(dt)

    def alpha_on(self, times) -> np.ndarray:
        """alpha at each of `times`, stacked; raises at the first time
        where it is not Hermitian within HERMITIAN_TOL."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        a = self.alpha.on(times)
        off = np.abs(a - np.conj(a.mT)).max(axis=(1, 2))
        bad = np.flatnonzero(off > HERMITIAN_TOL)
        if bad.size:
            raise ValueError(f"alpha(t={times[bad[0]]}) is not Hermitian within {HERMITIAN_TOL:g}")
        return a

    def beta_on(self, times) -> np.ndarray:
        """The symmetrized beta at each of `times`, stacked."""
        b = self.beta.on(np.atleast_1d(np.asarray(times, dtype=float)))
        return (b + b.mT) / 2.0

    def beta_matrix(self, t: float) -> np.ndarray:
        return self.beta_on(t)[0]

    def grid(self):
        span = self.t_end - self.t_start
        n = max(1, int(round(span / self.dt)))
        return self.t_start + (span / n) * np.arange(n + 1)


def grid_index(grid, t: float) -> int:
    """Index of the point of `grid` at t; raises unless t is on the grid
    within 1e-9 relative."""
    k = int(np.argmin(np.abs(grid - t)))
    if abs(grid[k] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"t={t} is not on the time grid")
    return k


def rk4_times(grid) -> np.ndarray:
    """The times an RK4 pass over `grid` reads, in order: every grid
    point with the step midpoints between them."""
    times = np.empty(2 * len(grid) - 1)
    times[0::2], times[1::2] = grid, grid[:-1] + np.diff(grid) / 2
    return times


def _linear_rk4(grid, generator, w0):
    """RK4 for the linear system dW/dt = G(t) W, W(grid[0]) = w0.

    `generator(times)` returns G stacked over `times`; it is called once
    with every grid point and step midpoint, in time order.  The RK4
    update of a linear system is W_{k+1} = P_k W_k with
    P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = G(t), K2 = G(t + h/2)(I + h/2 K1),
    K3 = G(t + h/2)(I + h/2 K2), K4 = G(t + h)(I + h K3); every P_k is
    built in one batch.  The identity is kept out of the stored matrices:
    W + (P - I) W rounds like the plain RK4 update, while a formed
    I + (P - I) drops the low bits of the small increment at every step.
    Returns W and the slopes G W at the grid points, for dense output.
    """
    g = generator(rk4_times(grid))
    g_now, g_mid, g_next = g[:-1:2], g[1::2], g[2::2]
    hh = np.diff(grid)[:, None, None]
    eye = np.eye(g.shape[-1])
    k1 = g_now
    k2 = g_mid @ (eye + hh / 2 * k1)
    k3 = g_mid @ (eye + hh / 2 * k2)
    k4 = g_next @ (eye + hh * k3)
    increments = hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    values = np.empty((len(grid),) + w0.shape, dtype=complex)
    values[0] = w = w0
    for k, d in enumerate(increments):
        w = w + d @ w
        values[k + 1] = w
    return values, g[0::2] @ values


def _hermite(times, values, derivs, ts) -> np.ndarray:
    """Cubic Hermite interpolant of values and slopes (of any shape) at the
    knots `times`, at each of `ts`, clamped to the range; stacked over `ts`."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    k = np.clip(np.searchsorted(times, ts) - 1, 0, len(times) - 2)
    h = times[k + 1] - times[k]
    tau = np.clip((ts - times[k]) / h, 0.0, 1.0)
    tau[tau < 1e-12] = 0.0
    t2, t3 = tau * tau, tau * tau * tau
    col = (-1,) + (1,) * (values.ndim - 1)
    return ((2 * t3 - 3 * t2 + 1).reshape(col) * values[k]
            + ((t3 - 2 * t2 + tau) * h).reshape(col) * derivs[k]
            + (-2 * t3 + 3 * t2).reshape(col) * values[k + 1]
            + ((t3 - t2) * h).reshape(col) * derivs[k + 1])


def unitarity_defect(u) -> float:
    """||u*u - I||_2 of a complex array u with at least as many rows as
    columns: the largest |eigenvalue| of the Hermitian u*u - I.

    u*u comes from the float view F of u, interleaving the real and
    imaginary parts of each column, by one real product F^T F and no
    conjugate copy of u: its real part is the even/even block of F^T F
    plus the odd/odd block, its imaginary part the even/odd block minus
    the odd/even block.
    """
    # the float view needs unit stride along the rows
    f = (u if u.strides[-1] == u.itemsize else np.ascontiguousarray(u)).view(float)
    g = f.T @ f
    gram = np.empty((u.shape[1],) * 2, dtype=complex)
    np.add(g[0::2, 0::2], g[1::2, 1::2], out=gram.real)
    np.subtract(g[0::2, 1::2], g[1::2, 0::2], out=gram.imag)
    # F^T F is twice the Gram's size: freed before eigvalsh copies the Gram
    del g
    gram[np.diag_indices(len(gram))] -= 1.0
    return float(np.abs(np.linalg.eigvalsh(gram)).max())


class FlowResult:
    """The classical flow phi(t, t_start) = L(t) + A(t) on a time grid.

    Stores the doubled columns W = [L; conj A] with their RK4 slopes
    (for dense output); the per-node `defects` are computed on first read.
    """

    def __init__(self, times, values, derivs):
        self.times = times
        self.t_start = times[0]
        self._values, self._derivs = values, derivs
        self.linear, self.antilinear = _split(values)

    @cached_property
    def defects(self) -> np.ndarray:
        return np.maximum(*symplectic_defects(self.linear, self.antilinear))

    def grid_index(self, t: float) -> int:
        return grid_index(self.times, t)

    def phi(self, t: float) -> RLinearMap:
        """phi(t, t_start) at a grid time."""
        k = self.grid_index(t)
        return RLinearMap(self.linear[k], self.antilinear[k])

    def phi_on(self, times):
        """Dense output at each of `times`: the stacked (L, A) of
        phi(s, t_start)."""
        return _split(_hermite(self.times, self._values, self._derivs, times))

    def phi_at(self, s: float) -> RLinearMap:
        """Dense output: phi(s, t_start) anywhere in the time range."""
        lm, am = self.phi_on(s)
        return RLinearMap(lm[0], am[0])

    def max_defect(self) -> float:
        return float(self.defects.max())


def _split(w):
    """(L, A) stacks from doubled columns W = [L; conj A]."""
    d = w.shape[-1]
    return w[:, :d], np.conj(w[:, d:])


def _classical_flow(h: QuadraticHamiltonian, beta_on, t: float = None) -> FlowResult:
    """RK4 for the flow of z -> -i alpha z + beta conj(z) on the
    Hamiltonian's grid up to its point t (default t_end), and at least
    its first step, beta stacked over times by `beta_on`; raises if the
    terminal symplecticity defect exceeds 1e-6 or is inf."""
    # G is the doubled matrix of the R-linear vector field
    def generator(times):
        return doubled(-1j * h.alpha_on(times), beta_on(times))

    grid = h.grid()
    # one step at least: the dense output interpolates between two knots
    grid = grid if t is None else grid[:max(grid_index(grid, t), 1) + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        values, derivs = _linear_rk4(grid, generator, np.eye(2 * h.dim, h.dim, dtype=complex))
    result = FlowResult(grid, values, derivs)
    terminal = np.maximum(*symplectic_defects(result.linear[-1:], result.antilinear[-1:]))[0]
    if terminal > _DEFECT_TOL:
        raise SymplecticityError(
            f"terminal symplecticity defect {terminal:.3e} exceeds {_DEFECT_TOL:.1e}; "
            "reduce dt or check the Hamiltonian samplers")
    return result


def integrate_flow(h: QuadraticHamiltonian) -> FlowResult:
    """Integrate the classical flow of Q_t over the Hamiltonian's grid.

    Symplecticity is monitored, never re-imposed; a terminal defect
    above 1e-6 raises, and so does a flow that overflows (defect inf).
    """
    return _classical_flow(h, h.beta_on)


def integrate_u_alpha(h: QuadraticHamiltonian, t: float = None) -> FlowResult:
    """The unitary path u_alpha(s, t_start), i du/ds = alpha_s u with
    u(t_start) = I, as the classical flow of alpha alone (beta = 0), on
    the Hamiltonian's grid up to its point t (default t_end), and at
    least its first step.

    The result's antilinear part is exactly zero and its linear part is
    u_alpha, read at grid times by ``phi(s).linear`` and anywhere in
    between by ``phi_on(times)[0]``; the terminal check is that of
    `integrate_flow`, at t.  Neither the classical flow nor the Fock
    oracle uses this path: it is the reference for the oracle's own
    u_alpha, which RK4 integrates on C^d from alpha itself and which
    matches it to rounding.
    """
    return _classical_flow(h, lambda times: np.zeros((len(times), h.dim, h.dim), dtype=complex), t)


def v_vector(flow: FlowResult, t: float) -> np.ndarray:
    """Symmetric matrix of tensor coordinates of the 2-vector v_t,
    (L*A + (L*A)^T)/2 with <z1, L*(t) A(t) z2>, at a grid time (no
    interpolation)."""
    k = flow.grid_index(t)
    vmat = flow.linear[k].conj().T @ flow.antilinear[k]
    return (vmat + vmat.T) / 2.0
