"""Classical flow of a time-dependent quadratic Hamiltonian on C^d.

The Hamiltonian is Q_t(z) = <z, alpha_t z> + Im<beta_t, z^(vee 2)>.
Its flow phi(t, t_start) = L(t) + A(t) is integrated directly as the
pair y = (L, A) with dL/dt = -i alpha L + beta conj(A) and
dA/dt = -i alpha A + beta conj(L), by fixed-step RK4 that evaluates
the coefficients once per grid point and once per step midpoint.

Dense output between grid points is cubic Hermite interpolation of the
stored values using the RK4 right-hand sides, which matches the
integrator's own order.  The same stepper and interpolant give the
unitary path u_alpha of alpha alone, which only the Fock oracle uses.
"""

from __future__ import annotations

import numpy as np

from .errors import SymplecticityError
from .symbols import SymTensor, beta_matrix_from_tensor
from .symplectic import RLinearMap, is_symplectomorphism

_DEFECT_TOL = 1e-6


class _Sampler:
    """Matrix-valued function of time: zero, constant, callable, or
    linearly interpolated samples."""

    def __init__(self, spec, shape):
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

    def at(self, t: float) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(self.shape, dtype=complex)
        if self.kind == "constant":
            return self.value
        if self.kind == "callable":
            return np.asarray(self.func(t), dtype=complex)
        idx = np.clip(np.searchsorted(self.times, t) - 1, 0, len(self.times) - 2)
        t0, t1 = self.times[idx], self.times[idx + 1]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        w = min(max(w, 0.0), 1.0)
        return (1.0 - w) * self.values[idx] + w * self.values[idx + 1]


class QuadraticHamiltonian:
    """Time-sampled pair (alpha_t Hermitian, beta_t in the 2-vector sector)
    together with the integration grid.

    `alpha` may be None, a constant Hermitian matrix, a callable
    t -> matrix, or a (times, values) sample pair.  `beta` is the same
    with symmetric matrices holding the tensor coordinates of beta_t
    (equivalently the matrix of the induced antilinear map); a
    (0 -> 2) SymTensor is accepted for the constant case.
    """

    def __init__(self, dim, alpha=None, beta=None, t_start=0.0, t_end=1.0, dt=1e-3):
        self.dim = dim
        if isinstance(beta, SymTensor):
            beta = beta_matrix_from_tensor(beta)
        self.alpha = _Sampler(alpha, (dim, dim))
        self.beta = _Sampler(beta, (dim, dim))
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.dt = float(dt)

    def alpha_matrix(self, t: float) -> np.ndarray:
        a = self.alpha.at(t)
        if np.abs(a - a.conj().T).max() > 1e-12:
            raise ValueError(f"alpha(t={t}) is not Hermitian within 1e-12")
        return a

    def beta_matrix(self, t: float) -> np.ndarray:
        b = self.beta.at(t)
        return (b + b.T) / 2.0

    def grid(self):
        span = self.t_end - self.t_start
        n = max(1, int(round(span / self.dt)))
        return self.t_start + (span / n) * np.arange(n + 1)


def _rk4(grid, y0, coefficients, rhs):
    """Classical RK4 for dy/dt = rhs(c(t), y) over `grid`.

    `coefficients(t)` is evaluated once per distinct time (each grid
    point and each step midpoint).  Returns the values and the
    right-hand sides at the grid points, for dense output.
    """
    values = np.empty((len(grid),) + y0.shape, dtype=complex)
    derivs = np.empty_like(values)
    y, c_now = y0, coefficients(grid[0])
    for k, t in enumerate(grid):
        values[k] = y
        derivs[k] = rhs(c_now, y)
        if k + 1 < len(grid):
            step = grid[k + 1] - t
            c_mid, c_now = coefficients(t + step / 2), coefficients(grid[k + 1])
            k1 = derivs[k]
            k2 = rhs(c_mid, y + step / 2 * k1)
            k3 = rhs(c_mid, y + step / 2 * k2)
            k4 = rhs(c_now, y + step * k3)
            y = y + (step / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return values, derivs


def _dense(times, values, derivs, t):
    """Cubic Hermite interpolant of RK4 output at t, clamped to the range."""
    if t <= times[0]:
        return values[0]
    if t >= times[-1]:
        return values[-1]
    k = int(np.searchsorted(times, t) - 1)
    h = times[k + 1] - times[k]
    tau = (t - times[k]) / h
    if tau < 1e-12:
        return values[k]
    t2, t3 = tau * tau, tau * tau * tau
    return ((2 * t3 - 3 * t2 + 1) * values[k] + (t3 - 2 * t2 + tau) * h * derivs[k]
            + (-2 * t3 + 3 * t2) * values[k + 1] + (t3 - t2) * h * derivs[k + 1])


class UnitaryPath:
    """u_alpha(t, t_start) on the Hamiltonian's grid with its derivative."""

    def __init__(self, times, mats, derivs):
        self.times = times
        self.matrices = mats
        self.derivs = derivs

    def at(self, t: float) -> np.ndarray:
        return _dense(self.times, self.matrices, self.derivs, t)

    def unitarity_defect(self) -> float:
        u = self.matrices[-1]
        return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2))


def integrate_u_alpha(h: QuadraticHamiltonian) -> UnitaryPath:
    """Solve i du/dt = alpha_t u with u(t_start) = I by RK4 on the grid.

    The classical flow does not use this path; the Fock oracle takes
    its interaction picture from it.
    """
    grid = h.grid()
    mats, derivs = _rk4(grid, np.eye(h.dim, dtype=complex), h.alpha_matrix,
                        lambda a, u: -1j * (a @ u))
    return UnitaryPath(grid, mats, derivs)


class FlowResult:
    """The classical flow phi(t, t_start) = L(t) + A(t) on a time grid.

    Stores L and A with their RK4 derivatives (for dense output) and
    the per-node symplecticity defects.
    """

    def __init__(self, times, values, derivs):
        self.times = times
        self.t_start = times[0]
        self._values, self._derivs = values, derivs
        self.linear, self.antilinear = values[:, 0], values[:, 1]
        self.defects = np.array([
            max(r.gram_defect, r.cross_defect)
            for r in (is_symplectomorphism(RLinearMap(l, a), tol=1.0)
                      for l, a in zip(self.linear, self.antilinear))
        ])

    def grid_index(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not on the flow grid")
        return k

    def phi(self, t: float) -> RLinearMap:
        """phi(t, t_start) at a grid time."""
        k = self.grid_index(t)
        return RLinearMap(self.linear[k], self.antilinear[k])

    def phi_at(self, s: float) -> RLinearMap:
        """Dense output: phi(s, t_start) anywhere in the time range."""
        lm, am = _dense(self.times, self._values, self._derivs, s)
        return RLinearMap(lm, am)

    def phi_inverse_at(self, s: float) -> RLinearMap:
        """phi(t_start, s) as the symplectic inverse L* - A*."""
        return self.phi_at(s).inverse()

    def max_defect(self) -> float:
        return float(self.defects.max())


def _flow_rhs(c, y):
    # y = (L, A): dL/dt = -i alpha L + beta conj(A), dA/dt = -i alpha A + beta conj(L)
    alpha, beta = c
    return -1j * (alpha @ y) + beta @ np.conj(y[::-1])


def integrate_flow(h: QuadraticHamiltonian) -> FlowResult:
    """Integrate the classical flow of Q_t over the Hamiltonian's grid.

    Symplecticity is monitored, never re-imposed; a terminal defect
    above 1e-6 raises.
    """
    grid = h.grid()
    y0 = np.stack([np.eye(h.dim, dtype=complex), np.zeros((h.dim, h.dim), dtype=complex)])
    values, derivs = _rk4(grid, y0, lambda t: (h.alpha_matrix(t), h.beta_matrix(t)),
                          _flow_rhs)
    result = FlowResult(grid, values, derivs)
    terminal = result.defects[-1]
    if terminal > _DEFECT_TOL:
        raise SymplecticityError(
            f"terminal symplecticity defect {terminal:.3e} exceeds {_DEFECT_TOL:.1e}; "
            "reduce dt or check the Hamiltonian samplers")
    return result


def v_vector(flow: FlowResult, t: float) -> np.ndarray:
    """Symmetric matrix of tensor coordinates of the 2-vector v_t,
    (L*A + (L*A)^T)/2 with <z1, L*(t) A(t) z2>, at a grid time (no
    interpolation)."""
    k = flow.grid_index(t)
    vmat = flow.linear[k].conj().T @ flow.antilinear[k]
    return (vmat + vmat.T) / 2.0
