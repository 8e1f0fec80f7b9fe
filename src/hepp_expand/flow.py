"""Classical flow of a time-dependent quadratic Hamiltonian on C^d.

The Hamiltonian is Q_t(z) = <z, alpha_t z> + Im<beta_t, z^(vee 2)>.
The flow is integrated in two stages: the one-particle unitary path
u_alpha generated by alpha alone, and the beta-only flow driven by the
rotated coefficient beta_hat_t = u_alpha(t,0)^(* vee 2) beta_t; the full
flow is their composition.  Fixed-step RK4 is used throughout, with the
unitary path integrated on a half-step grid so the beta-only stage sees
exact midpoint values.

Dense output between grid points is cubic Hermite interpolation of the
stored matrices using the RK4 right-hand-side values, which matches the
integrator's own order.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, SymplecticityError
from .symbols import SymTensor, beta_matrix_from_tensor
from .symplectic import RLinearMap, is_symplectomorphism


class _Sampler:
    """Matrix-valued function of time: zero, constant, callable, or
    linearly interpolated samples."""

    def __init__(self, spec, dim, shape):
        self.dim = dim
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
        self.alpha = _Sampler(alpha, dim, (dim, dim))
        self.beta = _Sampler(beta, dim, (dim, dim))
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


def _hermite(y0, y1, d0, d1, h, tau):
    t2, t3 = tau * tau, tau * tau * tau
    return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + tau) * h * d0
            + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * h * d1)


class UnitaryPath:
    """u_alpha(t, 0) sampled on a half-step grid with its derivative."""

    def __init__(self, times, mats, derivs):
        self.times = times
        self.matrices = mats
        self.derivs = derivs

    def at(self, t: float) -> np.ndarray:
        times = self.times
        if t <= times[0]:
            return self.matrices[0]
        if t >= times[-1]:
            return self.matrices[-1]
        idx = int(np.searchsorted(times, t) - 1)
        h = times[idx + 1] - times[idx]
        tau = (t - times[idx]) / h
        if tau < 1e-12:
            return self.matrices[idx]
        return _hermite(self.matrices[idx], self.matrices[idx + 1],
                        self.derivs[idx], self.derivs[idx + 1], h, tau)

    def unitarity_defect(self) -> float:
        u = self.matrices[-1]
        return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2))


def integrate_u_alpha(h: QuadraticHamiltonian) -> UnitaryPath:
    """Solve i du/dt = alpha_t u with u(t_start) = I by RK4 on a
    half-step grid (so full-step consumers get exact midpoints)."""
    grid = h.grid()
    dim = h.dim
    fine = np.empty(2 * (len(grid) - 1) + 1)
    fine[0::2] = grid
    fine[1::2] = (grid[:-1] + grid[1:]) / 2.0
    if h.alpha.is_zero():
        eye = np.eye(dim, dtype=complex)
        mats = np.broadcast_to(eye, (len(fine), dim, dim)).copy()
        return UnitaryPath(fine, mats, np.zeros_like(mats))

    def rhs(t, u):
        return -1j * (h.alpha_matrix(t) @ u)

    mats = np.empty((len(fine), dim, dim), dtype=complex)
    derivs = np.empty_like(mats)
    u = np.eye(dim, dtype=complex)
    for k, t in enumerate(fine):
        mats[k] = u
        derivs[k] = rhs(t, u)
        if k + 1 < len(fine):
            step = fine[k + 1] - t
            k1 = derivs[k]
            k2 = rhs(t + step / 2, u + step / 2 * k1)
            k3 = rhs(t + step / 2, u + step / 2 * k2)
            k4 = rhs(t + step, u + step * k3)
            u = u + (step / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return UnitaryPath(fine, mats, derivs)


class FlowResult:
    """The classical flow phi(t, t_start) on a time grid.

    Stores the unitary path, the beta-only flow (with RK4 derivatives
    for dense output) and the assembled flow, plus per-node
    symplecticity defects.
    """

    def __init__(self, hamiltonian, times, u_path, lhat, ahat, dlhat, dahat):
        self.hamiltonian = hamiltonian
        self.dim = hamiltonian.dim
        self.times = times
        self.u_path = u_path
        self.lhat, self.ahat = lhat, ahat
        self.dlhat, self.dahat = dlhat, dahat
        u_grid = np.array([u_path.at(t) for t in times])
        self.linear = np.einsum("kab,kbc->kac", u_grid, lhat)
        self.antilinear = np.einsum("kab,kbc->kac", u_grid, ahat)
        self.defects = np.array([
            max(r.gram_defect, r.cross_defect)
            for r in (is_symplectomorphism(RLinearMap(l, a), tol=1.0)
                      for l, a in zip(self.linear, self.antilinear))
        ])

    @property
    def t_start(self):
        return self.times[0]

    def grid_index(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not on the flow grid")
        return k

    def phi(self, t: float) -> RLinearMap:
        """phi(t, t_start) at a grid time."""
        k = self.grid_index(t)
        return RLinearMap(self.linear[k], self.antilinear[k])

    def phi_hat(self, t: float) -> RLinearMap:
        k = self.grid_index(t)
        return RLinearMap(self.lhat[k], self.ahat[k])

    def phi_at(self, s: float) -> RLinearMap:
        """Dense output: phi(s, t_start) anywhere in the time range."""
        times = self.times
        if s <= times[0]:
            k = 0
            lh, ah = self.lhat[0], self.ahat[0]
        elif s >= times[-1]:
            k = len(times) - 1
            lh, ah = self.lhat[-1], self.ahat[-1]
        else:
            k = int(np.searchsorted(times, s) - 1)
            h = times[k + 1] - times[k]
            tau = (s - times[k]) / h
            if tau < 1e-12:
                lh, ah = self.lhat[k], self.ahat[k]
            else:
                lh = _hermite(self.lhat[k], self.lhat[k + 1], self.dlhat[k], self.dlhat[k + 1], h, tau)
                ah = _hermite(self.ahat[k], self.ahat[k + 1], self.dahat[k], self.dahat[k + 1], h, tau)
        u = self.u_path.at(s)
        return RLinearMap(u @ lh, u @ ah)

    def phi_inverse_at(self, s: float) -> RLinearMap:
        """phi(t_start, s) as the symplectic inverse L* - A*."""
        return self.phi_at(s).inverse()

    def max_defect(self) -> float:
        return float(self.defects.max())


def integrate_flow(h: QuadraticHamiltonian, defect_tol: float = 1e-6) -> FlowResult:
    """Integrate the classical flow of Q_t over the Hamiltonian's grid.

    The beta-only part solves dL/dt = beta_hat conj(A),
    dA/dt = beta_hat conj(L); symplecticity is monitored, never
    re-imposed, and a terminal defect above `defect_tol` raises.
    """
    grid = h.grid()
    dim = h.dim
    u_path = integrate_u_alpha(h)
    has_alpha = not h.alpha.is_zero()

    def beta_hat(t, u=None):
        b = h.beta_matrix(t)
        if not has_alpha:
            return b
        if u is None:
            u = u_path.at(t)
        return u.conj().T @ b @ np.conj(u)

    def rhs(t, lm, am, u=None):
        bh = beta_hat(t, u)
        return bh @ np.conj(am), bh @ np.conj(lm)

    n = len(grid) - 1
    lhat = np.empty((n + 1, dim, dim), dtype=complex)
    ahat = np.empty_like(lhat)
    dlhat = np.empty_like(lhat)
    dahat = np.empty_like(lhat)
    lm = np.eye(dim, dtype=complex)
    am = np.zeros((dim, dim), dtype=complex)
    for k in range(n + 1):
        t = grid[k]
        lhat[k], ahat[k] = lm, am
        u_here = u_path.matrices[2 * k] if has_alpha else None
        dlhat[k], dahat[k] = rhs(t, lm, am, u_here)
        if k < n:
            step = grid[k + 1] - t
            u_mid = u_path.matrices[2 * k + 1] if has_alpha else None
            u_next = u_path.matrices[2 * k + 2] if has_alpha else None
            k1l, k1a = dlhat[k], dahat[k]
            k2l, k2a = rhs(t + step / 2, lm + step / 2 * k1l, am + step / 2 * k1a, u_mid)
            k3l, k3a = rhs(t + step / 2, lm + step / 2 * k2l, am + step / 2 * k2a, u_mid)
            k4l, k4a = rhs(t + step, lm + step * k3l, am + step * k3a, u_next)
            lm = lm + (step / 6) * (k1l + 2 * k2l + 2 * k3l + k4l)
            am = am + (step / 6) * (k1a + 2 * k2a + 2 * k3a + k4a)

    result = FlowResult(h, grid, u_path, lhat, ahat, dlhat, dahat)
    terminal = result.defects[-1]
    if terminal > defect_tol:
        raise SymplecticityError(
            f"terminal symplecticity defect {terminal:.3e} exceeds {defect_tol:.1e}; "
            "reduce dt or check the Hamiltonian samplers")
    return result


def v_vector(flow: FlowResult, t: float) -> np.ndarray:
    """Symmetric matrix of tensor coordinates of the 2-vector v_t,
    (L*A + (L*A)^T)/2 with <z1, L*(t) A(t) z2>, at a grid time (no
    interpolation)."""
    k = flow.grid_index(t)
    vmat = flow.linear[k].conj().T @ flow.antilinear[k]
    return (vmat + vmat.T) / 2.0
