"""R-linear operators on C^d split into linear and antilinear parts.

An R-linear map T acts as z -> M_L z + M_A conj(z).  Storing the
antilinear part by the matrix of z -> M_A conj(z) makes the antilinear
adjoint a plain transpose, which keeps all the adjoint identities
one-line matrix facts.

The module provides the Banach-algebra operations (composition,
adjoint, norm), the symplectomorphism predicate with its defect report,
and the reduction T = u e^{c rho} of a symplectomorphism into a unitary,
a conjugation and a non-negative squeezing spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

# `decompose`: |L| eigenvalues within this relative distance form one
# group, and a group whose antilinear part has at most this norm keeps rho = 0
_GROUP_RTOL = 1e-9
_ZERO_TOL = 1e-12

class RLinearMap:
    """An R-linear operator on C^d as a (linear, antilinear) matrix pair.

    Both parts may also be (P, d, d) stacks: the map then holds P samples,
    and composition, adjoint, inverse, the doubled matrix and `norm_x`
    act sample by sample.
    """

    __slots__ = ("dim", "linear", "antilinear")

    def __init__(self, linear, antilinear=None):
        linear = np.asarray(linear, dtype=complex)
        if antilinear is None:
            antilinear = np.zeros_like(linear)
        antilinear = np.asarray(antilinear, dtype=complex)
        if linear.shape != antilinear.shape or linear.ndim < 2 or linear.shape[-1] != linear.shape[-2]:
            raise ValueError("linear and antilinear parts must be equal square matrices")
        self.dim = linear.shape[-1]
        self.linear = linear
        self.antilinear = antilinear

    @classmethod
    def identity(cls, dim: int) -> "RLinearMap":
        return cls(np.eye(dim))

    def apply(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return self.linear @ z + self.antilinear @ np.conj(z)

    __call__ = apply

    def compose(self, other: "RLinearMap") -> "RLinearMap":
        """self after other; antilinear factors conjugate what they pass over."""
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")
        lin = self.linear @ other.linear + self.antilinear @ np.conj(other.antilinear)
        anti = self.linear @ other.antilinear + self.antilinear @ np.conj(other.linear)
        return RLinearMap(lin, anti)

    __matmul__ = compose

    def adjoint(self) -> "RLinearMap":
        """L* + A*: conjugate transpose of the linear part, plain transpose
        of the antilinear matrix."""
        return RLinearMap(np.conj(self.linear.mT), self.antilinear.mT)

    def doubled(self) -> np.ndarray:
        """The 2d x 2d matrix [[L, A], [conj A, conj L]] by which T acts
        on the doubled variables w = (z, conj z)."""
        return doubled(self.linear, self.antilinear)

    def inverse(self) -> "RLinearMap":
        """Inverse valid for symplectomorphisms: L* - A*."""
        return RLinearMap(np.conj(self.linear.mT), -self.antilinear.mT)

    def __add__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")
        return RLinearMap(self.linear + other.linear, self.antilinear + other.antilinear)

    def __sub__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")
        return RLinearMap(self.linear - other.linear, self.antilinear - other.antilinear)

    def norm_x(self):
        """Banach-algebra norm: operator norm of L plus HS norm of A; one
        per sample, shape (P,), for a stack."""
        return np.linalg.norm(self.linear, 2, axis=(-2, -1)) + euclidean_norm(self.antilinear, 2)

    def distance(self, other: "RLinearMap") -> float:
        return (self - other).norm_x()

    def __repr__(self):
        return f"RLinearMap(dim={self.dim})"


@dataclass
class SymplecticityReport:
    """Defects of the two relations L*L - A*A = I and L*A = A*L."""

    ok: bool
    gram_defect: float
    cross_defect: float
    tol: float

    def __bool__(self):
        return self.ok


def euclidean_norm(x, axes: int = 1):
    """Euclidean norm over the last `axes` axes of x, one per index of the
    leading ones.

    It is taken from BLAS dot products of the real and imaginary parts,
    as np.linalg.norm takes the norm of a whole vector or matrix, so one
    sample gets the same bits as np.linalg.norm(sample).
    """
    x = np.asarray(x)
    flat = x.reshape(x.shape[:x.ndim - axes] + (-1,))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def doubled(linear, antilinear) -> np.ndarray:
    """[[L, A], [conj A, conj L]] for one (L, A) pair or stacks of them."""
    top = np.concatenate([linear, antilinear], axis=-1)
    bottom = np.concatenate([antilinear, linear], axis=-1)
    return np.concatenate([top, np.conj(bottom)], axis=-2)


def symplectic_defects(linear, antilinear):
    """Operator norms of L*L - A*A - I and L*A - A*L, for one (L, A) pair
    or elementwise over stacks of them."""
    lh, at = np.conj(linear.mT), antilinear.mT
    gram = lh @ linear - at @ np.conj(antilinear) - np.eye(linear.shape[-1])
    cross = lh @ antilinear - at @ np.conj(linear)
    return np.linalg.norm(gram, 2, axis=(-2, -1)), np.linalg.norm(cross, 2, axis=(-2, -1))


def is_symplectomorphism(t: RLinearMap, tol: float = 1e-10) -> SymplecticityReport:
    """Check L*L - A*A = I and L*A = A*L in operator norm."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    gram_defect, cross_defect = map(float, symplectic_defects(t.linear, t.antilinear))
    ok = gram_defect <= tol and cross_defect <= tol
    return SymplecticityReport(ok, gram_defect, cross_defect, tol)


class SymplectoDecomposition:
    """A symplectomorphism reduced to u e^{c rho}.

    `unitary` is the polar unitary of the linear part, `conj_basis` holds
    the orthonormal fixed vectors of the conjugation c as columns, and
    `rho_eigs` the non-negative squeezing parameters in that basis.
    """

    __slots__ = ("dim", "unitary", "conj_basis", "rho_eigs")

    def __init__(self, unitary, conj_basis, rho_eigs):
        self.unitary = np.asarray(unitary, dtype=complex)
        self.conj_basis = np.asarray(conj_basis, dtype=complex)
        self.rho_eigs = np.asarray(rho_eigs, dtype=float)
        self.dim = self.unitary.shape[0]

    def reconstruct(self) -> RLinearMap:
        return RLinearMap(self.unitary).compose(exp_antilinear(self.conj_basis, self.rho_eigs))


def exp_antilinear(conj_basis, rho_eigs) -> RLinearMap:
    """e^{c rho} = cosh(rho) + c sinh(rho) for rho diagonal in the
    conjugation's fixed basis (or stacks of bases and rho vectors)."""
    e = np.asarray(conj_basis, dtype=complex)
    rho = np.asarray(rho_eigs, dtype=float)[..., None, :]
    if np.any(rho < 0):
        raise ValueError("rho eigenvalues must be non-negative")
    lin = (e * np.cosh(rho)) @ np.conj(e.mT)
    anti = (e * np.sinh(rho)) @ e.mT
    return RLinearMap(lin, anti)


def _fixed_basis_of_antilinear(f_mat: np.ndarray):
    """Eigen-decompose a self-adjoint antilinear map z -> F conj(z).

    Realified, the map is the symmetric matrix [[X, Y], [Y, -X]] with
    F = X + iY; its spectrum comes in +/- pairs and the positive
    eigenvectors give a C-orthonormal basis with f(e_j) = lam_j e_j,
    lam_j >= 0.
    Returns (basis columns, lam values) sorted by descending lam.
    """
    k = f_mat.shape[0]
    x, y = f_mat.real, f_mat.imag
    r = np.block([[x, y], [y, -x]])
    w, v = np.linalg.eigh((r + r.T) / 2.0)
    order = np.argsort(w)[::-1][:k]
    vecs = v[:, order]
    basis = vecs[:k, :] + 1j * vecs[k:, :]
    lam = np.clip(w[order], 0.0, None)
    return basis, lam


def decompose(t: RLinearMap, tol: float = 1e-8) -> SymplectoDecomposition:
    """Reduce a symplectomorphism to u e^{c rho}.

    Polar-decompose L = u|L|; then u* T = |L| + A' with A' self-adjoint
    antilinear and commuting with |L|.  Within each eigenvalue group of
    |L| (relative tolerance `_GROUP_RTOL`) the antilinear part is reduced
    on its own; groups whose antilinear norm is at most `_ZERO_TOL` keep
    rho = 0 and any orthonormal basis.
    """
    report = is_symplectomorphism(t, tol)
    if not report.ok:
        raise ValueError(
            f"input is not a symplectomorphism within tol={tol}: "
            f"defects ({report.gram_defect:.3e}, {report.cross_defect:.3e})"
        )
    d = t.dim
    w, sig, vh = np.linalg.svd(t.linear)
    u = w @ vh
    v = vh.conj().T  # columns: eigenbasis of |L| with eigenvalues sig
    a_prime = u.conj().T @ t.antilinear

    basis_cols = []
    rho_vals = []
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and abs(sig[stop] - sig[start]) <= _GROUP_RTOL * sig[start]:
            stop += 1
        p = v[:, start:stop]
        a_sub = p.conj().T @ a_prime @ np.conj(p)
        if np.linalg.norm(a_sub, 2) <= _ZERO_TOL:
            basis_cols.append(p)
            rho_vals.extend([0.0] * (stop - start))
        else:
            f_basis, lam = _fixed_basis_of_antilinear((a_sub + a_sub.T) / 2.0)
            basis_cols.append(p @ f_basis)
            # arccosh of mu evaluated through lam = sinh(rho): exact for
            # mu^2 - lam^2 = 1 and stable when mu is close to 1.
            rho_vals.extend(np.log(np.sqrt(1.0 + lam**2) + lam).tolist())
        start = stop
    basis = np.concatenate(basis_cols, axis=1)
    return SymplectoDecomposition(u, basis, np.array(rho_vals))


def random_symplectomorphism(rng: np.random.Generator, dim: int,
                             rho_scale: float = 0.7, samples: int = None) -> RLinearMap:
    """Draw u e^{c rho} from Haar-ish unitaries and random conjugation data.

    Given `samples`, draw a stack of that many maps at once; one map is
    the draw of a stack of one, from the same random stream.
    """
    lead = () if samples is None else (samples,)
    u = _random_unitary(rng, lead + (dim, dim))
    e = _random_unitary(rng, lead + (dim, dim))
    rho = rho_scale * rng.random(lead + (dim,))
    return RLinearMap(u).compose(exp_antilinear(e, rho))


def _random_unitary(rng: np.random.Generator, shape) -> np.ndarray:
    """Unitaries of the given (..., dim, dim) shape, by batched QR."""
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]
