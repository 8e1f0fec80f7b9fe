"""Wick polynomials on C^d and their calculus in doubled variables.

A monomial of order (p, q) is z -> <z^(vee q), b~ z^(vee p)> with
coefficient b~ a linear map between symmetric sectors, a (dim_q x dim_p)
matrix in the shared occupation bases of :mod:`hepp_expand.sectors`.

A polynomial is stored in the doubled variables w = (z, conj z) on
C^{2d}: the part of total order m is one coefficient vector c_m on the
m-sector of C^{2d} (`PolySymbol.vectors`), where c_m[kappa] multiplies
the plain monomial w^kappa = conj(z)^mu z^nu for kappa = (nu, mu) and
equals the operator coefficient times sqrt(q!/mu!) sqrt(p!/nu!).  The
canonical (p, q) blocks are a read-only view (`PolySymbol.terms`) for
JSON, the norms and the reference quantization.  On the vectors

- d/dw_i is one gather per degree (d/dz_i for i < d, d/dzbar_{i-d}
  otherwise), and the pointwise product adds occupations;
- an R-linear map T = L + A acts on w by its doubled matrix
  [[L, A], [conj A, conj L]], so b o T applies the m-th symmetric power
  of that matrix to c_m, one index at a time through the raise tables
  on arrays of sector size times 2d;
- every second-order operator is sum_ij K_ij d_wi d_wj b for a symmetric
  2d x 2d matrix K (`apply_second_order_operator`).

A stack of P polynomials keeps a trailing axis of P samples on every
vector, (S_m, P), and a leading one on every canonical block,
(P, dim_q, dim_p).  Sums, scalar multiples, the canonical view,
`norm_p`, `compose_rlinear` and the second-order operators act sample by
sample, and one polynomial is the case without that axis, so both take
the same arithmetic; evaluation, the calculus and JSON take one
polynomial.

The duality pairing of a k-form against a k-vector (`contraction`),
from which the Wick product is built, sums (d_z^k b1)_(i1..ik) (d_zbar^k b2)_(i1..ik) over ordered index
tuples; that equals the multinomial-weighted sum over Wirtinger
derivatives sum_{|kap|=k} (k!/kap!) D_z^kap b1 D_zbar^kap b2.
"""

from __future__ import annotations

import math

import numpy as np

from . import sectors as sec
from .errors import DimensionMismatchError, ScenarioError
from .symplectic import euclidean_norm


# ---------------------------------------------------------------------------
# derivatives of the doubled-variable vectors

def _grad(c: np.ndarray, m: int, n: int, sel=slice(None)) -> np.ndarray:
    """First derivatives d/dw_i, i in `sel`, of degree-m rows c of shape
    (S_m, ...) over C^n: shape (S_{m-1}, |sel|, ...)."""
    up, weight = sec.raise_table(n, m - 1)
    up, weight = up[:, sel], weight[:, sel]
    return c[up] * weight.reshape(weight.shape + (1,) * (c.ndim - 1))


def _derivatives(c: np.ndarray, m: int, n: int, sel, k: int) -> np.ndarray:
    """All k-th derivatives along `sel` of degree-m rows c of shape
    (S_m, ...), as an (S_{m-k}, |sel|^k, ...) array over ordered index
    tuples."""
    trailing = c.shape[1:]
    for j in range(k):
        c = _grad(c, m - j, n, sel)
    return c.reshape((c.shape[0], -1) + trailing)


class PolySymbol:
    """A Wick polynomial: finite sum of (p, q)-monomials on C^dim, stored
    as one plain-coefficient vector per total order (`vectors`), or a
    stack of P of them, (S_m, P)."""

    __slots__ = ("dim", "vectors")

    def __init__(self, dim: int, terms=None):
        """Build from canonical blocks: (p, q) -> (dim_q x dim_p) matrix,
        or (P, dim_q, dim_p) for a stack."""
        vectors = {}
        for (p, q), arr in (terms or {}).items():
            arr = np.asarray(arr, dtype=complex)
            if min(p, q) < 0:
                raise ValueError(f"term ({p},{q}): orders must be non-negative")
            expected = (sec.sector_dim(dim, q), sec.sector_dim(dim, p))
            if arr.shape[-2:] != expected:
                raise ValueError(f"term ({p},{q}) has shape {arr.shape}, expected {expected}")
            m = p + q
            if m not in vectors:
                vectors[m] = np.zeros((sec.sector_dim(2 * dim, m),) + arr.shape[:-2],
                                      dtype=complex)
            grid, scale = sec.doubled_positions(dim, m)[p]
            vectors[m].T[..., grid] = arr * scale
        self.dim = dim
        self.vectors = {m: c for m, c in vectors.items() if np.any(c)}

    @classmethod
    def _from_vectors(cls, dim: int, vectors: dict) -> "PolySymbol":
        """The symbol with these per-order vectors; all-zero orders dropped."""
        out = cls.__new__(cls)
        out.dim = dim
        out.vectors = {m: c for m, c in vectors.items() if np.any(c)}
        return out

    @property
    def terms(self) -> dict:
        """The canonical view, rebuilt on each access: (p, q) -> operator
        coefficient as a read-only (dim_q x dim_p) matrix, all-zero blocks
        left out."""
        out = {}
        for m, c in self.vectors.items():
            for p, (grid, scale) in enumerate(sec.doubled_positions(self.dim, m)):
                block = c.T.take(grid, axis=-1) / scale
                if np.any(block):
                    block.setflags(write=False)
                    out[(p, m - p)] = block
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "PolySymbol":
        return cls._from_vectors(dim, {})

    @classmethod
    def constant(cls, dim: int, value: complex) -> "PolySymbol":
        return cls._from_vectors(dim, {0: np.array([value], dtype=complex)})

    @classmethod
    def monomial(cls, dim: int, m_occ, n_occ, coeff: complex = 1.0) -> "PolySymbol":
        """The polynomial coeff * conj(z)^m z^n for occupation exponents."""
        m_occ, n_occ = tuple(m_occ), tuple(n_occ)
        if len(m_occ) != dim or len(n_occ) != dim:
            raise DimensionMismatchError(f"occupations {m_occ}, {n_occ} for dim {dim}")
        m = sum(m_occ) + sum(n_occ)
        c = np.zeros(sec.sector_dim(2 * dim, m), dtype=complex)
        c[sec.rank(n_occ + m_occ)] = coeff
        return cls._from_vectors(dim, {m: c})

    # -- structure ----------------------------------------------------------

    def degree(self, tol: float = 0.0) -> int:
        """Max total order among (p, q) blocks with some |canonical
        coefficient| > tol."""
        if tol == 0.0:
            return max(self.vectors, default=0)
        degs = [p + q for (p, q), a in self.terms.items() if np.abs(a).max() > tol]
        return max(degs) if degs else 0

    def is_zero(self) -> bool:
        return not self.vectors

    # -- algebra ------------------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "PolySymbol") -> "PolySymbol":
        self._check_dim(other)
        out = dict(self.vectors)
        for m, c in other.vectors.items():
            out[m] = out[m] + c if m in out else c
        return PolySymbol._from_vectors(self.dim, out)

    def __sub__(self, other: "PolySymbol") -> "PolySymbol":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, PolySymbol):
            return contraction(self, other, 0)
        return PolySymbol._from_vectors(self.dim, {m: other * c for m, c in self.vectors.items()})

    __rmul__ = __mul__

    def conj(self) -> "PolySymbol":
        """Complex conjugate polynomial; coefficients become adjoints."""
        return PolySymbol(self.dim, {(q, p): a.conj().T for (p, q), a in self.terms.items()})

    def evaluate(self, z) -> complex:
        """sum_m c_m . w^kappa at w = (z, conj z)."""
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.dim,):
            raise DimensionMismatchError(f"point has shape {z.shape}, dim is {self.dim}")
        w = np.concatenate([z, z.conj()])
        total = 0.0 + 0.0j
        for m, c in self.vectors.items():
            total += np.prod(w ** sec.occupation_array(2 * self.dim, m), axis=1) @ c
        return complex(total)

    __call__ = evaluate

    def norm_p(self):
        """Sum of sector operator norms of the coefficients; one per
        sample, shape (P,), for a stack.

        A block with one row or one column has its Euclidean norm as
        operator norm; the others take their largest singular value.
        """
        total = 0.0
        for m, c in self.vectors.items():
            for grid, scale in sec.doubled_positions(self.dim, m):
                block = c.T.take(grid, axis=-1) / scale
                if min(scale.shape) == 1:
                    total = total + euclidean_norm(block, 2)
                else:
                    total = total + np.linalg.svd(block, compute_uv=False)[..., 0]
        return total

    def distance_max(self, other: "PolySymbol") -> float:
        """Max |difference| over coefficients in the canonical packing."""
        self._check_dim(other)
        mine, theirs = self.terms, other.terms
        worst = 0.0
        for key in set(mine) | set(theirs):
            diff = mine.get(key, 0) - theirs.get(key, 0)
            worst = max(worst, float(np.abs(diff).max()))
        return worst

    def distance_p(self, other: "PolySymbol") -> float:
        return (self - other).norm_p()

    # -- calculus ------------------------------------------------------------

    def compose_rlinear(self, t) -> "PolySymbol":
        """The polynomial z -> b(T z) for an R-linear map T.

        T acts on w = (z, conj z) by its doubled matrix N, so each order m
        maps by the m-th symmetric power of N, contracted into one index
        at a time on sector-sized arrays: after k steps the tensor entries
        c / multinomial are held as (S_{m-k} free indices) x (S_k new
        ones), both sides symmetric.  A step gathers the free index out
        through the raise table, contracts it with N into a new index j,
        and keeps, per position of sector k + 1, one (position in sector
        k, j) pair that raises onto it.  An antilinear part mixes the
        (p, q) grading but preserves total order.  For a stack of P
        polynomials, T is one map or a stack of P maps, sample p composed
        with map p; one map takes every sample's rows in one product.  A
        stack of maps with any other number of samples is refused.
        """
        if self.dim != t.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {t.dim}")
        n = 2 * self.dim
        doubled = t.doubled()
        out = {}
        for m, c in self.vectors.items():
            multinomial = math.factorial(m) / sec.occ_factorials(n, m)
            # (samples, free positions, held positions) for a stack
            lead = c.shape[1:]
            if doubled.ndim == 3 and lead != doubled.shape[:1]:
                raise DimensionMismatchError(
                    f"a stack of {len(doubled)} maps needs as many polynomial samples, got "
                    + (f"{lead[0]}" if lead else "one polynomial with no sample axis"))
            held = (c.T / multinomial)[..., None]
            for k in range(m):
                up = sec.raise_table(n, m - k - 1)[0]
                # (samples, free positions left, held positions, free index i)
                rows = held.take(up, axis=-2).swapaxes(-1, -2)
                rows = rows.reshape((-1, n) if doubled.ndim == 2 else lead + (-1, n))
                held = (rows @ doubled).reshape(lead + (len(up), -1)).take(
                    sec.raise_pick(n, k), axis=-1)
            out[m] = (held[..., 0, :] * multinomial).T
        return PolySymbol._from_vectors(self.dim, out)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """JSON form: non-decreasing 1-based multi-indices and the
        canonical (operator) coefficients."""
        entries = []
        for (p, q), b in sorted(self.terms.items()):
            idx_q, idx_p = sec.index_tuples(self.dim, q), sec.index_tuples(self.dim, p)
            rows, cols = np.nonzero(b)
            vals = b[rows, cols]
            entries.append({"p": p, "q": q, "entries": [
                [list(idx_q[mi]), list(idx_p[ni]), re, im] for mi, ni, re, im
                in zip(rows.tolist(), cols.tolist(), vals.real.tolist(), vals.imag.tolist())]})
        return {"dim": self.dim, "terms": entries}

    @classmethod
    def from_json(cls, data: dict) -> "PolySymbol":
        dim = int(data["dim"])
        terms = {}
        for td in data.get("terms", []):
            p, q = int(td["p"]), int(td["q"])
            arr = terms.setdefault((p, q), np.zeros((sec.sector_dim(dim, q),
                                                     sec.sector_dim(dim, p)), dtype=complex))
            idx, vals = [], []
            for k, (m_idx, n_idx, re, im) in enumerate(td["entries"]):
                if (len(m_idx), len(n_idx)) != (q, p) or not all(
                        isinstance(i, int) and 1 <= i <= dim for i in [*m_idx, *n_idx]):
                    raise ScenarioError(f"observable term (p={p}, q={q}), entry {k}: index "
                                        f"lists {m_idx} and {n_idx} must hold {q} and {p} "
                                        f"integers in 1..{dim}")
                idx.append([*m_idx, *n_idx])
                vals.append(re + 1j * im)
            # occupations of the conj(z) side (q indices) and of the z side (p)
            hits = np.array(idx, dtype=np.int64).reshape(len(idx), q + p, 1) == np.arange(1, dim + 1)
            # unbuffered: the entries of one position are summed in the order given
            np.add.at(arr, (sec.rank(hits[:, :q].sum(axis=1)), sec.rank(hits[:, q:].sum(axis=1))),
                      np.array(vals, dtype=complex))
        return cls(dim, terms)

    def __repr__(self):
        return f"PolySymbol(dim={self.dim}, orders={sorted(self.vectors)})"


# ---------------------------------------------------------------------------
# bilinear calculus

def contraction(b1: PolySymbol, b2: PolySymbol, k: int) -> PolySymbol:
    """The degree-lowering pairing (d_z^k b1) . (d_zbar^k b2) as a polynomial.

    Per pair of orders: the k-th z-derivatives of b1 against the k-th
    zbar-derivatives of b2 over ordered index tuples, multiplied as
    polynomials.  k = 0 is the pointwise product.
    """
    if b1.dim != b2.dim:
        raise DimensionMismatchError(f"dim {b1.dim} vs {b2.dim}")
    d, n = b1.dim, 2 * b1.dim
    left = {m - k: _derivatives(c, m, n, slice(0, d), k)
            for m, c in b1.vectors.items() if m >= k}
    right = {m - k: _derivatives(c, m, n, slice(d, n), k)
             for m, c in b2.vectors.items() if m >= k}
    out = {}
    for m1, a1 in left.items():
        for m2, a2 in right.items():
            if m1 + m2 not in out:
                out[m1 + m2] = np.zeros(sec.sector_dim(n, m1 + m2), dtype=complex)
            np.add.at(out[m1 + m2], sec.merge_map(n, m1, m2), a1 @ a2.T)
    return PolySymbol._from_vectors(d, out)


def wick_product_symbol(b1: PolySymbol, b2: PolySymbol, epsilon: float) -> PolySymbol:
    """Symbol of the operator product b1^Wick b2^Wick:
    sum_k (eps^k / k!) (d_z^k b1) . (d_zbar^k b2)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if b1.dim != b2.dim:
        raise DimensionMismatchError(f"dim {b1.dim} vs {b2.dim}")
    out = PolySymbol.zero(b1.dim)
    for k in range(min(b1.degree(), b2.degree()) + 1):
        out = out + (epsilon**k / math.factorial(k)) * contraction(b1, b2, k)
    return out


def second_order_kernel(mixed, pair) -> np.ndarray:
    """The symmetric 2d x 2d kernel of Tr[M d_zbar d_z b] + <v| . d_zbar^2 b
    + d_z^2 b . |v>: [[v, M/2], [M^T/2, conj v]].

    `mixed` is the matrix M inside the trace (Tr[M D] with
    D_ij = d_zbar_i d_z_j b); `pair` holds the tensor coordinates v_ab of
    the 2-vector v, symmetric.  Stacks of (M, v) give stacked kernels.
    """
    mixed = np.asarray(mixed, dtype=complex)
    pair = np.asarray(pair, dtype=complex)
    top = np.concatenate([pair, mixed / 2.0], axis=-1)
    bottom = np.concatenate([mixed.mT / 2.0, pair.conj()], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def apply_second_order_stack(dim: int, columns: dict, kernels: np.ndarray) -> dict:
    """The second-order operator on P symbols at once, B kernels each.

    `columns` maps each total order m to the (S_m, P) stack of the P
    symbols' vectors; `kernels` has shape (P, B, 2 dim, 2 dim), B
    symmetric kernels per column.  The second derivatives of all P
    columns form one stack per order, contracted with every kernel of its
    column in one batched product.  Returns m - 2 -> (S_{m-2}, P, B):
    column p under its kernel b.  A kernel stack of one (P = 1) serves
    every column.
    """
    n = 2 * dim
    flat = kernels.reshape(kernels.shape[:2] + (n * n,)).transpose(0, 2, 1)
    out = {}
    for m, c in columns.items():
        if m >= 2:
            stack = _derivatives(c, m, n, slice(None), 2).transpose(2, 0, 1)
            out[m - 2] = (stack @ flat).transpose(1, 0, 2)
    return out


def apply_second_order_operator(b: PolySymbol, kernel) -> PolySymbol:
    """sum_ij K_ij d_wi d_wj b in the doubled variables w = (z, conj z).

    `kernel` is a symmetric 2d x 2d matrix K; its z-z block contracts two
    z-derivatives, its z-zbar blocks one of each, its zbar-zbar block two
    zbar-derivatives.  Lowers every total order by 2.  For a stack of P
    polynomials, K is one kernel for all or a (P, 2d, 2d) stack, sample p
    under kernel p.  This is the one-kernel-per-column case of
    `apply_second_order_stack`.
    """
    n = 2 * b.dim
    kernel = np.asarray(kernel, dtype=complex)
    if kernel.shape[-2:] != (n, n):
        raise DimensionMismatchError(f"kernel shape {kernel.shape}, expected {(n, n)}")
    columns = {m: c.reshape(len(c), -1) for m, c in b.vectors.items()}
    out = apply_second_order_stack(b.dim, columns, kernel.reshape(-1, 1, n, n))
    return PolySymbol._from_vectors(
        b.dim, {m: c.reshape((len(c),) + b.vectors[m + 2].shape[1:]) for m, c in out.items()})


def laplacian(b: PolySymbol) -> PolySymbol:
    """The trace contraction sum_i d_{z_i} d_{zbar_i} b (one z against
    one zbar slot, factor p q per monomial)."""
    return apply_second_order_operator(
        b, second_order_kernel(np.eye(b.dim), np.zeros((b.dim, b.dim))))


# ---------------------------------------------------------------------------
# quadratic-form helpers

def squeezing_hamiltonian_symbol(beta) -> PolySymbol:
    """The quadratic polynomial Im<beta, z^(vee 2)> for beta given as its
    symmetric matrix of tensor coordinates v_ab."""
    beta = np.asarray(beta, dtype=complex)
    dim = beta.shape[0]
    ia, ib = sec.pair_modes(dim)
    # the (0 -> 2) coefficient of the 2-vector: v_ab on the pair a <= b,
    # times sqrt(2) off the diagonal
    vec = beta[ia, ib] * np.where(ia == ib, 1.0, math.sqrt(2.0))
    terms = {
        (2, 0): (vec.conj() / 2j).reshape(1, -1),
        (0, 2): (1j * vec / 2.0).reshape(-1, 1),
    }
    return PolySymbol(dim, terms)


# ---------------------------------------------------------------------------
# presets and random symbols

def preset_symbol(name: str, dim: int, xi=None) -> PolySymbol:
    """Named observables: number, n-squared, field, quartic-cross."""
    if name == "number":
        return PolySymbol(dim, {(1, 1): np.eye(dim, dtype=complex)})
    if name == "n-squared":
        number = preset_symbol("number", dim)
        return number * number
    if name == "field":
        if xi is None:
            xi = np.zeros(dim, dtype=complex)
            xi[0] = 1.0
        # (<z, xi> + <xi, z>) / sqrt(2)
        xi = (1.0 / math.sqrt(2.0)) * np.asarray(xi, dtype=complex)
        return PolySymbol(dim, {(0, 1): xi.reshape(-1, 1), (1, 0): xi.conj().reshape(1, -1)})
    if name == "quartic-cross":
        if dim < 2:
            raise ValueError("quartic-cross needs dim >= 2")
        m = [0] * dim
        n = [0] * dim
        m[0] = m[1] = 1
        n[0] = n[1] = 1
        return PolySymbol.monomial(dim, m, n, 1.0)
    raise ValueError(f"unknown preset '{name}'")


def random_symbol(rng: np.random.Generator, dim: int, max_order: int = None,
                  scale: float = 1.0, *, total_order: int = None,
                  samples: int = None) -> PolySymbol:
    """A dense random polynomial with all orders p + q <= max_order or,
    given `total_order`, with every (p, q) split of exactly that order
    (p ascending).

    Given `samples`, draw a stack of that many at once; one polynomial is
    the draw of a stack of one, from the same random stream.
    """
    if total_order is None:
        orders = [(p, q) for p in range(max_order + 1) for q in range(max_order + 1 - p)]
    else:
        orders = [(p, total_order - p) for p in range(total_order + 1)]
    terms = {}
    for p, q in orders:
        shape = (() if samples is None else (samples,)) + (
            sec.sector_dim(dim, q), sec.sector_dim(dim, p))
        terms[(p, q)] = scale * (rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape))
    return PolySymbol(dim, terms)
