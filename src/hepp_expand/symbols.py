"""Wick polynomials on C^d and their calculus.

A monomial of order (p, q) is z -> <z^(vee q), b~ z^(vee p)> with
coefficient b~ a linear map between symmetric sectors; a polynomial is a
finite sum of monomials, stored as a map (p, q) -> coefficient matrix in
the shared occupation bases of :mod:`hepp_expand.sectors`.

Internally most operations run on the equivalent "plain coefficient"
view: the complex coefficients c[m, n] of conj(z)^m z^n, which differ
from the operator coefficients by the factor sqrt(q!/m!) sqrt(p!/n!).
In that view the duality pairing of a k-form against a k-vector becomes
the multinomial-weighted sum over Wirtinger derivatives

    (d_z^k b1) . (d_zbar^k b2) = sum_{|kap|=k} (k!/kap!) D_z^kap b1 D_zbar^kap b2,

which is what the Poisson brackets, the Wick product and the expansion
generators are built from.
"""

from __future__ import annotations

import math

import numpy as np

from . import sectors as sec
from .errors import DimensionMismatchError


class SymTensor:
    """A linear map between symmetric sectors: the coefficient of a
    (p, q)-monomial, stored as a (dim_q x dim_p) matrix."""

    __slots__ = ("dim", "p", "q", "coeffs")

    def __init__(self, dim, p, q, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        expected = (sec.sector_dim(dim, q), sec.sector_dim(dim, p))
        if coeffs.shape != expected:
            raise ValueError(f"coeffs shape {coeffs.shape}, expected {expected} for (p={p}, q={q})")
        self.dim = dim
        self.p = p
        self.q = q
        self.coeffs = coeffs

    def norm_op(self) -> float:
        """Operator norm between the sector Hilbert spaces."""
        return float(np.linalg.norm(self.coeffs, 2))

    def conj(self) -> "SymTensor":
        """Coefficient of the conjugated monomial: the adjoint map."""
        return SymTensor(self.dim, self.q, self.p, self.coeffs.conj().T)

    def __repr__(self):
        return f"SymTensor(dim={self.dim}, p={self.p}, q={self.q})"


# ---------------------------------------------------------------------------
# plain-coefficient helpers; a "cdict" maps (p, q) -> (dim_q x dim_p) array

def _czero(dim, p, q):
    return np.zeros((sec.sector_dim(dim, q), sec.sector_dim(dim, p)), dtype=complex)


def _cadd(dst: dict, key, arr):
    if key in dst:
        dst[key] = dst[key] + arr
    else:
        dst[key] = arr.copy()


def _cscale(c: dict, s: complex) -> dict:
    return {k: s * a for k, a in c.items()}


def _cmul(c1: dict, c2: dict, dim: int) -> dict:
    """Pointwise product of two polynomials in the plain-coefficient view."""
    out = {}
    for (p1, q1), a1 in c1.items():
        for (p2, q2), a2 in c2.items():
            key = (p1 + p2, q1 + q2)
            if key not in out:
                out[key] = _czero(dim, *key)
            mq = sec.merge_map(dim, q1, q2)
            mp = sec.merge_map(dim, p1, p2)
            outer = a1[:, None, :, None] * a2[None, :, None, :]
            np.add.at(out[key], (mq[:, :, None, None], mp[None, None, :, :]), outer)
    return out


def _cdz(c: dict, dim: int, i: int) -> dict:
    """d/dz_i in the plain-coefficient view."""
    out = {}
    for (p, q), a in c.items():
        if p == 0:
            continue
        src, dst, wgt = sec.lower_map(dim, p, i)
        if len(src) == 0:
            continue
        tgt = _czero(dim, p - 1, q)
        tgt[:, dst] = a[:, src] * wgt[None, :]
        _cadd(out, (p - 1, q), tgt)
    return out


def _cdzbar(c: dict, dim: int, i: int) -> dict:
    """d/dzbar_i in the plain-coefficient view."""
    out = {}
    for (p, q), a in c.items():
        if q == 0:
            continue
        src, dst, wgt = sec.lower_map(dim, q, i)
        if len(src) == 0:
            continue
        tgt = _czero(dim, p, q - 1)
        tgt[dst, :] = a[src, :] * wgt[:, None]
        _cadd(out, (p, q - 1), tgt)
    return out


def _cderive(c: dict, dim: int, m_occ, n_occ) -> dict:
    """Iterated Wirtinger derivative D_zbar^m D_z^n."""
    for i, reps in enumerate(n_occ):
        for _ in range(int(reps)):
            c = _cdz(c, dim, i)
    for i, reps in enumerate(m_occ):
        for _ in range(int(reps)):
            c = _cdzbar(c, dim, i)
    return c


def _cconj(c: dict, dim: int) -> dict:
    return {(q, p): a.conj().T for (p, q), a in c.items()}


def _cclean(c: dict) -> dict:
    return {k: a for k, a in c.items() if np.any(a)}


class PolySymbol:
    """A Wick polynomial: finite sum of (p, q)-monomials on C^dim."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        self.terms = {}
        for (p, q), arr in (terms or {}).items():
            arr = np.asarray(arr, dtype=complex)
            expected = (sec.sector_dim(dim, q), sec.sector_dim(dim, p))
            if arr.shape != expected:
                raise ValueError(f"term ({p},{q}) has shape {arr.shape}, expected {expected}")
            if np.any(arr):
                self.terms[(p, q)] = arr

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "PolySymbol":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: complex) -> "PolySymbol":
        return cls(dim, {(0, 0): np.array([[value]], dtype=complex)})

    @classmethod
    def monomial(cls, dim: int, m_occ, n_occ, coeff: complex = 1.0) -> "PolySymbol":
        """The polynomial coeff * conj(z)^m z^n for occupation exponents."""
        m_occ, n_occ = tuple(m_occ), tuple(n_occ)
        q, p = sum(m_occ), sum(n_occ)
        arr = _czero(dim, p, q)
        mi = sec.occupation_index(dim, q)[m_occ]
        ni = sec.occupation_index(dim, p)[n_occ]
        arr[mi, ni] = coeff
        return cls._from_coeffs(dim, {(p, q): arr})

    @classmethod
    def _from_coeffs(cls, dim: int, cdict: dict) -> "PolySymbol":
        terms = {}
        for (p, q), a in cdict.items():
            sq = sec.coeff_scale(dim, q)
            sp = sec.coeff_scale(dim, p)
            terms[(p, q)] = a / (sq[:, None] * sp[None, :])
        return cls(dim, terms)

    def _coeffs(self) -> dict:
        out = {}
        for (p, q), b in self.terms.items():
            sq = sec.coeff_scale(self.dim, q)
            sp = sec.coeff_scale(self.dim, p)
            out[(p, q)] = b * (sq[:, None] * sp[None, :])
        return out

    # -- structure ----------------------------------------------------------

    def tensor(self, p: int, q: int) -> SymTensor:
        """Coefficient of the (p, q) part (zero tensor when absent)."""
        arr = self.terms.get((p, q))
        if arr is None:
            arr = _czero(self.dim, p, q)
        return SymTensor(self.dim, p, q, arr)

    def degree(self, tol: float = 0.0) -> int:
        """Max total order among terms with some |coefficient| > tol."""
        degs = [p + q for (p, q), a in self.terms.items() if np.abs(a).max() > tol]
        return max(degs) if degs else 0

    def is_zero(self) -> bool:
        return not self.terms

    # -- algebra ------------------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "PolySymbol") -> "PolySymbol":
        self._check_dim(other)
        terms = {k: a.copy() for k, a in self.terms.items()}
        for k, a in other.terms.items():
            terms[k] = terms[k] + a if k in terms else a
        return PolySymbol(self.dim, terms)

    def __sub__(self, other: "PolySymbol") -> "PolySymbol":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, PolySymbol):
            self._check_dim(other)
            return PolySymbol._from_coeffs(
                self.dim, _cmul(self._coeffs(), other._coeffs(), self.dim))
        return PolySymbol(self.dim, {k: other * a for k, a in self.terms.items()})

    __rmul__ = __mul__

    def conj(self) -> "PolySymbol":
        """Complex conjugate polynomial; coefficients become adjoints."""
        return PolySymbol(self.dim, {(q, p): a.conj().T for (p, q), a in self.terms.items()})

    def evaluate(self, z) -> complex:
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.dim,):
            raise DimensionMismatchError(f"point has shape {z.shape}, dim is {self.dim}")
        total = 0.0 + 0.0j
        for (p, q), c in self._coeffs().items():
            zp = np.prod(z[None, :] ** sec.occupation_array(self.dim, p), axis=1)
            zbq = np.prod(np.conj(z)[None, :] ** sec.occupation_array(self.dim, q), axis=1)
            total += zbq @ c @ zp
        return complex(total)

    __call__ = evaluate

    def norm_p(self) -> float:
        """Sum of sector operator norms of the coefficients."""
        return float(sum(np.linalg.norm(a, 2) for a in self.terms.values()))

    def distance_max(self, other: "PolySymbol") -> float:
        """Max |difference| over coefficients in the canonical packing."""
        self._check_dim(other)
        keys = set(self.terms) | set(other.terms)
        worst = 0.0
        for p, q in keys:
            a = self.terms.get((p, q), 0)
            b = other.terms.get((p, q), 0)
            worst = max(worst, float(np.abs(a - b).max()))
        return worst

    def distance_p(self, other: "PolySymbol") -> float:
        return (self - other).norm_p()

    def allclose(self, other: "PolySymbol", atol: float = 1e-12) -> bool:
        return self.distance_max(other) <= atol

    # -- calculus ------------------------------------------------------------

    def derivative_poly(self, m_occ, n_occ) -> "PolySymbol":
        """Iterated Wirtinger derivative D_zbar^m D_z^n as a polynomial."""
        c = _cderive(self._coeffs(), self.dim, m_occ, n_occ)
        return PolySymbol._from_coeffs(self.dim, _cclean(c))

    def derivative(self, j: int, k: int, z) -> SymTensor:
        """The operator d_zbar^j d_z^k b(z) in L(sector k, sector j).

        Vanishes termwise when j > q or k > p.
        """
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.dim,):
            raise DimensionMismatchError(f"point has shape {z.shape}, dim is {self.dim}")
        dim = self.dim
        out = np.zeros((sec.sector_dim(dim, j), sec.sector_dim(dim, k)), dtype=complex)
        for (p, q), b in self.terms.items():
            if k > p or j > q:
                continue
            fact = (math.factorial(p) / math.factorial(p - k)) \
                 * (math.factorial(q) / math.factorial(q - j)) \
                 * math.sqrt(math.factorial(j) / math.factorial(q)) \
                 * math.sqrt(math.factorial(k) / math.factorial(p))
            up = np.eye(sec.sector_dim(dim, k), dtype=complex)
            for n in range(k, p):
                up = sec.creation_field(z, n) @ up
            down = np.eye(sec.sector_dim(dim, j), dtype=complex)
            for n in range(j, q):
                down = down @ sec.annihilation_field(z, n + 1)
            out += fact * (down @ b @ up)
        return SymTensor(dim, k, j, out)

    def compose_rlinear(self, t) -> "PolySymbol":
        """The polynomial z -> b(T z) for an R-linear map T.

        The substitution is expanded exactly; an antilinear part mixes
        the (p, q) grading but preserves total order.
        """
        if self.dim != t.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {t.dim}")
        d = self.dim
        forms, conj_forms = [], []
        for j in range(d):
            w = {}
            if np.any(t.linear[j, :]):
                w[(1, 0)] = t.linear[j, :].reshape(1, d).astype(complex)
            if np.any(t.antilinear[j, :]):
                w[(0, 1)] = t.antilinear[j, :].reshape(d, 1).astype(complex)
            wc = {}
            if (1, 0) in w:
                wc[(0, 1)] = w[(1, 0)].conj().reshape(d, 1)
            if (0, 1) in w:
                wc[(1, 0)] = w[(0, 1)].conj().reshape(1, d)
            forms.append(w)
            conj_forms.append(wc)
        return self._substitute(forms, conj_forms)

    def translate(self, z0) -> "PolySymbol":
        """The polynomial z -> b(z0 + z)."""
        z0 = np.asarray(z0, dtype=complex)
        d = self.dim
        forms, conj_forms = [], []
        for j in range(d):
            w = {(0, 0): np.array([[z0[j]]], dtype=complex)}
            w[(1, 0)] = np.zeros((1, d), dtype=complex)
            w[(1, 0)][0, j] = 1.0
            wc = {(0, 0): np.array([[np.conj(z0[j])]], dtype=complex)}
            wc[(0, 1)] = np.zeros((d, 1), dtype=complex)
            wc[(0, 1)][j, 0] = 1.0
            forms.append(w)
            conj_forms.append(wc)
        return self._substitute(forms, conj_forms)

    def _substitute(self, forms, conj_forms) -> "PolySymbol":
        dim = self.dim
        cb = self._coeffs()
        max_p = max((p for (p, q) in cb), default=0)
        max_q = max((q for (p, q) in cb), default=0)
        ptab = _power_table(forms, dim, max_p)
        qtab = _power_table(conj_forms, dim, max_q)
        out = {}
        for (p, q), c in cb.items():
            for mi, m_occ in enumerate(sec.occupations(dim, q)):
                row = c[mi, :]
                if not np.any(row):
                    continue
                partial = {}
                for ni, n_occ in enumerate(sec.occupations(dim, p)):
                    if row[ni] != 0:
                        for k, a in ptab[n_occ].items():
                            _cadd(partial, k, row[ni] * a)
                for k, a in _cmul(qtab[m_occ], partial, dim).items():
                    _cadd(out, k, a)
        return PolySymbol._from_coeffs(dim, _cclean(out))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """JSON form: non-decreasing 1-based multi-indices and the
        canonical (operator) coefficients."""
        entries = []
        for (p, q), b in sorted(self.terms.items()):
            term_entries = []
            occ_q = sec.occupations(self.dim, q)
            occ_p = sec.occupations(self.dim, p)
            for mi in range(b.shape[0]):
                for ni in range(b.shape[1]):
                    val = b[mi, ni]
                    if val != 0:
                        term_entries.append([
                            list(sec.occ_to_indices(occ_q[mi])),
                            list(sec.occ_to_indices(occ_p[ni])),
                            float(val.real), float(val.imag),
                        ])
            entries.append({"p": p, "q": q, "entries": term_entries})
        return {"dim": self.dim, "terms": entries}

    @classmethod
    def from_json(cls, data: dict) -> "PolySymbol":
        dim = int(data["dim"])
        terms = {}
        for td in data.get("terms", []):
            p, q = int(td["p"]), int(td["q"])
            arr = _czero(dim, p, q)
            idx_q = sec.occupation_index(dim, q)
            idx_p = sec.occupation_index(dim, p)
            for m_idx, n_idx, re, im in td["entries"]:
                mi = idx_q[sec.indices_to_occ(m_idx, dim)]
                ni = idx_p[sec.indices_to_occ(n_idx, dim)]
                arr[mi, ni] = re + 1j * im
            key = (p, q)
            terms[key] = terms.get(key, 0) + arr
        return cls(dim, terms)

    def __repr__(self):
        keys = ", ".join(f"({p},{q})" for p, q in sorted(self.terms))
        return f"PolySymbol(dim={self.dim}, orders=[{keys}])"


def _power_table(forms, dim, max_deg):
    """Polynomials for all monomial products of the given coordinate
    forms, indexed by occupation exponent up to total degree max_deg."""
    one = {(0, 0): np.array([[1.0 + 0j]])}
    table = {tuple([0] * dim): one}
    for deg in range(1, max_deg + 1):
        for occ in sec.occupations(dim, deg):
            i = next(j for j, c in enumerate(occ) if c > 0)
            lower = list(occ)
            lower[i] -= 1
            table[occ] = _cmul(table[tuple(lower)], forms[i], dim)
    return table


# ---------------------------------------------------------------------------
# bilinear calculus

def contraction(b1: PolySymbol, b2: PolySymbol, k: int) -> PolySymbol:
    """The degree-lowering pairing (d_z^k b1) . (d_zbar^k b2) as a polynomial.

    In plain coefficients this is sum over |kap| = k of the multinomial
    weight k!/kap! times D_z^kap b1 * D_zbar^kap b2.
    """
    if b1.dim != b2.dim:
        raise DimensionMismatchError(f"dim {b1.dim} vs {b2.dim}")
    dim = b1.dim
    zero = tuple([0] * dim)
    out = {}
    c1 = b1._coeffs()
    c2 = b2._coeffs()
    for kap in sec.occupations(dim, k):
        d1 = _cderive(c1, dim, zero, kap)
        if not d1:
            continue
        d2 = _cderive(c2, dim, kap, zero)
        if not d2:
            continue
        weight = math.factorial(k) / float(np.prod([math.factorial(c) for c in kap]))
        for key, a in _cmul(d1, d2, dim).items():
            _cadd(out, key, weight * a)
    return PolySymbol._from_coeffs(dim, _cclean(out))


def poisson_bracket(b1: PolySymbol, b2: PolySymbol, k: int, z=None):
    """Poisson bracket of order k; a polynomial, or its value at z."""
    sym = contraction(b1, b2, k) - contraction(b2, b1, k)
    if z is None:
        return sym
    return sym.evaluate(z)


def wick_product_symbol(b1: PolySymbol, b2: PolySymbol, epsilon: float) -> PolySymbol:
    """Symbol of the operator product b1^Wick b2^Wick:
    sum_k (eps^k / k!) (d_z^k b1) . (d_zbar^k b2)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if b1.dim != b2.dim:
        raise DimensionMismatchError(f"dim {b1.dim} vs {b2.dim}")
    kmax = min(max((p for (p, q) in b1.terms), default=0),
               max((q for (p, q) in b2.terms), default=0))
    out = PolySymbol.zero(b1.dim)
    for k in range(kmax + 1):
        out = out + (epsilon**k / math.factorial(k)) * contraction(b1, b2, k)
    return out


def laplacian(b: PolySymbol) -> PolySymbol:
    """The trace contraction sum_i d_{z_i} d_{zbar_i} b (one z against
    one zbar slot, factor p q per monomial)."""
    dim = b.dim
    out = {}
    c = b._coeffs()
    for i in range(dim):
        for key, a in _cdzbar(_cdz(c, dim, i), dim, i).items():
            _cadd(out, key, a)
    return PolySymbol._from_coeffs(dim, _cclean(out))


def apply_second_order_operator(b: PolySymbol, mixed: np.ndarray, pair: np.ndarray) -> PolySymbol:
    """Apply Tr[M d_zbar d_z b] + <v| . d_zbar^2 b + d_z^2 b . |v>.

    `mixed` is the matrix M inside the trace; `pair` holds the tensor
    coordinates v_ab of the 2-vector v.  Both contractions follow the
    bilinear duality pairing of the occupation bases.
    """
    dim = b.dim
    c = b._coeffs()
    out = {}
    for a_idx in range(dim):
        for b_idx in range(dim):
            mv = mixed[a_idx, b_idx]
            if mv != 0:
                # Tr[M D] = sum_ab M_ab D_ba with D_ij = d_zbar_i d_z_j b
                dd = _cdzbar(_cdz(c, dim, a_idx), dim, b_idx)
                for key, arr in dd.items():
                    _cadd(out, key, mv * arr)
            pv = pair[a_idx, b_idx]
            if pv != 0:
                dzz = _cdz(_cdz(c, dim, a_idx), dim, b_idx)
                for key, arr in dzz.items():
                    _cadd(out, key, pv * arr)
                dbb = _cdzbar(_cdzbar(c, dim, a_idx), dim, b_idx)
                for key, arr in dbb.items():
                    _cadd(out, key, np.conj(pv) * arr)
    return PolySymbol._from_coeffs(dim, _cclean(out))


# ---------------------------------------------------------------------------
# quadratic-form helpers

def beta_tensor_from_matrix(mat) -> SymTensor:
    """Pack a symmetric matrix of tensor coordinates v_ab into the
    (0 -> 2) coefficient of the 2-vector."""
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[0]
    col = np.zeros((sec.sector_dim(dim, 2), 1), dtype=complex)
    for k, kap in enumerate(sec.occupations(dim, 2)):
        pair = [i for i, c in enumerate(kap) for _ in range(c)]
        a, b = pair
        col[k, 0] = mat[a, b] * (math.sqrt(2.0) if a != b else 1.0)
    return SymTensor(dim, 0, 2, col)


def beta_matrix_from_tensor(t: SymTensor) -> np.ndarray:
    """Tensor coordinates v_ab of a 2-vector; equals the matrix of the
    induced antilinear map z -> (I vee <z|) v."""
    if (t.p, t.q) != (0, 2):
        raise ValueError("expected a (0 -> 2) coefficient")
    dim = t.dim
    mat = np.zeros((dim, dim), dtype=complex)
    for k, kap in enumerate(sec.occupations(dim, 2)):
        pair = [i for i, c in enumerate(kap) for _ in range(c)]
        a, b = pair
        val = t.coeffs[k, 0]
        if a != b:
            mat[a, b] = mat[b, a] = val / math.sqrt(2.0)
        else:
            mat[a, a] = val
    return mat


def squeezing_hamiltonian_symbol(beta) -> PolySymbol:
    """The quadratic polynomial Im<beta, z^(vee 2)> for beta given as a
    (0 -> 2) SymTensor or as its symmetric coordinate matrix."""
    if isinstance(beta, SymTensor):
        tensor = beta
    else:
        tensor = beta_tensor_from_matrix(beta)
    vec = tensor.coeffs[:, 0]
    dim = tensor.dim
    terms = {
        (2, 0): (vec.conj() / 2j).reshape(1, -1),
        (0, 2): (1j * vec / 2.0).reshape(-1, 1),
    }
    return PolySymbol(dim, terms)


# ---------------------------------------------------------------------------
# building blocks and presets

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
        s = 1.0 / math.sqrt(2.0)
        return s * (linear_form_bra(xi) + linear_form_ket(xi))
    if name == "quartic-cross":
        if dim < 2:
            raise ValueError("quartic-cross needs dim >= 2")
        m = [0] * dim
        n = [0] * dim
        m[0] = m[1] = 1
        n[0] = n[1] = 1
        return PolySymbol.monomial(dim, m, n, 1.0)
    raise ValueError(f"unknown preset '{name}'")


def random_symbol(rng: np.random.Generator, dim: int, max_order: int,
                  scale: float = 1.0) -> PolySymbol:
    """A dense random polynomial with all orders p + q <= max_order."""
    terms = {}
    for p in range(max_order + 1):
        for q in range(max_order + 1 - p):
            shape = (sec.sector_dim(dim, q), sec.sector_dim(dim, p))
            terms[(p, q)] = scale * (rng.standard_normal(shape)
                                     + 1j * rng.standard_normal(shape))
    return PolySymbol(dim, terms)
