"""Occupation-number machinery for the symmetric sectors of C^d.

Every module in this package expresses sector data (polynomial
coefficients, Fock blocks, second quantizations) in one fixed
orthonormal basis per n-particle sector: the occupation-number vectors
|n_1 ... n_d>, enumerated in the lexicographic order of their
non-decreasing index tuples.  Keeping a single convention here removes
all symmetrization-factor ambiguity between the symbol algebra and the
truncated Fock oracle.

Ladder matrices carry no epsilon factor; the semiclassical scale is
applied at quantization time.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def sector_dim(dim: int, n: int) -> int:
    """Dimension of the n-particle sector over C^dim: C(n+d-1, d-1)."""
    return math.comb(n + dim - 1, dim - 1)


@lru_cache(maxsize=None)
def occupations(dim: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Occupation vectors of the n-particle sector, in canonical order.

    The order is the lexicographic order of the associated non-decreasing
    index tuples (i_1 <= ... <= i_n), as produced by
    itertools.combinations_with_replacement.
    """
    out = []
    for combo in itertools.combinations_with_replacement(range(dim), n):
        occ = [0] * dim
        for i in combo:
            occ[i] += 1
        out.append(tuple(occ))
    return tuple(out)


def pair_modes(dim: int) -> np.ndarray:
    """The modes (a, b), a <= b, of each 2-particle occupation in
    canonical order, as the two rows of a (2, sector_dim) array."""
    return np.array(list(itertools.combinations_with_replacement(range(dim), 2))).reshape(-1, 2).T


@lru_cache(maxsize=None)
def occupation_index(dim: int, n: int) -> dict:
    """Map occupation vector -> position in the canonical enumeration."""
    return {occ: k for k, occ in enumerate(occupations(dim, n))}


@lru_cache(maxsize=None)
def occupation_array(dim: int, n: int) -> np.ndarray:
    """Occupations as an integer array of shape (sector_dim, dim)."""
    return _frozen(np.array(occupations(dim, n), dtype=np.int64).reshape(sector_dim(dim, n), dim))


@lru_cache(maxsize=None)
def index_tuples(dim: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Non-decreasing 1-based index tuples of the n-particle sector, in
    canonical order (the JSON form of the occupations)."""
    return tuple(tuple(i + 1 for i in combo)
                 for combo in itertools.combinations_with_replacement(range(dim), n))


def indices_to_occ(indices, dim: int) -> tuple[int, ...]:
    """Non-decreasing 1-based index tuple -> occupation vector."""
    occ = [0] * dim
    for i in indices:
        if not 1 <= i <= dim:
            raise ValueError(f"index {i} out of range 1..{dim}")
        occ[i - 1] += 1
    return tuple(occ)


@lru_cache(maxsize=None)
def occ_factorials(dim: int, n: int) -> np.ndarray:
    """Array of kappa! = prod_i kappa_i! over the sector, canonical order."""
    occ = occupation_array(dim, n)
    vals = np.ones(occ.shape[0])
    for i in range(dim):
        for row in range(occ.shape[0]):
            vals[row] *= math.factorial(int(occ[row, i]))
    return _frozen(vals)


@lru_cache(maxsize=None)
def coeff_scale(dim: int, n: int) -> np.ndarray:
    """sqrt(n!/kappa!) per basis vector: converts operator coefficients
    to plain monomial coefficients of z^kappa (and back by division)."""
    return _frozen(np.sqrt(math.factorial(n) / occ_factorials(dim, n)))


@lru_cache(maxsize=None)
def raise_table(dim: int, n: int):
    """Arrays (up, weight) of shape (sector_dim(n), dim): the position of
    kappa + delta_i in sector n+1, and kappa_i + 1.

    The derivative d/dz_i of a degree-(n+1) coefficient vector c (plain
    monomial coefficients) is c[up[:, i]] * weight[:, i].
    """
    idx_hi = occupation_index(dim, n + 1)
    up = np.array([[idx_hi[kappa[:i] + (kappa[i] + 1,) + kappa[i + 1:]] for i in range(dim)]
                   for kappa in occupations(dim, n)], dtype=np.int64)
    return _frozen(up), _frozen(occupation_array(dim, n) + 1.0)


@lru_cache(maxsize=None)
def _direct_sum_tables(dim: int, n_max: int):
    """Occupations of sectors 0..n_max stacked in direct-sum order, and per
    mode i the direct-sum position of kappa + delta_i for every kappa below
    the top sector."""
    offsets = np.cumsum([0] + [sector_dim(dim, n) for n in range(n_max + 1)])
    occ = np.concatenate([occupation_array(dim, n) for n in range(n_max + 1)])
    up = np.zeros((dim, offsets[n_max]), dtype=np.int64)
    for n in range(n_max):
        up[:, offsets[n]:offsets[n + 1]] = raise_table(dim, n)[0].T + offsets[n + 1]
    return _frozen(occ), _frozen(up)


@lru_cache(maxsize=4096)
def ladder_entries(dim: int, n_max: int, mu: tuple, kappa: tuple):
    """Nonzeros of prod_i a_i^dag^{mu_i} prod_i a_i^{kappa_i} on sectors 0..n_max.

    The product sends |r + kappa> to sqrt((r+kappa)!/r!) sqrt((r+mu)!/r!)
    |r + mu>, so every column holds at most one entry.  Returns
    (rows, cols, values) as positions in the direct sum of the sectors;
    the values are products of integer square roots taken in the order
    the ladder operators act, with no epsilon factor.  Cached per cutoff
    and pair of occupation tuples (bounded, so a sweep over cutoffs does
    not keep every map); the arrays are frozen.
    """
    top = n_max - max(sum(mu), sum(kappa))
    occ, up = _direct_sum_tables(dim, n_max)
    # residues r fill exactly the sectors 0..top, a prefix of the direct sum
    res = occ[:sector_dim(dim + 1, top)] if top >= 0 else occ[:0]
    rows = cols = np.arange(res.shape[0])
    values = np.ones(res.shape[0])
    for i in range(dim):
        for j in range(kappa[i]):
            cols = up[i, cols]
            values = values * np.sqrt(res[:, i] + kappa[i] - j)
    for i in range(dim):
        for j in range(mu[i]):
            rows = up[i, rows]
            values = values * np.sqrt(res[:, i] + j + 1)
    return _frozen(rows), _frozen(cols), _frozen(values)


@lru_cache(maxsize=None)
def tensor_positions(dim: int, n: int):
    """Sector position of every entry of the full tensor power
    (C^dim)^(x n), in row-major order, and per sector position one entry
    that holds it."""
    full = np.zeros(1, dtype=np.int64)
    for k in range(n):
        full = raise_table(dim, k)[0][full].ravel()
    rep = np.empty(sector_dim(dim, n), dtype=np.int64)
    rep[full] = np.arange(full.size)
    return _frozen(full), _frozen(rep)


@lru_cache(maxsize=None)
def doubled_positions(dim: int, m: int) -> tuple:
    """Where the (p, q) blocks sit in the m-sector of C^{2 dim}.

    Per p = 0..m (q = m - p): the (dim_q x dim_p) grid of positions of
    conj(z)^mu z^nu, i.e. of the occupation (nu, mu) of the doubled
    variables (z, conj z), and the factors sqrt(q!/mu!) sqrt(p!/nu!)
    that turn canonical coefficients into plain monomial ones.
    """
    index = occupation_index(2 * dim, m)
    out = []
    for p in range(m + 1):
        q = m - p
        grid = np.array([[index[nu + mu] for nu in occupations(dim, p)]
                         for mu in occupations(dim, q)], dtype=np.int64)
        scale = coeff_scale(dim, q)[:, None] * coeff_scale(dim, p)[None, :]
        out.append((_frozen(grid), _frozen(scale)))
    return tuple(out)


@lru_cache(maxsize=None)
def merge_map(dim: int, n1: int, n2: int) -> np.ndarray:
    """Index grid: position of kappa1 + kappa2 in sector n1+n2."""
    idx_hi = occupation_index(dim, n1 + n2)
    occ1 = occupations(dim, n1)
    occ2 = occupations(dim, n2)
    out = np.empty((len(occ1), len(occ2)), dtype=np.int64)
    for a, ka in enumerate(occ1):
        for b, kb in enumerate(occ2):
            out[a, b] = idx_hi[tuple(x + y for x, y in zip(ka, kb))]
    return _frozen(out)
