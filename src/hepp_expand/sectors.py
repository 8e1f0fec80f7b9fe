"""Occupation-number machinery for the symmetric sectors of C^d.

Every module in this package expresses sector data (polynomial
coefficients, Fock blocks, second quantizations) in one fixed
orthonormal basis per n-particle sector: the occupation-number vectors
|n_1 ... n_d>, enumerated in the lexicographic order of their
non-decreasing index tuples.  Keeping a single convention here removes
all symmetrization-factor ambiguity between the symbol algebra and the
truncated Fock oracle.

One rule gives every position in that order (`rank`).  With a_i the
number of particles in the modes after i, the states before kappa are,
mode by mode, those that agree with kappa on the modes before i and put
more particles in mode i:

    rank(kappa) = sum_{i < d-1, a_i >= 1} C(a_i - 1 + d - i - 1, d - i - 1).

The C(n - 1 + d, d) states of fewer than n particles precede sector n,
so in the direct sum of the sectors a state of n particles sits at
C(n - 1 + d, d) + rank.  The raise maps, merge maps, doubled-variable
grids and ladder maps are that rule applied to sums of occupation
arrays; nothing looks an occupation up entry by entry.

The tables are cached per (dim, n) with at most 128 keys each, more
than the sectors of one d=1, N=48 space.  Every table is indexed by
sector positions, so none grows like the full tensor power
(C^dim)^(x n).  Ladder matrices carry no epsilon factor; the
semiclassical scale is applied at quantization time.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def sector_dim(dim: int, n: int) -> int:
    """Dimension of the n-particle sector over C^dim: C(n+d-1, d-1)."""
    return math.comb(n + dim - 1, dim - 1)


@lru_cache(maxsize=128)
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


@lru_cache(maxsize=128)
def _fewer(top: int, dim: int) -> np.ndarray:
    """Table of C(a - 1 + k, k), the number of states of fewer than a
    particles over C^k, for a <= top and k <= dim."""
    return _frozen(np.array([[math.comb(a - 1 + k, k) if a else 0 for k in range(dim + 1)]
                            for a in range(top + 1)], dtype=np.int64))


def rank(occ) -> np.ndarray:
    """Position of occupation rows (last axis = modes) in their sector's
    canonical order, by the rule of the module docstring."""
    occ = np.asarray(occ, dtype=np.int64)
    dim = occ.shape[-1]
    # a_i for i = d-2 down to 0, each read with its d - i - 1 = 1, ..., d-1 later modes
    after = np.cumsum(occ[..., :0:-1], axis=-1)
    return _fewer(int(after.max(initial=0)), dim)[after, np.arange(1, dim)].sum(axis=-1)


def _stacked_rank(occ: np.ndarray) -> np.ndarray:
    """Position of occupation rows in the direct sum of the sectors."""
    n = occ.sum(axis=-1)
    return _fewer(int(n.max(initial=0)), occ.shape[-1])[n, -1] + rank(occ)


@lru_cache(maxsize=128)
def occupation_array(dim: int, n: int) -> np.ndarray:
    """Occupations as an integer array of shape (sector_dim, dim)."""
    return _frozen(np.array(occupations(dim, n), dtype=np.int64).reshape(sector_dim(dim, n), dim))


@lru_cache(maxsize=128)
def index_tuples(dim: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Non-decreasing 1-based index tuples of the n-particle sector, in
    canonical order (the JSON form of the occupations)."""
    return tuple(tuple(i + 1 for i in combo)
                 for combo in itertools.combinations_with_replacement(range(dim), n))


@lru_cache(maxsize=128)
def occ_factorials(dim: int, n: int) -> np.ndarray:
    """Array of kappa! = prod_i kappa_i! over the sector, canonical order."""
    occ = occupation_array(dim, n)
    factorial = np.array([float(math.factorial(k)) for k in range(n + 1)])
    vals = np.ones(occ.shape[0])
    for i in range(dim):
        vals *= factorial[occ[:, i]]
    return _frozen(vals)


@lru_cache(maxsize=128)
def coeff_scale(dim: int, n: int) -> np.ndarray:
    """sqrt(n!/kappa!) per basis vector: converts operator coefficients
    to plain monomial coefficients of z^kappa (and back by division)."""
    return _frozen(np.sqrt(math.factorial(n) / occ_factorials(dim, n)))


@lru_cache(maxsize=128)
def raise_table(dim: int, n: int):
    """Arrays (up, weight) of shape (sector_dim(n), dim): the position of
    kappa + delta_i in sector n+1, and kappa_i + 1.

    The derivative d/dz_i of a degree-(n+1) coefficient vector c (plain
    monomial coefficients) is c[up[:, i]] * weight[:, i].
    """
    occ = occupation_array(dim, n)
    return _frozen(rank(occ[:, None, :] + np.eye(dim, dtype=np.int64))), _frozen(occ + 1.0)


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
    # the residues r fill the sectors 0..top in direct-sum order: sector
    # top over C^(dim+1) with a leading slack mode
    res = occupation_array(dim + 1, top)[:, 1:] if top >= 0 else np.zeros((0, dim), np.int64)
    rows, cols = _stacked_rank(res + mu), _stacked_rank(res + kappa)
    values = np.ones(res.shape[0])
    for i in range(dim):
        for j in range(kappa[i]):
            values = values * np.sqrt(res[:, i] + kappa[i] - j)
    for i in range(dim):
        for j in range(mu[i]):
            values = values * np.sqrt(res[:, i] + j + 1)
    return _frozen(rows), _frozen(cols), _frozen(values)


@lru_cache(maxsize=128)
def raise_pick(dim: int, n: int) -> np.ndarray:
    """Per position of sector n+1, one flat index into the raise table of
    sector n, (position, mode), whose raise lands on it."""
    up = raise_table(dim, n)[0].ravel()
    pick = np.empty(sector_dim(dim, n + 1), dtype=np.int64)
    pick[up] = np.arange(up.size)
    return _frozen(pick)


@lru_cache(maxsize=128)
def doubled_positions(dim: int, m: int) -> tuple:
    """Where the (p, q) blocks sit in the m-sector of C^{2 dim}.

    Per p = 0..m (q = m - p): the (dim_q x dim_p) grid of positions of
    conj(z)^mu z^nu, i.e. of the occupation (nu, mu) of the doubled
    variables (z, conj z), and the factors sqrt(q!/mu!) sqrt(p!/nu!)
    that turn canonical coefficients into plain monomial ones.
    """
    out = []
    for p in range(m + 1):
        q = m - p
        pair = np.broadcast_arrays(occupation_array(dim, p)[None], occupation_array(dim, q)[:, None])
        scale = coeff_scale(dim, q)[:, None] * coeff_scale(dim, p)[None, :]
        out.append((_frozen(rank(np.concatenate(pair, axis=-1))), _frozen(scale)))
    return tuple(out)


@lru_cache(maxsize=128)
def merge_map(dim: int, n1: int, n2: int) -> np.ndarray:
    """Index grid: position of kappa1 + kappa2 in sector n1+n2."""
    return _frozen(rank(occupation_array(dim, n1)[:, None] + occupation_array(dim, n2)[None]))
