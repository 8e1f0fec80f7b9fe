"""Property tests for the algebraic identities the expansions rest on.

Every example draws a seed and a few sizes; the symbols, maps and
Hamiltonians are then built from a numpy generator on that seed.  The
runs are derandomized, so the examples are the same on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hepp_expand.expansions import lambda_s, lambda_s_via_bracket
from hepp_expand.flow import QuadraticHamiltonian, integrate_flow
from hepp_expand.symbols import PolySymbol, random_symbol, wick_product_symbol
from hepp_expand.symplectic import random_symplectomorphism
from hepp_expand.weylwick import weyl_from_wick, wick_from_weyl

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=3)
fast = settings(max_examples=12, derandomize=True, deadline=None)


def _scale(b):
    return max(1.0, max((float(np.abs(a).max()) for a in b.terms.values()), default=0.0))


@fast
@given(seed=seeds, dim=dims, order=st.integers(min_value=0, max_value=5))
def test_composition_is_associative(seed, dim, order):
    rng = np.random.default_rng(seed)
    b = random_symbol(rng, dim, order)
    s = random_symplectomorphism(rng, dim)
    t = random_symplectomorphism(rng, dim)
    lhs = b.compose_rlinear(s.compose(t))
    rhs = b.compose_rlinear(s).compose_rlinear(t)
    assert lhs.distance_max(rhs) < 1e-11 * _scale(lhs)


def _sparse_symbol(seed, dim, order, composed):
    """A sparse set of (p, q) blocks, or its image under a symplectic map."""
    rng = np.random.default_rng(seed)
    dense = random_symbol(rng, dim, order).terms
    keep = rng.random(len(dense)) < 0.5
    b = PolySymbol(dim, {k: a for (k, a), kept in zip(dense.items(), keep) if kept})
    if composed:
        b = b.compose_rlinear(random_symplectomorphism(rng, dim))
    return b


@fast
@given(seed=seeds, dim=dims, order=st.integers(min_value=0, max_value=5),
       composed=st.booleans())
def test_canonical_view_round_trips(seed, dim, order, composed):
    b = _sparse_symbol(seed, dim, order, composed)
    for back in (PolySymbol(dim, b.terms), PolySymbol.from_json(b.to_json())):
        assert back.terms.keys() == b.terms.keys()
        assert back.vectors.keys() == b.vectors.keys()
        for m, c in b.vectors.items():
            assert np.all(np.abs(back.vectors[m] - c) <= 1e-15 * np.abs(c))


@fast
@given(seed=seeds, dim=dims, order=st.integers(min_value=0, max_value=6),
       sparse=st.booleans(), composed=st.booleans())
def test_norm_p_is_sum_of_block_operator_norms(seed, dim, order, sparse, composed):
    # the Euclidean shortcut for one-row and one-column blocks against
    # the largest singular value of every canonical block
    if sparse:
        b = _sparse_symbol(seed, dim, order, composed)
    else:
        b = random_symbol(np.random.default_rng(seed), dim, order)
        if composed:
            b = b.compose_rlinear(random_symplectomorphism(np.random.default_rng(seed + 1), dim))
    want = sum(np.linalg.norm(a, 2) for a in b.terms.values())
    assert abs(b.norm_p() - want) <= 1e-13 * want


@fast
@given(seed=seeds, dim=dims, order=st.integers(min_value=0, max_value=6),
       composed=st.booleans())
def test_degree_from_orders_matches_canonical_blocks(seed, dim, order, composed):
    for b in (random_symbol(np.random.default_rng(seed), dim, order),
              _sparse_symbol(seed, dim, order, composed)):
        canonical = max((p + q for p, q in b.terms), default=0)
        assert b.degree() == b.degree(tol=1e-300) == canonical


@fast
@given(seed=seeds, dim=dims, orders=st.tuples(*[st.integers(0, 3)] * 3),
       eps=st.floats(min_value=0.05, max_value=1.0))
def test_wick_product_is_associative(seed, dim, orders, eps):
    rng = np.random.default_rng(seed)
    b1, b2, b3 = (random_symbol(rng, dim, m) for m in orders)
    left = wick_product_symbol(wick_product_symbol(b1, b2, eps), b3, eps)
    right = wick_product_symbol(b1, wick_product_symbol(b2, b3, eps), eps)
    assert left.distance_max(right) < 1e-12 * _scale(left)


@fast
@given(seed=seeds, dim=dims, order=st.integers(min_value=0, max_value=6),
       eps=st.floats(min_value=0.05, max_value=2.0))
def test_weyl_wick_round_trip_exact(seed, dim, order, eps):
    b = random_symbol(np.random.default_rng(seed), dim, order)
    assert wick_from_weyl(weyl_from_wick(b, eps), eps).distance_max(b) < 1e-12 * _scale(b)
    assert weyl_from_wick(wick_from_weyl(b, eps), eps).distance_max(b) < 1e-12 * _scale(b)


def _hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def _symmetric(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.T) / 2


@settings(max_examples=8, derandomize=True, deadline=None)
@given(seed=seeds, dim=dims, with_alpha=st.booleans(),
       s_frac=st.floats(min_value=0.0, max_value=1.0))
def test_lambda_s_matches_bracket_form(seed, dim, with_alpha, s_frac):
    rng = np.random.default_rng(seed)
    beta0, beta1 = _symmetric(rng, dim), _symmetric(rng, dim)
    alpha = _hermitian(rng, dim) if with_alpha else None
    h = QuadraticHamiltonian(dim, alpha=alpha, beta=lambda t: beta0 + np.sin(2.0 * t) * beta1,
                             t_end=0.4, dt=2e-3)
    flow = integrate_flow(h)
    c = random_symbol(rng, dim, 4 if dim < 3 else 3)
    s = 0.4 * s_frac
    direct = lambda_s(c, s, flow, h)
    via = lambda_s_via_bracket(c, s, flow, h)
    assert direct.distance_p(via) < 1e-9 * max(1.0, direct.norm_p())
