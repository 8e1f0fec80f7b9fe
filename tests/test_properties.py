"""Property tests for the algebraic identities the expansions rest on.

Every example draws a seed and a few sizes; the symbols, maps and
Hamiltonians are then built from a numpy generator on that seed.  The
runs are derandomized, so the examples are the same on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hepp_expand.sectors as sec
from hepp_expand.expansions import exp_expand, lambda_s
from hepp_expand.flow import QuadraticHamiltonian, integrate_flow
from hepp_expand.fock import FockSpace, wick_apply, wick_quantize
from hepp_expand.symbols import (
    PolySymbol,
    apply_second_order_operator,
    random_symbol,
    wick_product_symbol,
)
from hepp_expand.symplectic import (
    _GROUP_RTOL,
    _ZERO_TOL,
    RLinearMap,
    decompose,
    random_symplectomorphism,
)
from hepp_expand.weylwick import weyl_from_wick, wick_from_weyl

from reference import compose_full_tensor, lambda_s_via_bracket

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=3)
fast = settings(max_examples=12, derandomize=True, deadline=None)


def _scale(b):
    return max(1.0, max((float(np.abs(a).max()) for a in b.terms.values()), default=0.0))


def _absolute(b):
    """The symbol with the absolute values of b's coefficients."""
    return PolySymbol(b.dim, {k: np.abs(a) for k, a in b.terms.items()})


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
@given(seed=seeds, dim=st.integers(min_value=1, max_value=2),
       orders=st.tuples(*[st.integers(0, 3)] * 2), n_trust=st.integers(0, 6),
       eps=st.floats(min_value=0.05, max_value=2.0))
def test_wick_product_is_the_operator_product(seed, dim, orders, n_trust, eps):
    # (b1 #_eps b2)^Wick = b1^Wick b2^Wick holds entry by entry on sectors
    # <= n_trust once no intermediate state of b2^Wick from there is cut:
    # b2 raises the particle number by at most its degree m2, so the
    # cutoff n_trust + m1 + m2 suffices (and holds the product's degree).
    rng = np.random.default_rng(seed)
    b1, b2 = (random_symbol(rng, dim, m) for m in orders)
    space = FockSpace(dim, n_trust + sum(orders), eps)
    prod = wick_product_symbol(b1, b2, eps)
    n = space.span_slice(n_trust).stop
    diff = np.abs(wick_quantize(prod, space) - wick_quantize(b1, space) @ wick_quantize(b2, space))
    # The two sides then differ by rounding only.  Wick's theorem orders a
    # product with nonnegative weights and the ladder matrix elements are
    # nonnegative, so each side sums, per entry, at most K rounded products
    # whose absolute values add up to S = (|b1|^Wick |b2|^Wick)_rc, |b| the
    # symbol with absolute coefficients.  K counts the longest summation:
    # the total_dim terms of the matmul plus the product symbol's
    # coefficients.  The summation bound |error| <= gamma_K S, gamma_K =
    # K u / (1 - K u), on either side gives the bound below; the measured
    # ratio is <= 0.12 over 300 draws.
    s = (wick_quantize(_absolute(b1), space) @ wick_quantize(_absolute(b2), space)).real
    k = space.total_dim + sum(len(c) for c in prod.vectors.values())
    u = np.finfo(float).eps / 2
    assert diff[:n, :n].max() <= 2 * k * u / (1 - k * u) * s[:n, :n].max()


@fast
@given(seed=seeds, dim=dims, order=st.integers(0, 4), extra=st.integers(0, 4),
       n_vec=st.integers(1, 6), eps=st.floats(min_value=0.05, max_value=2.0))
def test_wick_apply_is_the_dense_product(seed, dim, order, extra, n_vec, eps):
    rng = np.random.default_rng(seed)
    b = random_symbol(rng, dim, order)
    space = FockSpace(dim, order + extra, eps)
    v = rng.standard_normal((space.total_dim, n_vec)) + 1j * rng.standard_normal(
        (space.total_dim, n_vec))
    diff = np.abs(wick_apply(b, space, v) - wick_quantize(b, space) @ v)
    # Both sides are sums of the same products of coefficients, ladder
    # values and entries of v, grouped differently: the sparse matrix sums
    # the monomials' entries of one position in its own order, the dense
    # one in monomial order, and the two products run over the nonzeros
    # or all total_dim terms of a row.  The ladder values are positive, so
    # per entry the absolute values of the products add up to
    # S = (|b|^Wick |v|)_rc.  Each side sums at most K rounded terms, K the
    # total_dim terms of the product plus the symbol's coefficients, and a
    # complex product adds at most 2 more (Higham, section 3.6), so
    # |error| <= gamma_{K+2} S on either side; the measured ratio is
    # <= 0.1 over 300 draws.
    s = wick_quantize(_absolute(b), space).real @ np.abs(v)
    k = space.total_dim + sum(len(c) for c in b.vectors.values()) + 2
    u = np.finfo(float).eps / 2
    assert diff.max() <= 2 * k * u / (1 - k * u) * s.max()


@fast
@given(seed=seeds, dim=st.integers(min_value=1, max_value=4),
       rho_scale=st.floats(min_value=0.0, max_value=2.0))
def test_decompose_reconstructs(seed, dim, rho_scale):
    t_map = random_symplectomorphism(np.random.default_rng(seed), dim, rho_scale=rho_scale)
    err = decompose(t_map).reconstruct().distance(t_map)
    # decompose reads its bases off the singular vectors of L and the
    # eigenvectors of the antilinear part on each singular space.  A
    # backward-stable solver fixes an eigenvector to ~u ||T|| / delta, delta
    # the separation of its value (Davis-Kahan).  Here the values are
    # lam_j = sinh(rho_j) = sqrt(sig_j^2 - 1); values that decompose groups
    # into one singular space (_GROUP_RTOL) need no separating.  The
    # reconstruction multiplies the bases by values of size <= ||T||, so the
    # rounding part is <= c d u ||T||^2 / delta, delta capped at 1.  A space
    # whose antilinear part is at most _ZERO_TOL gets rho = 0, which drops
    # at most _ZERO_TOL per mode.  Measured: c <= 12 over 6000 maps at
    # d <= 4 and rho_scale <= 2; the bound takes c = 100.
    sig = np.linalg.svd(t_map.linear, compute_uv=False)
    lam = np.sqrt(np.maximum(sig ** 2 - 1.0, 0.0))
    gaps = -np.diff(lam)[-np.diff(sig) > _GROUP_RTOL * sig[:-1]]
    delta = min(1.0, gaps.min(initial=1.0))
    u = np.finfo(float).eps / 2
    assert err <= 100 * dim * u * t_map.norm_x() ** 2 / delta + dim * _ZERO_TOL


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


def _sample(stack, p):
    """Sample p of a stack of polynomials, as one polynomial."""
    return PolySymbol._from_vectors(stack.dim, {m: c[:, p] for m, c in stack.vectors.items()})


def _assert_close(stacked, one, rel=1e-14):
    """Coefficients equal to `rel` relative to the largest of `one`."""
    scale = max((float(np.abs(c).max()) for c in one.vectors.values()), default=0.0)
    assert stacked.distance_max(one) <= rel * scale


maps = st.sampled_from(["one symbol", "one map", "per-sample maps"])


def _symbol_and_map(seed, dim, order, case):
    """One symbol and one map, a stack of 3 and one map, or a stack of 3
    and a map per sample."""
    rng = np.random.default_rng(seed)
    b = random_symbol(rng, dim, order, samples=None if case == "one symbol" else 3)
    return b, random_symplectomorphism(rng, dim, samples=3 if case == "per-sample maps" else None)


@fast
@given(seed=seeds, dim=dims, order=st.integers(min_value=0, max_value=6), case=maps)
def test_composition_matches_the_full_tensor(seed, dim, order, case):
    b, t = _symbol_and_map(seed, dim, order, case)
    _assert_close(b.compose_rlinear(t), compose_full_tensor(b, t), rel=1e-13)


def _padded(b):
    """b on C^d as a symbol on C^{d+1} that leaves the last mode out."""
    def positions(n):
        return sec.rank(np.pad(sec.occupation_array(b.dim, n), ((0, 0), (0, 1))))

    terms = {}
    for (p, q), a in b.terms.items():
        terms[(p, q)] = np.zeros(a.shape[:-2] + (sec.sector_dim(b.dim + 1, q),
                                                 sec.sector_dim(b.dim + 1, p)), dtype=complex)
        terms[(p, q)][..., positions(q)[:, None], positions(p)] = a
    return PolySymbol(b.dim + 1, terms)


def _plus_one(t):
    """T (+) 1 on C^{d+1}: the new mode is fixed."""
    pad = [(0, 0)] * (t.linear.ndim - 2) + [(0, 1), (0, 1)]
    linear = np.pad(t.linear, pad)
    linear[..., -1, -1] = 1.0
    return RLinearMap(linear, np.pad(t.antilinear, pad))


@fast
@given(seed=seeds, dim=dims, order=st.integers(min_value=0, max_value=6), case=maps)
def test_composition_embeds_in_one_more_mode(seed, dim, order, case):
    # C^d in C^{d+1}: composing with T (+) 1 never reaches the new mode
    b, t = _symbol_and_map(seed, dim, order, case)
    _assert_close(_padded(b).compose_rlinear(_plus_one(t)), _padded(b.compose_rlinear(t)),
                  rel=1e-13)


@fast
@given(seed=seeds, dim=dims, order=st.integers(min_value=0, max_value=6),
       samples=st.integers(min_value=1, max_value=4))
def test_stacked_routines_match_one_symbol_calls(seed, dim, order, samples):
    # every sample of a stack gets what the one-polynomial call gives it
    rng = np.random.default_rng(seed)
    stack = random_symbol(rng, dim, order, samples=samples)
    maps = random_symplectomorphism(rng, dim, samples=samples)
    kernels = _symmetric(rng, 2 * dim)[None] + np.stack(
        [_symmetric(rng, 2 * dim) for _ in range(samples)])
    h = QuadraticHamiltonian(dim, alpha=_hermitian(rng, dim), beta=_symmetric(rng, dim),
                             t_end=0.2, dt=1e-2)
    flow = integrate_flow(h)
    composed = stack.compose_rlinear(maps)
    norms = stack.norm_p()
    second = apply_second_order_operator(stack, kernels)
    terms = exp_expand(stack, 0.2, flow, epsilon=0.5).terms
    assert norms.shape == (samples,)
    for p in range(samples):
        one = _sample(stack, p)
        t_map = RLinearMap(maps.linear[p], maps.antilinear[p])
        _assert_close(_sample(composed, p), one.compose_rlinear(t_map))
        assert abs(norms[p] - one.norm_p()) <= 1e-14 * one.norm_p()
        _assert_close(_sample(second, p), apply_second_order_operator(one, kernels[p]))
        for term, one_term in zip(terms, exp_expand(one, 0.2, flow, epsilon=0.5).terms,
                                  strict=True):
            _assert_close(_sample(term, p), one_term)


@fast
@given(seed=seeds, dim=dims, order=st.integers(min_value=0, max_value=6))
def test_draw_of_one_is_the_single_draw(seed, dim, order):
    # bitwise, and the generator is left in the same state
    draws = []
    for samples in (None, 1):
        rng = np.random.default_rng(seed)
        b = random_symbol(rng, dim, order, samples=samples)
        t_map = random_symplectomorphism(rng, dim, samples=samples)
        psi = FockSpace(dim, 6).random_state(rng, 4, samples=samples)
        draws.append((b.vectors, t_map.linear, t_map.antilinear, psi, rng.random()))
    (b1, l1, a1, psi1, next1), (b2, l2, a2, psi2, next2) = draws
    assert b1.keys() == b2.keys()
    assert all(np.array_equal(b1[m], b2[m][:, 0]) for m in b1)
    assert np.array_equal(l1, l2[0]) and np.array_equal(a1, a2[0])
    assert np.array_equal(psi1, psi2[:, 0]) and next1 == next2


@settings(max_examples=40, derandomize=True, deadline=None)
@given(dim=st.integers(min_value=1, max_value=8), n=st.integers(min_value=0, max_value=10))
def test_rank_is_the_enumeration_order(dim, n):
    # rank reads each position off the occupation alone; the enumeration
    # order of combinations_with_replacement is the one it must reproduce
    occ = sec.occupation_array(dim, n)
    assert np.array_equal(sec.rank(occ), np.arange(len(occ)))
    # the raise table points at kappa + e_i, with weight kappa_i + 1
    if n < 10:
        up, weight = sec.raise_table(dim, n)
        raised = sec.occupation_array(dim, n + 1)[up]
        assert np.array_equal(raised, occ[:, None, :] + np.eye(dim, dtype=np.int64))
        assert np.array_equal(weight, occ + 1.0)
        # the pick names, per position of sector n + 1, a raise landing there
        assert np.array_equal(up.ravel()[sec.raise_pick(dim, n)],
                              np.arange(sec.sector_dim(dim, n + 1)))


@fast
@given(dim=st.integers(min_value=1, max_value=4), n_max=st.integers(min_value=0, max_value=12))
def test_stacked_rank_is_the_direct_sum_order(dim, n_max):
    space = FockSpace(dim, n_max)
    stacked = np.concatenate([sec.occupation_array(dim, n) for n in range(n_max + 1)])
    positions = sec._stacked_rank(stacked)
    assert np.array_equal(positions, np.arange(space.total_dim))
    for n in range(n_max + 1):
        first = np.zeros(dim, dtype=np.int64)
        first[0] = n
        assert sec._stacked_rank(first) == space.offsets[n]
