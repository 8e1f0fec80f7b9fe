"""The two semiclassical expansions of an evolved Wick observable.

Both engines expand U(0,t) b^Wick U(t,0) at the symbol level as a
polynomial in the scale parameter.  The integral engine accumulates
nested simplex integrals of the first-order generator lambda^s; the
exponential engine applies the accumulated second-order operator
Lambda^t, whose formal time derivative is lambda^t.  Term k of either
engine carries the weight (eps/2)^k at assembly and lowers the total
degree by exactly 2k, so the series terminates at floor(m/2).
"""

from __future__ import annotations

import math

import numpy as np

from .flow import FlowResult, QuadraticHamiltonian
from .symbols import (
    PolySymbol,
    apply_second_order_operator,
    apply_second_order_stack,
    second_order_kernel,
)
from .symplectic import RLinearMap


class ExpansionResult:
    """Ordered expansion terms of one engine run.

    `terms[k]` is the coefficient of (eps/2)^k; `assembled()` sums the
    weighted terms at the stored (or an explicit) epsilon.
    """

    def __init__(self, method, t, epsilon, terms, quad_spec=None):
        self.method = method
        self.t = t
        self.epsilon = epsilon
        self.terms = list(terms)
        self.quad_spec = quad_spec or {}

    def assembled(self, epsilon: float = None) -> PolySymbol:
        eps = self.epsilon if epsilon is None else epsilon
        out = PolySymbol.zero(self.terms[0].dim)
        for k, term in enumerate(self.terms):
            out = out + ((eps / 2.0) ** k) * term
        return out

    def to_report(self) -> dict:
        rows = [{"k": k, "norm": term.norm_p(), "symbol": term.to_json()}
                for k, term in enumerate(self.terms)]
        return {
            "method": self.method,
            "t": self.t,
            "epsilon": self.epsilon,
            "terms": rows,
            "assembled_norm": self.assembled().norm_p(),
            "quad_spec": self.quad_spec,
        }


def _require_base_zero(flow: FlowResult):
    if abs(flow.t_start) > 1e-12:
        raise ValueError("expansion engines require a flow based at t = 0")


def _generator_kernels(s, flow: FlowResult,
                       hamiltonian: QuadraticHamiltonian) -> np.ndarray:
    """Kernels N_s K_beta(s) N_s^T of lambda^s, stacked over the times `s`.

    N_s is the doubled matrix of phi_s^-1 = L* - A* (dense output of the
    flow) and K_beta(s) the kernel of the pair contraction with beta_s.
    """
    n_inv = RLinearMap(*flow.phi_on(s)).inverse().doubled()
    beta = hamiltonian.beta_on(s)
    k_beta = second_order_kernel(np.zeros_like(beta), beta)
    return n_inv @ k_beta @ n_inv.mT


def lambda_s(c: PolySymbol, s: float, flow: FlowResult,
             hamiltonian: QuadraticHamiltonian) -> PolySymbol:
    """First-order generator at time s; lowers total degree by 2.

    It contracts the second derivatives of c o phi_s^-1 against beta_s
    and composes back with phi_s.  By the chain rule in the doubled
    variables that is one second-order operator on c itself, with kernel
    N K_beta N^T for N the doubled matrix of phi_s^-1.
    """
    _require_base_zero(flow)
    return apply_second_order_operator(c, _generator_kernels(s, flow, hamiltonian)[0])


def Lambda_t(c: PolySymbol, t: float, flow: FlowResult) -> PolySymbol:
    """Accumulated second-order operator of the flow at grid time t, that
    of the fixed map phi(t)* = L* + A*: -2 A*A trace and v_t pair terms."""
    return Lambda_of_map(c, flow.phi(t).adjoint())


def Lambda_of_map(c: PolySymbol, t_map: RLinearMap) -> PolySymbol:
    """The analogous operator attached to a fixed symplectomorphism
    T = L + A, built from -2 A A* and the pair tensor of L A*.

    For a stack of P maps the kernels are built as one stack and c is a
    stack of P polynomials, sample p under map p.
    """
    a_t = t_map.antilinear.mT
    pair = t_map.linear @ a_t
    kernel = second_order_kernel(-2.0 * (t_map.antilinear @ np.conj(a_t)),
                                 (pair + pair.mT) / 2.0)
    return apply_second_order_operator(c, kernel)


def dyson_expand(b: PolySymbol, t: float, flow: FlowResult,
                 hamiltonian: QuadraticHamiltonian, epsilon: float,
                 nodes: int = 16, max_order: int = None) -> ExpansionResult:
    """Integral-formula engine.

    Term k integrates the k-fold generator composition
    lambda^{s_k} ... lambda^{s_1} over the nested region
    {0 <= s_k <= ... <= s_1 <= t} produced by the recursion (each new
    time is bounded by the previous one).  The region is mapped onto the
    unit cube by s_{j+1} = s_j u_{j+1} with the Jacobian accumulated
    analytically, one Gauss-Legendre rule per axis; the generator
    recursion is evaluated lazily along the node tree.

    The tree is walked one block of siblings at a time: the (up to)
    `nodes` children of one parent, held as stacked per-order columns.
    For a block of P columns the walk builds the kernels at all
    P * nodes child times in one batch and takes the second derivatives
    of all P columns in one stack (`apply_second_order_stack`).  On the
    last level the children are only summed, so by linearity of the
    operator in its kernel each column meets only its weighted kernel
    sum.  Otherwise the walk descends once per column into the block of
    that column's children, unless they are all zero.  That makes
    1 + sum_{j < kmax-1} nodes^j kernel batches (10 at nodes = 8,
    kmax = 3).  Only the blocks on one path of the tree are alive at
    once, so the memory stays O(kmax nodes^2 (2d)^2) sector vectors.
    """
    _require_base_zero(flow)
    if nodes < 1:
        raise ValueError("quadrature needs at least one node per axis")
    m = b.degree()
    kmax = m // 2 if max_order is None else min(max_order, m // 2)
    term0 = b.compose_rlinear(flow.phi(t))
    terms = [term0] + [PolySymbol.zero(b.dim) for _ in range(kmax)]
    if kmax >= 1:
        x, w = np.polynomial.legendre.leggauss(nodes)
        xs = (x + 1.0) / 2.0
        ws = w / 2.0
        n = 2 * b.dim

        def walk(block, level, bounds, weights):
            # block: order -> (S_m, P) columns of P siblings on `level`,
            # with their time bounds and accumulated weights (P,)
            s = bounds[:, None] * xs
            wk = (weights * bounds)[:, None] * ws
            kernels = _generator_kernels(s.reshape(-1), flow, hamiltonian)
            kernels = kernels.reshape(s.shape + (n, n))
            if level + 1 == kmax:
                summed = np.einsum("pj,pjab->pab", wk, kernels)[:, None]
                leaves = apply_second_order_stack(b.dim, block, summed)
                terms[kmax] = terms[kmax] + PolySymbol._from_vectors(
                    b.dim, {m: c.sum(axis=(1, 2)) for m, c in leaves.items()})
                return
            children = apply_second_order_stack(b.dim, block, kernels)
            terms[level + 1] = terms[level + 1] + PolySymbol._from_vectors(
                b.dim, {m: c.reshape(len(c), -1) @ wk.reshape(-1)
                        for m, c in children.items()})
            alive = {m: np.any(c, axis=(0, 2)) for m, c in children.items()}
            for p in range(len(bounds)):
                sub = {m: c[:, p] for m, c in children.items() if alive[m][p]}
                if sub:
                    walk(sub, level + 1, s[p], wk[p])

        walk({m: c[:, None] for m, c in term0.vectors.items()}, 0,
             np.array([t], dtype=float), np.array([1.0]))
    return ExpansionResult("dyson", t, epsilon, terms,
                           quad_spec={"rule": "gauss-legendre-duffy", "nodes": nodes})


def dyson_batches(degree: int, nodes: int) -> int:
    """The most kernel batches of `dyson_expand` at this degree and nodes."""
    kmax = degree // 2
    return kmax if kmax < 1 or nodes == 1 else 1 + (nodes ** (kmax - 1) - 1) // (nodes - 1)


def exp_expand(b: PolySymbol, t: float, flow: FlowResult, epsilon: float,
               max_order: int = None) -> ExpansionResult:
    """Exponential-formula engine: term k is (1/k!) Lambda_t^k (b o phi).

    For a stack of P polynomials b every term is the stack of the P
    samples' terms: the recursion runs once, on all columns.
    """
    m = b.degree()
    kmax = m // 2 if max_order is None else min(max_order, m // 2)
    term0 = b.compose_rlinear(flow.phi(t))
    terms = [term0]
    power = term0
    for k in range(1, kmax + 1):
        power = Lambda_t(power, t, flow)
        terms.append((1.0 / math.factorial(k)) * power)
    return ExpansionResult("exponential", t, epsilon, terms)
