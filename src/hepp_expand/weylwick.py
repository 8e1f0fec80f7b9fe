"""Weyl <-> Wick symbol conversion and Bogoliubov conjugation checks.

The two symbol conventions differ by a Gaussian deconvolution, which on
polynomials is the nilpotent exponential e^{+-(eps/2) d_z . d_zbar}; the
series terminates at half the degree, so both directions are exact
mutual inverses.

For a symplectomorphism T = u e^{c rho}, a Bogoliubov implementer on
the truncated space is exp(-i Q_rho^Wick / eps) Gamma(u)^* with
Q_rho(z) = Im<c rho z, z>; conjugating a quantized observable with it
must reproduce the symbol e^{(eps/2) Lambda[T]} [b o T*] from the
second-order operator of T.  `check_weyl_conjugation` verifies that
statement twice: once purely at symbol level through the Weyl route,
once against the truncated-space matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .expansions import Lambda_of_map
from .fock import FockSpace, gamma_u, trusted_block_diff, wick_quantize
from .symbols import PolySymbol, laplacian, squeezing_hamiltonian_symbol
from .symplectic import RLinearMap, SymplectoDecomposition, decompose


def weyl_from_wick(b: PolySymbol, epsilon: float) -> PolySymbol:
    """Weyl symbol of b^Wick: e^{-(eps/2) d_z . d_zbar} b."""
    return _deconvolve(b, -epsilon / 2.0)


def wick_from_weyl(b_weyl: PolySymbol, epsilon: float) -> PolySymbol:
    """Wick symbol of b^Weyl: e^{+(eps/2) d_z . d_zbar} b."""
    return _deconvolve(b_weyl, epsilon / 2.0)


def _deconvolve(b: PolySymbol, s: float) -> PolySymbol:
    out = b
    power = b
    k = 1
    while True:
        power = laplacian(power)
        if power.is_zero():
            return out
        out = out + (s**k / math.factorial(k)) * power
        k += 1


def exp_lambda_of_map(b: PolySymbol, t_map: RLinearMap, epsilon: float) -> PolySymbol:
    """Finite exponential sum of the second-order operator of T applied
    to b, truncated at half the degree where it vanishes identically."""
    out = b
    power = b
    for k in range(1, b.degree() // 2 + 1):
        power = Lambda_of_map(power, t_map)
        out = out + ((epsilon / 2.0) ** k / math.factorial(k)) * power
    return out


def bogoliubov_implementer(t_map, space: FockSpace) -> np.ndarray:
    """A unitary U on the truncated space with U* W(xi) U ~= W(T xi).

    Accepts an RLinearMap (decomposed internally) or a ready
    SymplectoDecomposition.
    """
    from scipy.linalg import block_diag, expm

    if isinstance(t_map, SymplectoDecomposition):
        dec = t_map
    else:
        dec = decompose(t_map)
    e = dec.conj_basis
    q_rho = squeezing_hamiltonian_symbol((e * dec.rho_eigs) @ e.T)
    squeeze = expm(-1j * wick_quantize(q_rho, space) / space.epsilon)
    return squeeze @ block_diag(*gamma_u(dec.unitary, space)).conj().T


def check_weyl_conjugation(t_map: RLinearMap, b: PolySymbol, space: FockSpace,
                           n_trust: int = None) -> dict:
    """Conjugation identity for a fixed symplectomorphism T.

    Symbol route: push b to its Weyl symbol, compose with T*, pull back
    to a Wick symbol; this must equal e^{(eps/2) Lambda[T]} [b o T*]
    exactly.  Operator route: conjugate b^Wick by the implementer and
    compare with the quantization of that symbol on the trusted block.
    """
    eps = space.epsilon
    b_tstar = b.compose_rlinear(t_map.adjoint())
    rhs_symbol = exp_lambda_of_map(b_tstar, t_map, eps)
    weyl_route = wick_from_weyl(weyl_from_wick(b, eps).compose_rlinear(t_map.adjoint()), eps)
    symbol_defect = weyl_route.distance_max(rhs_symbol)

    if n_trust is None:
        n_trust = max(0, space.n_max - b.degree() - 4)
    u_op = bogoliubov_implementer(t_map, space)
    lhs = u_op.conj().T @ wick_quantize(b, space) @ u_op
    operator_defect = trusted_block_diff(lhs, wick_quantize(rhs_symbol, space), space, n_trust)
    return {
        "symbol_defect": float(symbol_defect),
        "operator_defect": float(operator_defect),
        "n_trust": int(n_trust),
    }

