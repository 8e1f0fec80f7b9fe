"""Weyl <-> Wick symbol conversion.

The two symbol conventions differ by a Gaussian deconvolution, which on
polynomials is the nilpotent exponential e^{+-(eps/2) d_z . d_zbar}; the
series terminates at half the degree, so both directions are exact
mutual inverses.
"""

from __future__ import annotations

import math

from .symbols import PolySymbol, laplacian


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
