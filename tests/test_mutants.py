"""Mutation test for the code both expansion engines share.

The Dyson and exponential engines share the classical flow, the
composition b o phi, the second-order kernel and the (eps/2)^k assembly,
and the oracle quantizes both sides of its comparison through
`fock._wick_entries`.  A slip in the flow, the composition, the assembly
or the quantization cancels in `expand --method both`, so each slip is
planted here in-process, and the oracle's own verdict on the complex d=2
demo scenario must turn to a tolerance failure (DeMillo, Lipton and
Sayward, "Hints on test data selection", 1978).  The oracle must not
share the classical flow: it integrates its interaction picture u_alpha
from alpha itself, so a slip in how the flow's generator reads alpha
(negated, transposed) fails it, as the slips in how it reads beta
(conjugated, negated) do.  The d=1 demo scenarios, whose data are all
real, cannot see a dropped conjugation.
"""

import os

import numpy as np
import pytest

from hepp_expand import expansions, flow, fock, sectors
from hepp_expand.cli import main
from hepp_expand.expansions import ExpansionResult
from hepp_expand.symbols import PolySymbol
from hepp_expand.symplectic import RLinearMap

SCENARIO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "demos", "scenarios", "oracle-d2-complex.json")


def _flow_generator(monkeypatch, slip):
    # `flow.doubled` is read by the classical flow's generator alone, as
    # doubled(-i alpha, beta); `RLinearMap.doubled` reads `symplectic.doubled`
    original = flow.doubled
    monkeypatch.setattr(flow, "doubled", lambda linear, antilinear: original(
        *slip(linear, antilinear)))


def flow_alpha_negated(monkeypatch):
    _flow_generator(monkeypatch, lambda linear, antilinear: (-linear, antilinear))


def flow_alpha_transposed(monkeypatch):
    _flow_generator(monkeypatch, lambda linear, antilinear: (linear.mT, antilinear))


def flow_beta_conjugated(monkeypatch):
    _flow_generator(monkeypatch, lambda linear, antilinear: (linear, np.conj(antilinear)))


def flow_beta_negated(monkeypatch):
    _flow_generator(monkeypatch, lambda linear, antilinear: (linear, -antilinear))


def compose_conjugated(monkeypatch):
    # (conj L, conj A) has the conjugate doubled matrix of T = L + A
    original = PolySymbol.compose_rlinear
    monkeypatch.setattr(PolySymbol, "compose_rlinear", lambda self, t: original(
        self, RLinearMap(np.conj(t.linear), np.conj(t.antilinear))))


def compose_pick_mode_major(monkeypatch):
    # the composition's (position, mode) pairs read off the raise table
    # flattened mode by mode instead of position by position
    def pick(dim, n):
        up = sectors.raise_table(dim, n)[0]
        out = np.empty(sectors.sector_dim(dim, n + 1), dtype=np.int64)
        out[up.T.ravel()] = np.arange(up.size)
        return out

    monkeypatch.setattr(sectors, "raise_pick", pick)


def kernel_pair_unconjugated(monkeypatch):
    original = expansions.second_order_kernel

    def kernel(mixed, pair):
        out = original(mixed, pair)
        d = out.shape[-1] // 2
        out[..., d:, d:] = pair
        return out

    monkeypatch.setattr(expansions, "second_order_kernel", kernel)


def kernel_mixed_untransposed(monkeypatch):
    original = expansions.second_order_kernel

    def kernel(mixed, pair):
        out = original(mixed, pair)
        d = out.shape[-1] // 2
        out[..., d:, :d] = np.asarray(mixed) / 2.0
        return out

    monkeypatch.setattr(expansions, "second_order_kernel", kernel)


def kernel_mixed_doubled(monkeypatch):
    original = expansions.second_order_kernel
    monkeypatch.setattr(expansions, "second_order_kernel",
                        lambda mixed, pair: original(2.0 * np.asarray(mixed), pair))


def assembled_eps_k(monkeypatch):
    def assembled(self, epsilon=None):
        eps = self.epsilon if epsilon is None else epsilon
        out = PolySymbol.zero(self.terms[0].dim)
        for k, term in enumerate(self.terms):
            out = out + (eps ** k) * term
        return out

    monkeypatch.setattr(ExpansionResult, "assembled", assembled)


def wick_sector_scale(monkeypatch):
    # degree m scaled by eps^m instead of eps^(m/2)
    original = fock._wick_entries

    def entries(b, space, n_top):
        scaled = {m: c * space.epsilon ** (m / 2.0) for m, c in b.vectors.items()}
        return original(PolySymbol._from_vectors(b.dim, scaled), space, n_top)

    monkeypatch.setattr(fock, "_wick_entries", entries)


MUTANTS = [flow_alpha_negated, flow_alpha_transposed, flow_beta_conjugated, flow_beta_negated,
           compose_conjugated, compose_pick_mode_major, kernel_pair_unconjugated,
           kernel_mixed_untransposed, kernel_mixed_doubled, assembled_eps_k, wick_sector_scale]


def test_unpatched_oracle_passes(capsys):
    assert main(["oracle", SCENARIO]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.__name__ for m in MUTANTS])
def test_mutant_fails_the_oracle(monkeypatch, capsys, mutant):
    mutant(monkeypatch)
    assert main(["oracle", SCENARIO]) == 1
    capsys.readouterr()
