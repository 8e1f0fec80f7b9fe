"""Brute-force validation on a truncated Fock space.

The evolved observable U(0,t) b^Wick U(t,0) is computed on the trusted
sectors 0..trusted_n of the cutoff-N space, from the columns of U that
start there (the only ones the flow evolves), and compared entrywise
against the quantization of the assembled expansion symbol.  Operators
are plain numpy arrays: ``quantum_flow(ham, space, t)`` runs on the
Hamiltonian's own grid up to the grid time t and holds the evolved
columns at t as ``qf.parity_blocks``, one (states, u) pair per
particle-number parity (``qf.columns`` assembles them into the
total_dim x n_cols direct-sum block on each read);
``conjugate_observable(qf, b)`` returns
the trusted block, and ``trusted_block_diff(a, b, space, n)`` compares
two arrays on sectors <= n.  The comparison is only meaningful
on sectors the cutoff cannot pollute; the last block of this script
shows how the trusted error collapses as the cutoff grows, which is the
practical way to pick N for a given time span.
"""

import numpy as np

from hepp_expand import (
    FockSpace,
    QuadraticHamiltonian,
    conjugate_observable,
    exp_expand,
    integrate_flow,
    preset_symbol,
    quantum_flow,
    trusted_block_diff,
    wick_quantize,
)

t = 0.3
ham = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=t, dt=5e-4)
flow = integrate_flow(ham)
b = preset_symbol("n-squared", 1)
assembled = exp_expand(b, t, flow, epsilon=0.5).assembled()

print("quantized evolved observable vs quantized expansion symbol")
print("cutoff N   trusted n<=16 error   leakage onto top sectors")
for n_max in (24, 32, 40, 48):
    space = FockSpace(1, n_max, 0.5)
    qf = quantum_flow(ham, space, t, leak_threshold=np.inf, trusted_n=16)
    evolved = conjugate_observable(qf, b)
    err = trusted_block_diff(evolved, wick_quantize(assembled, space), space, 16)
    print(f"   {n_max:3d}        {err:.3e}             {qf.max_leakage():.3e}")

print("\nthe identity is exact in the limit; at N = 48 the trusted block")
print("agrees to ~1e-6 while N = 24 is still dominated by cutoff reflections")

# the same comparison for the number observable, small space, short time
space = FockSpace(1, 20, 0.5)
short = 0.05
ham_s = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=short, dt=5e-4)
flow_s = integrate_flow(ham_s)
qf = quantum_flow(ham_s, space, short, leak_threshold=np.inf)
number = preset_symbol("number", 1)
evolved = conjugate_observable(qf, number)
sym = wick_quantize(exp_expand(number, short, flow_s, epsilon=0.5).assembled(), space)
print(f"\nnumber observable, t={short}, N=20: trusted error "
      f"{trusted_block_diff(evolved, sym, space, 12):.2e}")
