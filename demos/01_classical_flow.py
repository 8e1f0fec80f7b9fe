"""Classical flow of a quadratic Hamiltonian, step by step.

The model is the simplest nontrivial case: one mode, Q(z) = Im(z^2).
Its flow is the hyperbolic rotation z -> z cosh t + conj(z) sinh t, so
every number the integrator produces can be checked against cosh/sinh.
"""

import numpy as np

from hepp_expand import (
    QuadraticHamiltonian,
    decompose,
    integrate_flow,
    is_symplectomorphism,
    v_vector,
)

# Im(z^2) corresponds to the coefficient matrix [[1]]
ham = QuadraticHamiltonian(1, beta=np.array([[1.0]]), t_end=1.0, dt=1e-3)
flow = integrate_flow(ham)

print("time    L(t)       cosh t     A(t)       sinh t     defect")
for t in (0.25, 0.5, 0.75, 1.0):
    phi = flow.phi(t)
    rep = is_symplectomorphism(phi)
    print(f"{t:4.2f}  {phi.linear[0,0].real:9.6f}  {np.cosh(t):9.6f}"
          f"  {phi.antilinear[0,0].real:9.6f}  {np.sinh(t):9.6f}"
          f"  {max(rep.gram_defect, rep.cross_defect):.2e}")

# the pair vector L*(t) A(t) drives the second-order transport operator
t = 1.0
v = v_vector(flow, t)[0, 0]
print(f"\npair vector at t={t}: {v:.6f}  (cosh t sinh t = {np.cosh(t)*np.sinh(t):.6f})")

# each flow map factors into a unitary and a squeezing exponential
dec = decompose(flow.phi(t))
print(f"squeezing spectrum of phi({t}): {np.round(dec.rho_eigs, 6)}  (expected [{t}])")
print(f"reconstruction error: {dec.reconstruct().distance(flow.phi(t)):.2e}")

# dense output between grid points stays on the closed form
s = 0.6175
phi_s = flow.phi_at(s)
print(f"\ndense output at t={s}: |L - cosh| = "
      f"{abs(phi_s.linear[0,0] - np.cosh(s)):.2e}, |A - sinh| = "
      f"{abs(phi_s.antilinear[0,0] - np.sinh(s)):.2e}")
