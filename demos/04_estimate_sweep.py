"""Monte Carlo sweep of the operator bounds behind the expansions.

Each row samples an inequality with seeded randomness and reports the
largest LHS/RHS ratio seen; all rows stay at or below one.  The same
sweep is available from the command line:

    hepp-expand estimates demos/scenarios/oracle-im-z2.json --samples 500
"""

import numpy as np

from hepp_expand import (
    FockSpace,
    Lambda_of_map,
    check_estimates,
    check_growth_bound,
    random_symbol,
    random_symplectomorphism,
)

rng = np.random.Generator(np.random.Philox(11))

# quantized-generator and commutator bounds on the truncated space
space = FockSpace(2, 10, 0.5)
beta = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
beta = 0.5 * (beta + beta.T)
rep = check_estimates(beta, space, n_samples=400, rng=rng)
print(f"generator bound      max ratio {rep['max_ratio_generator']:.3f}")
for k, v in rep["max_ratio_commutator"].items():
    print(f"commutator bound k={k} max ratio {v:.3f}")

# composition estimate: ||b o phi|| <= ||phi||^m ||b||
worst = 0.0
for _ in range(300):
    dim = int(rng.integers(1, 3))
    b = random_symbol(rng, dim, 4)
    phi = random_symplectomorphism(rng, dim)
    worst = max(worst, b.compose_rlinear(phi).norm_p()
                / (phi.norm_x() ** b.degree() * b.norm_p()))
print(f"composition estimate max ratio {worst:.3f}")

# second-order operator bound with the degree-dependent constant
worst = 0.0
for _ in range(300):
    dim = int(rng.integers(1, 3))
    c = random_symbol(rng, dim, 4)
    t_map = random_symplectomorphism(rng, dim)
    hs = np.linalg.norm(t_map.antilinear, "fro")
    m = c.degree()
    worst = max(worst, Lambda_of_map(c, t_map).norm_p()
                / (m * (m - 1) * t_map.norm_x() * hs * c.norm_p()))
print(f"second-order bound   max ratio {worst:.3f}")

# soft growth bound of the quantum flow in the number scale
growth = check_growth_bound(np.array([[0.8]]), FockSpace(1, 18, 0.5), 0.6,
                            n_samples=200, rng=rng)
for k, v in growth["max_ratio"].items():
    print(f"growth bound k={k}    max ratio {v:.3f}")
