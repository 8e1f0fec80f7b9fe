"""Semiclassical expansions of quantum-evolved Wick observables on C^d.

The package integrates the classical flow of a time-dependent quadratic
Hamiltonian, expands the evolved observable with two independent
engines (nested time integrals and an operator exponential), and checks
both against a brute-force truncated Fock evolution.
"""

from .errors import (
    DimensionMismatchError,
    LeakageError,
    ScenarioError,
    SymplecticityError,
)
from .expansions import (
    ExpansionResult,
    Lambda_of_map,
    Lambda_t,
    dyson_expand,
    exp_expand,
    lambda_s,
)
from .flow import (
    FlowResult,
    QuadraticHamiltonian,
    integrate_flow,
    integrate_u_alpha,
    v_vector,
)
from .fock import (
    FockSpace,
    QuantumFlowResult,
    check_estimates,
    check_growth_bound,
    conjugate_observable,
    gamma_u,
    quantum_flow,
    trusted_block_diff,
    wick_apply,
    wick_block,
    wick_quantize,
)
from .scenario import Scenario
from .symbols import (
    PolySymbol,
    apply_second_order_operator,
    contraction,
    laplacian,
    preset_symbol,
    random_symbol,
    second_order_kernel,
    squeezing_hamiltonian_symbol,
    wick_product_symbol,
)
from .symplectic import (
    RLinearMap,
    SymplecticityReport,
    SymplectoDecomposition,
    decompose,
    exp_antilinear,
    is_symplectomorphism,
    random_symplectomorphism,
)
from .weylwick import weyl_from_wick, wick_from_weyl

__version__ = "0.1.0"
