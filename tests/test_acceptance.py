"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured numbers.  Criterion 3 is implemented exactly as stated and marked
as a strict expected failure: at cutoff 24 the squeezing wavefront reaches
the top sectors well before t = 0.3, so the stated static trusted block
cannot meet the stated tolerance there (see README, "Known limitations");
the same identity passes at the same tolerance once the cutoff is raised,
which the companion assertions in this module and in test_fock verify.
"""

import math
import time

import numpy as np
import pytest

import hepp_expand.sectors as sec
from hepp_expand.cli import main
from hepp_expand.expansions import (
    Lambda_t,
    dyson_expand,
    exp_expand,
)
from hepp_expand.flow import QuadraticHamiltonian, integrate_flow, v_vector
from hepp_expand.fock import (
    FockSpace,
    conjugate_observable,
    quantum_flow,
    trusted_block_diff,
    wick_quantize,
)
from hepp_expand.symbols import (
    PolySymbol,
    preset_symbol,
    random_symbol,
    wick_product_symbol,
)
from hepp_expand.symplectic import (
    RLinearMap,
    decompose,
    is_symplectomorphism,
    random_symplectomorphism,
)
from hepp_expand.weylwick import weyl_from_wick, wick_from_weyl

from conftest import squeeze_setup
from reference import check_lambda_is_derivative_of_Lambda, field_and_weyl


def test_criterion_1_worked_example():
    """d=1 squeezing: flow, pair vector, second-order coefficients and the
    first integral term, all to 1e-8, in under 5 seconds."""
    started = time.time()
    tol = 1e-8
    h, flow = squeeze_setup(1.0)
    b = PolySymbol.monomial(1, (2,), (2,))
    worst = 0.0
    for t in (0.3, 0.7, 1.0):
        phi = flow.phi(t)
        worst = max(worst,
                    abs(phi.linear[0, 0] - math.cosh(t)),
                    abs(phi.antilinear[0, 0] - math.sinh(t)))
        v = v_vector(flow, t)[0, 0]
        worst = max(worst, abs(v - math.cosh(t) * math.sinh(t)))
        z0 = np.array([0j])
        mixed = Lambda_t(PolySymbol.monomial(1, (1,), (1,)), t, flow).evaluate(z0)
        holo = Lambda_t(PolySymbol.monomial(1, (0,), (2,)), t, flow).evaluate(z0)
        worst = max(worst, abs(mixed - (1 - math.cosh(2 * t))))
        worst = max(worst, abs(holo / 2.0 - 0.5 * math.sinh(2 * t)))
        dy = dyson_expand(b, t, flow, h, epsilon=0.5, nodes=16, max_order=1)
        lam_term = Lambda_t(b.compose_rlinear(phi), t, flow)
        worst = max(worst, dy.terms[1].distance_p(lam_term))
    elapsed = time.time() - started
    assert worst <= tol
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 1 (worked example): max defect {worst:.2e} <= 1e-8, "
          f"{elapsed:.2f}s")


def test_criterion_2_cross_engine_equality():
    """20 random scenarios (d <= 2, time-dependent beta, unit-norm
    observable of degree <= 6, t <= 1): per-order distance of the two
    engines <= max(1e-6, estimated quadrature error)."""
    started = time.time()
    rng = np.random.Generator(np.random.Philox(42))
    worst = 0.0
    failures = []
    for case in range(20):
        dim = 1 + case % 2
        degree = int(rng.integers(2, 7))
        dt = 2e-3
        t = float(rng.integers(10, 51) * 10) * dt  # 0.2 .. 1.0 on the grid
        # unit-scale coefficients: the absolute tolerance below presumes
        # O(1) scenario data, and composed norms grow like ||phi||^degree
        scale = 0.5 / math.sqrt(dim)
        m0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m0, m1 = scale * (m0 + m0.T), scale * (m1 + m1.T)
        omega = 1.0 + 2.0 * rng.random()
        beta = lambda s, m0=m0, m1=m1, omega=omega: m0 + np.sin(omega * s) * m1
        h = QuadraticHamiltonian(dim, beta=beta, t_end=t, dt=dt)
        flow = integrate_flow(h)
        b = random_symbol(rng, dim, degree)
        b = (1.0 / b.norm_p()) * b
        dy = dyson_expand(b, t, flow, h, epsilon=0.5, nodes=8)
        ex = exp_expand(b, t, flow, epsilon=0.5)
        coarse = None
        for k in range(degree // 2 + 1):
            dist = dy.terms[k].distance_p(ex.terms[k])
            worst = max(worst, dist)
            if dist > 1e-6:
                if coarse is None:
                    coarse = dyson_expand(b, t, flow, h, epsilon=0.5, nodes=6)
                estimate = dy.terms[k].distance_p(coarse.terms[k])
                if dist > max(1e-6, 3.0 * estimate):
                    failures.append((case, k, dist, estimate))
    elapsed = time.time() - started
    assert not failures, failures
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 2 (cross-engine): worst per-order distance "
          f"{worst:.2e} over 20 scenarios (tolerance max(1e-6, quad estimate)), "
          f"{elapsed:.1f}s")


def _oracle_errors(n_max, t, dt=5e-4):
    """Trusted-block oracle errors for both engines and both observables
    at the stated d=1 squeezing scenario, static trusted rule."""
    h, flow = squeeze_setup(t, dt=dt)
    space = FockSpace(1, n_max, 0.5)
    qf = quantum_flow(h, space, t, leak_threshold=np.inf)
    rows = []
    for name in ("number", "n-squared"):
        b = preset_symbol(name, 1)
        trusted = n_max - b.degree() - 4
        evolved = conjugate_observable(qf, b)
        ex = wick_quantize(exp_expand(b, t, flow, epsilon=0.5).assembled(), space)
        dy = wick_quantize(
            dyson_expand(b, t, flow, h, epsilon=0.5, nodes=16).assembled(), space)
        rows.append((name, trusted,
                     trusted_block_diff(evolved, ex, space, trusted),
                     trusted_block_diff(evolved, dy, space, trusted)))
    return rows


@pytest.mark.xfail(strict=True, reason=(
    "stated cutoff 24 cannot support tolerance 1e-5 on the stated static "
    "trusted block for t up to 0.3: the squeezing wavefront reaches the top "
    "sectors (boundary amplitude ~0.67 from sector 16 at t=0.3), so the "
    "truncated propagator is corrupted there; raising the cutoff to 48 "
    "meets the same tolerance (companion test below)"))
def test_criterion_3_fock_oracle_equality_as_stated():
    """d=1, eps=0.5, cutoff 24, b in {number, quartic}, t <= 0.3: trusted
    block difference <= 1e-5 for the exponential and integral assemblies."""
    started = time.time()
    worst = 0.0
    for t in (0.1, 0.2, 0.3):
        for name, trusted, err_exp, err_dy in _oracle_errors(24, t):
            worst = max(worst, err_exp, err_dy)
            print(f"criterion 3 [n_max=24] t={t} b={name} trusted<=n{trusted}: "
                  f"exp {err_exp:.2e}, dyson {err_dy:.2e}")
    elapsed = time.time() - started
    print(f"[FAIL - documented defect] criterion 3 as stated: max error "
          f"{worst:.2e} > 1e-5, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 120.0


def test_criterion_3_companion_converged_cutoff():
    """The same oracle equality passes at the stated 1e-5 tolerance on the
    same sector blocks once the cutoff is raised to 48."""
    started = time.time()
    worst = 0.0
    for t in (0.1, 0.3):
        h, flow = squeeze_setup(t, dt=5e-4)
        space = FockSpace(1, 48, 0.5)
        qf = quantum_flow(h, space, t, leak_threshold=np.inf)
        for name, block in (("number", 18), ("n-squared", 16)):
            b = preset_symbol(name, 1)
            evolved = conjugate_observable(qf, b)
            ex = wick_quantize(exp_expand(b, t, flow, epsilon=0.5).assembled(), space)
            dy = wick_quantize(
                dyson_expand(b, t, flow, h, epsilon=0.5, nodes=16).assembled(), space)
            worst = max(worst, trusted_block_diff(evolved, ex, space, block),
                        trusted_block_diff(evolved, dy, space, block))
    elapsed = time.time() - started
    assert worst <= 1e-5
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 3 companion (cutoff 48): max trusted-block error "
          f"{worst:.2e} <= 1e-5, {elapsed:.1f}s")


def test_criterion_4_alpha_removal_equivalence():
    """Nonzero constant alpha with nonzero beta: the engine assembly (which
    reads the classical flow of alpha and beta integrated together)
    matches the Fock conjugation (which removes alpha through the second
    quantization Gamma(u_alpha) of its unitary path)."""
    alpha = np.array([[0.4]])
    beta = np.array([[0.25 + 0.15j]])
    t = 0.25
    h = QuadraticHamiltonian(1, alpha=alpha, beta=beta, t_end=t, dt=5e-4)
    flow = integrate_flow(h)
    space = FockSpace(1, 18, 0.5)
    qf = quantum_flow(h, space, t, leak_threshold=np.inf)
    b = preset_symbol("n-squared", 1)
    trusted = space.n_max - b.degree() - 4
    evolved = conjugate_observable(qf, b)
    err_exp = trusted_block_diff(
        evolved, wick_quantize(exp_expand(b, t, flow, epsilon=0.5).assembled(), space),
        space, trusted)
    err_dy = trusted_block_diff(
        evolved, wick_quantize(dyson_expand(b, t, flow, h, epsilon=0.5, nodes=12).assembled(),
                               space), space, trusted)
    worst = max(err_exp, err_dy)
    assert worst <= 1e-5
    print(f"\n[PASS] criterion 4 (alpha removal): exp {err_exp:.2e}, "
          f"dyson {err_dy:.2e} <= 1e-5")


def test_criterion_5_bogoliubov_implementation():
    """Weyl conjugation by the quantum flow equals the Weyl operator of the
    transported argument on the trusted block, ||xi|| <= 1, t <= 0.3."""
    started = time.time()
    space = FockSpace(1, 48, 0.5)
    worst = 0.0
    for t in (0.15, 0.3):
        h, flow = squeeze_setup(t, dt=5e-4)
        qf = quantum_flow(h, space, t, leak_threshold=np.inf)
        u = qf.columns
        transport = flow.phi(t).adjoint()  # L*(t) + A*(t)
        for xi in (np.array([1.0 + 0j]), np.array([0.6 - 0.8j]), np.array([0.3 + 0.2j])):
            _, w_xi = field_and_weyl(xi, space)
            _, w_mapped = field_and_weyl(transport.apply(xi), space)
            lhs = u.conj().T @ w_xi @ u  # sectors <= n_max - 4
            s = space.span_slice(16)
            worst = max(worst, float(np.linalg.norm(lhs[s, s] - w_mapped[s, s], 2)))
    elapsed = time.time() - started
    assert worst <= 1e-5
    print(f"\n[PASS] criterion 5 (Bogoliubov implementation): max block norm "
          f"{worst:.2e} <= 1e-5, {elapsed:.1f}s")


def test_criterion_6_inequality_suite(tmp_path):
    """Generator bound, commutator bounds (k = 1, 2), composition estimate,
    second-order bounds and the soft growth bound on 1000 seeded samples."""
    import json
    started = time.time()
    scenario = {
        "schema_version": 1,
        "dim": 2,
        "epsilon": 0.5,
        "t_end": 0.5,
        "dt": 1e-3,
        "beta": {"kind": "constant",
                 "data": {"re": [[0.5, 0.2], [0.2, -0.3]], "im": [[0.1, 0.4], [0.4, 0.2]]}},
        "observable": {"preset": "number"},
        "fock": {"n_max": 12},
        "seed": 1000,
    }
    path = tmp_path / "estimates.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "report.json"
    code = main(["estimates", str(path), "--samples", "1000", "--out", str(out)])
    report = json.loads(out.read_text())
    elapsed = time.time() - started
    assert code == 0
    lines = []
    for row in report["rows"]:
        assert row["pass"], row
        lines.append(f"{row['name']}={row['max_ratio']:.3f}")
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 6 (inequalities, 1000 samples): "
          + ", ".join(lines) + f", {elapsed:.1f}s")


def test_criterion_7_structural_properties(rng):
    """Symplectomorphism equivalences, decomposition reconstruction,
    deconvolution roundtrip, quantization adjoint and product rules, and
    the h^2 defect of the generator/derivative identity."""
    # seven-way equivalence spot checks (conditions 2, 4, 7)
    for dim in (1, 2, 3):
        t_map = random_symplectomorphism(rng, dim)
        ml, ma = t_map.linear, t_map.antilinear
        eye = np.eye(dim)
        assert t_map.inverse().compose(t_map).distance(RLinearMap.identity(dim)) < 1e-10
        assert is_symplectomorphism(t_map, tol=1e-10).ok
        assert np.linalg.norm(ml @ ml.conj().T - ma @ np.conj(ma.T) - eye, 2) < 1e-10
        assert np.linalg.norm(ml @ ma.T - ma @ ml.T, 2) < 1e-10

    worst_rec = 0.0
    for k in range(50):
        dim = 1 + k % 3
        t_map = random_symplectomorphism(rng, dim)
        worst_rec = max(worst_rec, decompose(t_map).reconstruct().distance(t_map))
    assert worst_rec <= 1e-10

    worst_rt = 0.0
    for dim in (1, 2):
        b = random_symbol(rng, dim, 6)
        rt = wick_from_weyl(weyl_from_wick(b, 0.5), 0.5)
        worst_rt = max(worst_rt, rt.distance_max(b))
    assert worst_rt <= 1e-14

    space = FockSpace(2, 6, 0.5)
    b = random_symbol(rng, 2, 3)
    adj_err = np.abs(wick_quantize(b, space).conj().T - wick_quantize(b.conj(), space)).max()
    assert adj_err <= 1e-13

    space1 = FockSpace(1, 14, 0.5)
    b1 = random_symbol(rng, 1, 2)
    b2 = random_symbol(rng, 1, 2)
    prod_err = trusted_block_diff(wick_quantize(wick_product_symbol(b1, b2, 0.5), space1),
                                  wick_quantize(b1, space1) @ wick_quantize(b2, space1),
                                  space1, 10)
    assert prod_err <= 1e-12

    h, flow = squeeze_setup(1.0)
    c = random_symbol(rng, 1, 4)
    d1 = check_lambda_is_derivative_of_Lambda(flow, h, 0.5, c, h=0.02)["defect"]
    d2 = check_lambda_is_derivative_of_Lambda(flow, h, 0.5, c, h=0.01)["defect"]
    ratio = d1 / d2
    assert 3.0 < ratio < 5.0

    print(f"\n[PASS] criterion 7 (structural): reconstruction {worst_rec:.2e}, "
          f"roundtrip {worst_rt:.2e}, adjoint {adj_err:.2e}, product {prod_err:.2e}, "
          f"derivative-identity h-ratio {ratio:.2f}")
