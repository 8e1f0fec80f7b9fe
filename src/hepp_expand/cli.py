"""Scenario-driven command line front end.

    hepp-expand flow|expand|oracle|estimates scenario.json
                [--method dyson|exp|both] [--samples N] [--seed S]
                [--threads T] [--out report.json]

Every command reads one scenario file, runs the requested computation
and emits a JSON report (stdout or --out).  Exit codes: 0 pass,
1 tolerance fail (including a classical flow that drifts off the
symplectic group), 2 input error, 3 truncation/leakage abort, 4
internal error (any other exception; a one-line message, with the
traceback under HEPP_LOG=debug).  Set HEPP_LOG=debug|info for progress
logging on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .errors import LeakageError, ScenarioError, SymplecticityError
from .expansions import Lambda_of_map, dyson_expand, exp_expand
from .flow import integrate_flow
from .fock import (
    FockSpace,
    check_estimates,
    check_growth_bound,
    conjugate_observable,
    quantum_flow,
    sample_max,
    trusted_block_diff,
    wick_block,
)
from .scenario import SCHEMA_VERSION, Scenario
from .symbols import random_symbol
from .symplectic import euclidean_norm, random_symplectomorphism

log = logging.getLogger("hepp_expand")

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INPUT = 2
EXIT_LEAKAGE = 3
EXIT_INTERNAL = 4


def _matrix_json(mat) -> dict:
    mat = np.asarray(mat)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def _base_report(command: str, scenario: Scenario, args, h) -> dict:
    grid = h.grid()
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "dim": scenario.dim,
        "epsilon": scenario.epsilon,
        "t_end": scenario.t_end,
        "dt": float(grid[1] - grid[0]),
        "seed": scenario.seed,
        "threads": args.threads,
        "threads_applied": args.threads_applied,
    }


def cmd_flow(scenario: Scenario, args) -> tuple[int, dict]:
    h = scenario.hamiltonian()
    report = _base_report("flow", scenario, args, h)
    result = integrate_flow(h)
    last = len(result.times) - 1
    # every stride-th grid point, and the final time
    indices = sorted(set(range(0, last + 1, max(1, last // 10))) | {last})
    report["phi_samples"] = [{
        "t": float(result.times[k]),
        "linear": _matrix_json(result.linear[k]),
        "antilinear": _matrix_json(result.antilinear[k]),
        "symplectic_defect": float(result.defects[k]),
    } for k in indices]
    report["max_symplectic_defect"] = result.max_defect()
    tol = scenario.tolerances["flow"]
    report["tolerance"] = tol
    ok = result.max_defect() <= tol
    report["pass"] = bool(ok)
    return (EXIT_OK if ok else EXIT_TOLERANCE), report


def cmd_expand(scenario: Scenario, args) -> tuple[int, dict]:
    h = scenario.hamiltonian()
    report = _base_report("expand", scenario, args, h)
    b = scenario.observable()
    method = report["method"] = args.method
    if method in ("dyson", "both"):
        scenario.check_dyson()
    flow = integrate_flow(h)
    t = scenario.t_end
    code = EXIT_OK
    if method in ("dyson", "both"):
        dy = dyson_expand(b, t, flow, h, epsilon=scenario.epsilon, nodes=scenario.quad_nodes)
        report["dyson"] = dy.to_report()
    if method in ("exp", "both"):
        ex = exp_expand(b, t, flow, epsilon=scenario.epsilon)
        report["exponential"] = ex.to_report()
    if method == "both":
        tol = scenario.tolerances["cross_engine"]
        rows = []
        worst = 0.0
        for k in range(max(len(dy.terms), len(ex.terms))):
            dist = dy.terms[k].distance_p(ex.terms[k])
            worst = max(worst, dist)
            rows.append({"k": k, "distance": float(dist)})
        report["per_order_distance"] = rows
        report["max_distance"] = worst
        report["tolerance"] = tol
        report["pass"] = bool(worst <= tol)
        if worst > tol:
            code = EXIT_TOLERANCE
    return code, report


def cmd_oracle(scenario: Scenario, args) -> tuple[int, dict]:
    h = scenario.hamiltonian()
    report = _base_report("oracle", scenario, args, h)
    b = scenario.observable()
    m = b.degree()
    if scenario.n_max < m:
        raise ScenarioError(f"fock.n_max {scenario.n_max} is below the observable's degree {m}")
    trusted = max(0, scenario.n_max - m - 4)
    if trusted > scenario.n_max - 2:
        raise ScenarioError(f"fock.n_max {scenario.n_max} leaves no untrusted top sectors "
                            f"above the trusted sectors <= {trusted} for the leakage gate")
    scenario.check_dyson()
    scenario.check_fock(math.comb(scenario.dim + trusted, trusted))
    space = FockSpace(scenario.dim, scenario.n_max, scenario.epsilon)
    report["trusted_block"] = trusted
    # only the columns of U that start in the trusted sectors are evolved
    report["total_dim"] = space.total_dim
    report["evolved_columns"] = space.span_slice(trusted).stop
    flow = integrate_flow(h)
    t = scenario.t_end
    tol = scenario.tolerances["oracle"]
    try:
        # the Magnus step's error budget is a hundredth of the comparison's
        qf = quantum_flow(h, space, t, trusted_n=trusted,
                          leak_threshold=scenario.tolerances["leakage"], tol=tol / 100)
    except LeakageError as exc:
        report["error"] = str(exc)
        report["diagnostics"] = exc.diagnostics
        return EXIT_LEAKAGE, report
    evolved = conjugate_observable(qf, b)
    errors = {}
    ex = exp_expand(b, t, flow, epsilon=scenario.epsilon)
    # the engines' quantizations are compared on the trusted sectors only
    errors["exponential"] = trusted_block_diff(
        evolved, wick_block(ex.assembled(), space, trusted), space, trusted)
    dy = dyson_expand(b, t, flow, h, epsilon=scenario.epsilon, nodes=scenario.quad_nodes)
    errors["dyson"] = trusted_block_diff(
        evolved, wick_block(dy.assembled(), space, trusted), space, trusted)
    report["max_matrix_element_error"] = {k: float(v) for k, v in errors.items()}
    report["leakage"] = qf.max_leakage()
    report["unitarity_defect"] = qf.unitarity_defect()
    report["integrator"] = qf.integrator
    report["tolerance"] = tol
    ok = max(errors.values()) <= tol
    report["pass"] = bool(ok)
    return (EXIT_OK if ok else EXIT_TOLERANCE), report


def cmd_estimates(scenario: Scenario, args) -> tuple[int, dict]:
    h = scenario.hamiltonian()
    report = _base_report("estimates", scenario, args, h)
    n_samples = args.samples
    rng = scenario.rng()
    dim, eps, t, order = scenario.dim, scenario.epsilon, scenario.t_end, 4
    symbol_limit = 1.0 + 1e-12

    def row(name, max_ratio, limit, vacuous=False, samples=n_samples) -> dict:
        return {"name": name, "samples": samples, "max_ratio": float(max_ratio),
                "vacuous": vacuous, "pass": bool(max_ratio <= limit)}

    beta0 = h.beta_matrix(0.0)
    if np.any(beta0) and scenario.n_max < 2:
        raise ScenarioError(f"fock.n_max {scenario.n_max} is below 2: the generator and "
                            "commutator bounds quantize the degree-2 Q_beta")
    scenario.check_fock()
    space = FockSpace(dim, scenario.n_max, eps)
    fock_rep = check_estimates(beta0, space, n_samples=n_samples, rng=rng)
    rows = [row("generator_bound", fock_rep["max_ratio_generator"], 1.0, fock_rep["vacuous"])]
    rows += [row(f"commutator_bound_k{k}", v, 1.0, fock_rep["vacuous"])
             for k, v in fock_rep["max_ratio_commutator"].items()]

    # Each symbol row draws a stack of `size` samples and takes all their
    # ratios in one pass; sample_max feeds it blocks of samples, sized by
    # the (2d)^order entries of one sample's composition tensor.
    def worst(ratios):
        return sample_max(ratios, n_samples, entries=(2 * dim) ** order)

    def compose_ratio(size):
        b = random_symbol(rng, dim, total_order=order, samples=size)
        phi = random_symplectomorphism(rng, dim, samples=size)
        return b.compose_rlinear(phi).norm_p() / (phi.norm_x() ** order * b.norm_p())

    def second_order_ratio(size, m: int):
        # The stated second-order constant 2 ||T|| ||A||_HS is exact for
        # order m = 2 only; with the derivative normalization the general
        # constant picks up 2pq + p(p-1) + q(q-1) <= m(m-1) (2 at m = 2).
        c = random_symbol(rng, dim, total_order=m, samples=size)
        t_map = random_symplectomorphism(rng, dim, samples=size)
        const = m * (m - 1) * t_map.norm_x() * euclidean_norm(t_map.antilinear, 2)
        return Lambda_of_map(c, t_map).norm_p() / (const * c.norm_p())

    rows.append(row("compose_estimate", worst(compose_ratio), symbol_limit))
    for name, m in (("second_order_bound_m2", 2), ("second_order_bound", order)):
        rows.append(row(name, worst(lambda size: second_order_ratio(size, m)), symbol_limit))

    flow = integrate_flow(h)
    phi_t = flow.phi(t)
    a_hs = float(np.linalg.norm(phi_t.antilinear, "fro"))
    phi_norm = phi_t.norm_x()
    # degree-corrected assembly bound; reduces to the stated series
    # sum (eps ||phi|| ||A||)^k / k! when the top order is 2
    rate, series = eps / 2.0 * phi_norm * a_hs, 0.0
    for k in range(order // 2 + 1):
        series += rate ** k * math.perm(order, 2 * k) / math.factorial(k)

    def assembly_ratio(size):
        # the exponential engine runs once on the whole stack
        b = random_symbol(rng, dim, order, samples=size)
        assembled = exp_expand(b, t, flow, epsilon=eps).assembled()
        return assembled.norm_p() / (series * (b.norm_p() * phi_norm ** order))

    rows.append(row("exp_assembly_bound", worst(assembly_ratio), symbol_limit,
                    vacuous=a_hs == 0.0))
    if np.any(beta0):
        growth = check_growth_bound(beta0, space, min(t, 1.0), n_samples=n_samples, rng=rng)
        rows += [row(f"growth_bound_k{k}", v, 1.0) for k, v in growth["max_ratio"].items()]
    else:
        rows.append(row("growth_bound", 0.0, 1.0, vacuous=True, samples=0))

    report["rows"] = rows
    ok = all(r["pass"] for r in rows)
    report["pass"] = bool(ok)
    return (EXIT_OK if ok else EXIT_TOLERANCE), report


_COMMANDS = {
    "flow": cmd_flow,
    "expand": cmd_expand,
    "oracle": cmd_oracle,
    "estimates": cmd_estimates,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hepp-expand",
        description="Run classical flows, observable expansions, Fock-oracle "
                    "comparisons and inequality sweeps from a scenario file.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("scenario", help="path to the scenario JSON file")
    parser.add_argument("--method", choices=["dyson", "exp", "both"], default="both",
                        help="expansion engine(s) for the expand command")
    parser.add_argument("--samples", type=int, default=200,
                        help="sample count for the estimates command")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread cap (reductions are deterministic regardless)")
    parser.add_argument("--out", default=None, help="write the report to this path")
    # set by main once a --threads cap has actually been applied
    parser.set_defaults(threads_applied=False)
    return parser


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fail(what: str, exc, code: int) -> int:
    """Print a one-line message to stderr and return the exit code."""
    print(f"hepp-expand: {what}: {' '.join(str(exc).split())}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("HEPP_LOG", "WARNING").upper(),
                        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if (args.samples < 1 or (args.seed is not None and args.seed < 0)
            or (args.threads is not None and args.threads < 1)):
        return _fail("input error", f"--samples and --threads must be >= 1 and --seed >= 0, "
                     f"got {args.samples}, {args.threads} and {args.seed}", EXIT_INPUT)
    if args.threads is not None:
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            log.info("threadpoolctl not installed; --threads recorded only")
        else:
            threadpool_limits(limits=args.threads)
            args.threads_applied = True
    try:
        scenario = Scenario.from_path(args.scenario)
        if args.seed is not None:
            scenario.seed = args.seed
        code, report = _COMMANDS[args.command](scenario, args)
    except ScenarioError as exc:
        return _fail("scenario error", exc, EXIT_INPUT)
    except LeakageError as exc:
        return _fail("leakage abort", exc, EXIT_LEAKAGE)
    except SymplecticityError as exc:
        return _fail("tolerance failure", exc, EXIT_TOLERANCE)
    except Exception as exc:
        log.debug("internal error in %s", args.command, exc_info=True)
        return _fail("internal error", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)
    try:
        _emit(report, args.out)
    except OSError as exc:
        return _fail("cannot write report", exc, EXIT_INPUT)
    log.info("command %s finished with exit code %d", args.command, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
