"""The benchmark's workloads: scenarios made from a seed, and the gate.

Every scenario is generated here from ``--seed`` and written as JSON;
the program under test sees only those files (or, for ``cli-demos``,
the committed demo scenarios plus ``--seed``).
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = ["expand-d2-deg6", "oracle-d2-n24", "cli-demos"]

# Tolerances the README documents as scenario defaults; the gate uses
# them for scenarios that leave a tolerance out.
DEFAULT_TOLERANCES = {"flow": 1e-8, "cross_engine": 1e-6, "oracle": 1e-5, "leakage": 1e-6}

EXIT_OK, EXIT_LEAKAGE = 0, 3
DEMO_SCENARIOS = ("example-im-z2", "oracle-im-z2")
CLI_COMMANDS = ("flow", "expand", "oracle", "estimates")


def _matrix(mat) -> dict:
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def _hermitian(rng, dim, hs_norm):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (x + x.conj().T) / 2.0
    return h * (hs_norm / np.linalg.norm(h))


def _symmetric(rng, dim, hs_norm):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    s = (x + x.T) / 2.0
    return s * (hs_norm / np.linalg.norm(s))


def _ramp(mats, t_end) -> dict:
    # two samples: linear in t, so the Gauss-Legendre Dyson rule sees a
    # smooth coefficient (see NOTES.md for what interior knots do)
    return {"kind": "sampled", "times": [0.0, t_end], "values": [_matrix(m) for m in mats]}


def dense_observable(rng, dim, degree) -> dict:
    """Every monomial with p + q <= degree, complex normal coefficients,
    in the explicit-polynomial JSON form of the scenario schema."""
    terms = []
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            entries = []
            for q_idx in itertools.combinations_with_replacement(range(1, dim + 1), q):
                for p_idx in itertools.combinations_with_replacement(range(1, dim + 1), p):
                    re, im = rng.standard_normal(2)
                    entries.append([list(q_idx), list(p_idx), float(re), float(im)])
            terms.append({"p": p, "q": q, "entries": entries})
    return {"dim": dim, "terms": terms}


def expand_scenario(seed: int, degree: int = 6, t_end: float = 0.5) -> dict:
    rng = np.random.default_rng([seed, 1])
    dim = 2
    alpha = [_hermitian(rng, dim, 1.0) for _ in range(2)]
    beta = [_symmetric(rng, dim, 1.0) for _ in range(2)]
    return {
        "schema_version": 1, "dim": dim, "epsilon": 0.5, "t_end": t_end, "dt": 1e-3,
        "alpha": _ramp(alpha, t_end), "beta": _ramp(beta, t_end),
        "observable": dense_observable(rng, dim, degree),
        "quad": {"nodes": 8},
        "tolerances": {"cross_engine": 1e-6},
        "seed": seed,
    }


def oracle_scenario(seed: int, n_max: int = 24, t_end: float = 0.05) -> dict:
    rng = np.random.default_rng([seed, 2])
    dim = 2
    alpha = [_hermitian(rng, dim, 1.0) for _ in range(2)]
    # |beta|_HS = 0.25 keeps the top-sector leakage at t_end below ~1e-5
    # for every seed tried, against a gate of 1e-4; the trusted-block
    # error then sits near 1e-13, far under the oracle tolerance.
    beta = [_symmetric(rng, dim, 0.25) for _ in range(2)]
    return {
        "schema_version": 1, "dim": dim, "epsilon": 0.5, "t_end": t_end, "dt": 5e-4,
        "alpha": _ramp(alpha, t_end), "beta": _ramp(beta, t_end),
        "observable": {"preset": "quartic-cross"},
        "fock": {"n_max": n_max},
        "quad": {"nodes": 8},
        "tolerances": {"oracle": 1e-5, "leakage": 1e-4},
        "seed": seed,
    }


def write_scenarios(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list:
    """Write the workload's scenarios; return the paths the CLI will read."""
    if workload == "cli-demos":
        return [ROOT / "demos" / "scenarios" / f"{name}.json" for name in DEMO_SCENARIOS]
    if workload == "expand-d2-deg6":
        data = expand_scenario(seed, **({"degree": 2, "t_end": 0.05} if tiny else {}))
    elif workload == "oracle-d2-n24":
        data = oracle_scenario(seed, **({"n_max": 8, "t_end": 0.005} if tiny else {}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = Path(workdir) / f"{workload}-{seed}.json"
    path.write_text(json.dumps(data))
    return [path]


def commands(workload: str, paths, seed: int, workdir: Path, tiny: bool = False) -> list:
    """The CLI invocations of one solve as (label, argv, expected exit, scenario path)."""
    out = []
    if workload == "cli-demos":
        for path in paths:
            for cmd in CLI_COMMANDS:
                argv = [cmd, str(path), "--seed", str(seed)]
                if tiny and cmd == "estimates":
                    argv += ["--samples", "5"]
                # the N_max=24 cutoff is too small for example-im-z2 at
                # t_end=1.0: the documented outcome is a leakage abort
                expected = EXIT_LEAKAGE if (cmd, path.stem) == ("oracle", "example-im-z2") \
                    else EXIT_OK
                out.append((f"{cmd}:{path.stem}", argv, expected, path))
    else:
        cmd = "expand" if workload == "expand-d2-deg6" else "oracle"
        extra = ["--method", "both"] if cmd == "expand" else []
        out.append((cmd, [cmd, str(paths[0])] + extra, EXIT_OK, paths[0]))
    for i, (label, argv, expected, path) in enumerate(out):
        argv += ["--out", str(Path(workdir) / f"report-{i}.json")]
    return out


def check(argv, expected: int, code, report, scenario_path, exception=None) -> list:
    """Reasons one CLI invocation failed the gate (empty when it passed)."""
    if exception is not None:
        return [f"exception: {exception}"]
    reasons = []
    if code != expected:
        reasons.append(f"exit code {code}, expected {expected}")
    if report is None:
        return reasons + ["no report written"]
    with open(scenario_path) as fh:
        tol = dict(DEFAULT_TOLERANCES, **json.load(fh).get("tolerances", {}))
    if expected == EXIT_LEAKAGE:
        if "leakage" not in str(report.get("error", "")):
            reasons.append("expected a leakage abort in the report")
        return reasons
    if report.get("pass") is not True:
        reasons.append(f"report pass={report.get('pass')!r}")
    command = argv[0]
    if command == "expand":
        # every expand here runs both engines (the CLI default)
        rows = report.get("per_order_distance")
        if not rows:
            reasons.append("no per_order_distance in the report")
        for row in rows or []:
            if not row["distance"] <= tol["cross_engine"]:
                reasons.append(f"order {row['k']} distance {row['distance']:.3e} "
                               f"> cross_engine {tol['cross_engine']:.1e}")
    if command == "oracle":
        errors = report.get("max_matrix_element_error")
        if not errors:
            reasons.append("no max_matrix_element_error in the report")
        for engine, err in (errors or {}).items():
            if not err <= tol["oracle"]:
                reasons.append(f"{engine} max_matrix_element_error {err:.3e} "
                               f"> oracle {tol['oracle']:.1e}")
    return reasons


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def report_path(argv) -> str:
    return argv[argv.index("--out") + 1]


def clear_report(argv) -> None:
    try:
        os.remove(report_path(argv))
    except FileNotFoundError:
        pass
