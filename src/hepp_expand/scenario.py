"""Scenario files: one JSON document describing a full run.

A scenario pins the one-particle dimension, the semiclassical scale,
the time grid, both Hamiltonian coefficients, the observable, the Fock
cutoff, quadrature resolution, tolerances and the RNG seed, so every
command-line run is reproducible from the file alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError
from .flow import QuadraticHamiltonian
from .symbols import PolySymbol, preset_symbol

SCHEMA_VERSION = 1

_DEFAULT_TOLERANCES = {
    "flow": 1e-8,
    "cross_engine": 1e-6,
    "oracle": 1e-5,
    "leakage": 1e-6,
}


def _matrix_from_json(data, dim, what):
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{what}: expected {{re, im}} arrays") from exc
    mat = re + 1j * im
    if mat.shape != (dim, dim):
        raise ScenarioError(f"{what}: expected a {dim}x{dim} matrix, got {mat.shape}")
    return mat


def _vector_from_json(data, dim, what):
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{what}: expected {{re, im}} arrays") from exc
    vec = re + 1j * im
    if vec.shape != (dim,):
        raise ScenarioError(f"{what}: expected a length-{dim} vector, got {vec.shape}")
    return vec


def _coefficient_sampler(spec, dim, what):
    """zero / constant / sampled coefficient spec -> sampler argument."""
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "zero":
        return None
    if kind == "constant":
        return _matrix_from_json(spec.get("data", {}), dim, what)
    if kind == "sampled":
        try:
            times = np.asarray(spec["times"], dtype=float)
            values = np.stack([_matrix_from_json(v, dim, what) for v in spec["values"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{what}: sampled spec needs times and values") from exc
        if len(times) != len(values) or len(times) < 2:
            raise ScenarioError(f"{what}: need matching times/values, at least two samples")
        return (times, values)
    raise ScenarioError(f"{what}: unknown kind '{kind}'")


def _integer(value, name: str, minimum: int) -> int:
    """A JSON integer (not a bool) no smaller than `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


@dataclass
class Scenario:
    """Parsed scenario, ready to build the Hamiltonian and observable."""

    dim: int
    epsilon: float
    t_end: float
    dt: float
    alpha_spec: object
    beta_spec: object
    observable_spec: object
    n_max: int
    quad_nodes: int
    tolerances: dict
    seed: int
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        try:
            dim = int(data["dim"])
            t_end = float(data["t_end"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError("scenario needs integer 'dim' and numeric 't_end'") from exc
        if dim < 1:
            raise ScenarioError("dim must be >= 1")
        epsilon = float(data.get("epsilon", 0.5))
        if epsilon <= 0:
            raise ScenarioError("epsilon must be positive")
        dt = float(data.get("dt", 1e-3))
        if dt <= 0 or t_end < 0:
            raise ScenarioError("dt must be positive and t_end non-negative")
        tol = dict(_DEFAULT_TOLERANCES)
        tol.update(data.get("tolerances", {}))
        n_max = _integer(data.get("fock", {}).get("n_max", 16), "fock.n_max", 0)
        quad_nodes = _integer(data.get("quad", {}).get("nodes", 16), "quad.nodes", 1)
        return cls(
            dim=dim,
            epsilon=epsilon,
            t_end=t_end,
            dt=dt,
            alpha_spec=data.get("alpha"),
            beta_spec=data.get("beta"),
            observable_spec=data.get("observable"),
            n_max=n_max,
            quad_nodes=quad_nodes,
            tolerances=tol,
            seed=int(data.get("seed", 0)),
            raw=data,
        )

    @classmethod
    def from_path(cls, path: str) -> "Scenario":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"malformed scenario JSON: {exc}") from exc
        return cls.from_dict(data)

    def hamiltonian(self) -> QuadraticHamiltonian:
        alpha = _coefficient_sampler(self.alpha_spec, self.dim, "alpha")
        beta = _coefficient_sampler(self.beta_spec, self.dim, "beta")
        try:
            # pad a t_end = 0 request to one step; commands still evaluate
            # at the requested time, which stays on the grid
            return QuadraticHamiltonian(self.dim, alpha=alpha, beta=beta,
                                        t_end=max(self.t_end, self.dt), dt=self.dt)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    def observable(self) -> PolySymbol:
        spec = self.observable_spec
        if spec is None:
            raise ScenarioError("scenario has no observable")
        if "preset" in spec:
            xi = None
            if "xi" in spec:
                xi = _vector_from_json(spec["xi"], self.dim, "observable.xi")
            try:
                return preset_symbol(spec["preset"], self.dim, xi=xi)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc
        try:
            sym = PolySymbol.from_json(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"bad observable spec: {exc}") from exc
        if sym.dim != self.dim:
            raise ScenarioError(f"observable dim {sym.dim} != scenario dim {self.dim}")
        return sym

    def rng(self, seed=None) -> np.random.Generator:
        """Counter-based generator so parallel reports stay reproducible."""
        return np.random.Generator(np.random.Philox(self.seed if seed is None else seed))
