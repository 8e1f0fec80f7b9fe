"""Scenario files: one JSON document describing a full run.

A scenario pins the one-particle dimension, the semiclassical scale,
the time grid, both Hamiltonian coefficients, the observable, the Fock
cutoff, quadrature resolution, tolerances and the RNG seed, so every
command-line run is reproducible from the file alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .expansions import dyson_batches
from .flow import HERMITIAN_TOL, QuadraticHamiltonian
from .symbols import PolySymbol, preset_symbol

SCHEMA_VERSION = 1

_DEFAULT_TOLERANCES = {
    "flow": 1e-8,
    "cross_engine": 1e-6,
    "oracle": 1e-5,
    "leakage": 1e-6,
}

_KEYS = ("schema_version", "dim", "epsilon", "t_end", "dt", "alpha", "beta",
         "observable", "fock", "quad", "tolerances", "seed")

# Input limits, so an absurd value is refused rather than exhausting
# memory or overflowing.  Gauss-Legendre gains nothing here past a few
# hundred nodes; the step cap is 1,000 times the largest grid of any
# scenario in the repo; the epsilon range keeps eps^k and eps^(m/2) finite.
# Measured: the flow holds ~110 B per stack entry, so its cap, the stack
# of d=1 at the step cap, is ~0.45 GB; the oracle at d=6, N=12 (3.9e6 Fock
# entries) with alpha present takes 0.31 GB and ~5.5 s (0.43 GB while its
# tables kept copies their products never read, 2.16 GB and 21-25 s while
# Gamma(u_alpha) was formed as dense sector blocks); a Dyson batch takes
# 0.2-3 ms at d <= 3.
_MAX_QUAD_NODES = 256
_MAX_STEPS = 10**6
_EPSILON_RANGE = (1e-100, 100.0)
_MAX_FLOW_STACK = 4 * _MAX_STEPS
_MAX_FOCK_ENTRIES = 2**22
_MAX_DYSON_BATCHES = 2**10


def _cap(count: int, cap: int, what: str) -> None:
    if count > cap:
        shown = f"{count:.3g}" if count < 10**300 else "over 1e300"
        raise ScenarioError(f"{what} is {shown}, above the cap of {cap}")


def _check_keys(block: dict, allowed, what: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ScenarioError(f"{what}: unknown keys {unknown}; allowed are {list(allowed)}")


def _block(data: dict, key: str, allowed) -> dict:
    """An optional JSON object whose keys all come from `allowed`."""
    block = data.get(key, {})
    if not isinstance(block, dict):
        raise ScenarioError(f"{key} must be a JSON object, got {block!r}")
    _check_keys(block, allowed, key)
    return block


def _number(value, name: str) -> float:
    """A finite JSON number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ScenarioError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _array_from_json(data, shape, what):
    """A {re, im} JSON object as a finite complex array of the given shape."""
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{what}: expected {{re, im}} arrays") from exc
    arr = re + 1j * im
    if arr.shape != shape:
        raise ScenarioError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ScenarioError(f"{what}: entries must be finite numbers")
    return arr


def _coefficient_sampler(spec, dim, what, hermitian=False):
    """zero / constant / sampled coefficient spec -> sampler argument."""
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "zero":
        return None
    if kind == "constant":
        times, values = None, _array_from_json(spec.get("data", {}), (dim, dim), what)[None]
    elif kind == "sampled":
        try:
            times = np.asarray(spec["times"], dtype=float)
            values = np.stack([_array_from_json(v, (dim, dim), what) for v in spec["values"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{what}: sampled spec needs times and values") from exc
        if times.ndim != 1 or len(times) != len(values) or len(times) < 2:
            raise ScenarioError(f"{what}: need matching times/values, at least two samples")
        if not np.isfinite(times).all() or np.any(np.diff(times) < 0):
            raise ScenarioError(f"{what}: times must be finite and non-decreasing")
    else:
        raise ScenarioError(f"{what}: unknown kind {kind!r}")
    if hermitian:
        skew = np.abs(values - np.conj(values.mT)).max()
        if skew > HERMITIAN_TOL:
            raise ScenarioError(f"{what}: not Hermitian (|M - M*| = {skew:.1e} "
                                f"> {HERMITIAN_TOL:.0e})")
    return values[0] if times is None else (times, values)


def _integer(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """A JSON integer (not a bool) no smaller than `minimum` and, if given,
    no larger than `maximum`."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < minimum
            or (maximum is not None and value > maximum)):
        bounds = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise ScenarioError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


def _observable(spec, dim: int) -> PolySymbol:
    """A preset or explicit observable, checked against the scenario dim."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"observable must be a JSON object, got {spec!r}")
    if "preset" in spec:
        xi = None
        if "xi" in spec:
            xi = _array_from_json(spec["xi"], (dim,), "observable.xi")
        try:
            return preset_symbol(spec["preset"], dim, xi=xi)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    try:
        sym = PolySymbol.from_json(spec)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ScenarioError(f"bad observable spec: {exc!r}") from exc
    if not all(np.isfinite(c).all() for c in sym.vectors.values()):
        raise ScenarioError("observable: coefficients must be finite numbers")
    if sym.dim != dim:
        raise ScenarioError(f"observable dim {sym.dim} != scenario dim {dim}")
    return sym


@dataclass
class Scenario:
    """Parsed scenario: the Hamiltonian and observable are built and
    checked when the file is read."""

    dim: int
    epsilon: float
    t_end: float
    quadratic_hamiltonian: QuadraticHamiltonian
    observable_symbol: PolySymbol | None
    n_max: int
    quad_nodes: int
    tolerances: dict
    seed: int

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        _check_keys(data, _KEYS, "scenario")
        version = data.get("schema_version", SCHEMA_VERSION)
        if isinstance(version, bool) or version != SCHEMA_VERSION:
            raise ScenarioError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
        for key in ("dim", "t_end"):
            if key not in data:
                raise ScenarioError(f"scenario needs '{key}'")
        dim = _integer(data["dim"], "dim", 1)
        t_end = _number(data["t_end"], "t_end")
        epsilon = _number(data.get("epsilon", 0.5), "epsilon")
        dt = _number(data.get("dt", 1e-3), "dt")
        if epsilon <= 0 or dt <= 0 or t_end < 0:
            raise ScenarioError("epsilon and dt must be positive and t_end non-negative")
        if not _EPSILON_RANGE[0] <= epsilon <= _EPSILON_RANGE[1]:
            raise ScenarioError(f"epsilon must lie in [{_EPSILON_RANGE[0]:g}, "
                                f"{_EPSILON_RANGE[1]:g}], got {epsilon!r}")
        steps = t_end / dt
        if not math.isfinite(steps) or round(steps) > _MAX_STEPS:
            raise ScenarioError(f"t_end / dt = {steps:.3g} exceeds the cap of {_MAX_STEPS} steps")
        _cap(max(1, round(steps)) * (2 * dim) ** 2, _MAX_FLOW_STACK,
             "the classical flow's generator stack, (t_end / dt) (2 dim)^2 entries,")
        tol = dict(_DEFAULT_TOLERANCES)
        for name, value in _block(data, "tolerances", tuple(_DEFAULT_TOLERANCES)).items():
            tol[name] = _number(value, f"tolerances.{name}")
            if tol[name] < 0:
                raise ScenarioError(f"tolerances.{name} must be >= 0, got {value!r}")
        n_max = _integer(_block(data, "fock", ("n_max",)).get("n_max", 16), "fock.n_max", 0)
        quad_nodes = _integer(_block(data, "quad", ("nodes",)).get("nodes", 16), "quad.nodes",
                              1, _MAX_QUAD_NODES)
        observable = (None if data.get("observable") is None
                      else _observable(data["observable"], dim))
        seed = _integer(data.get("seed", 0), "seed", 0)
        # pad a t_end = 0 request to one step; commands still evaluate at
        # the requested time, which stays on the grid
        hamiltonian = QuadraticHamiltonian(
            dim, alpha=_coefficient_sampler(data.get("alpha"), dim, "alpha", hermitian=True),
            beta=_coefficient_sampler(data.get("beta"), dim, "beta"), t_end=t_end or dt, dt=dt)
        return cls(dim=dim, epsilon=epsilon, t_end=t_end, quadratic_hamiltonian=hamiltonian,
                   observable_symbol=observable, n_max=n_max, quad_nodes=quad_nodes,
                   tolerances=tol, seed=seed)

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
        return self.quadratic_hamiltonian

    def observable(self) -> PolySymbol:
        if self.observable_symbol is None:
            raise ScenarioError("scenario has no observable")
        return self.observable_symbol

    def check_fock(self, columns: int = None) -> None:
        """Refuse C(dim + n_max, n_max) states by `columns` (all by default) past the cap."""
        states = math.comb(self.dim + self.n_max, self.n_max)
        held = f"{columns} evolved columns" if columns else "all of them (estimates is dense)"
        _cap(states * (columns or states), _MAX_FOCK_ENTRIES,
             f"the dense Fock block, C(dim + n_max, n_max) = {states} states by {held},")

    def check_dyson(self) -> None:
        """Refuse a Dyson walk of more kernel batches than its cap."""
        _cap(dyson_batches(self.observable().degree(), self.quad_nodes), _MAX_DYSON_BATCHES,
             "the Dyson walk, 1 + sum_{j < degree/2 - 1} quad.nodes^j kernel batches,")

    def rng(self) -> np.random.Generator:
        """Counter-based generator so parallel reports stay reproducible."""
        return np.random.Generator(np.random.Philox(self.seed))
