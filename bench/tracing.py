"""Spans and counters recorded around the public functions of hepp_expand.

The benchmark never edits the package: it replaces selected functions
and methods with timing wrappers for the length of a traced solve and
puts the originals back afterwards.  A span is (name, start, end,
parent); spans stay in memory until the run ends.  Times come from
``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC, so spans
recorded in a child process line up with spans of the parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  An attribute "Class.method" patches
# the method on the class; a module-level function is patched in every
# hepp_expand module that imported it by name.
TARGETS = [
    ("scenario", "Scenario.from_path", "scenario.parse"),
    ("scenario", "Scenario.hamiltonian", "scenario.hamiltonian"),
    ("scenario", "Scenario.observable", "scenario.observable"),
    ("flow", "integrate_flow", "flow.integrate_flow"),
    ("flow", "integrate_u_alpha", "flow.integrate_u_alpha"),
    ("flow", "v_vector", "flow.v_vector"),
    ("symplectic", "is_symplectomorphism", "symplectic.is_symplectomorphism"),
    ("symplectic", "random_symplectomorphism", "symplectic.random_symplectomorphism"),
    ("symplectic", "decompose", "symplectic.decompose"),
    ("symbols", "PolySymbol.compose_rlinear", "symbols.compose_rlinear"),
    ("symbols", "apply_second_order_operator", "symbols.second_order"),
    ("symbols", "random_symbol", "symbols.random_symbol"),
    ("expansions", "lambda_s", "expansions.lambda_s"),
    ("expansions", "Lambda_t", "expansions.Lambda_t"),
    ("expansions", "Lambda_of_map", "expansions.Lambda_of_map"),
    ("expansions", "dyson_expand", "expansions.dyson"),
    ("expansions", "exp_expand", "expansions.exp"),
    ("fock", "quantum_flow", "fock.quantum_flow"),
    ("fock", "wick_quantize", "fock.wick_quantize"),
    ("fock", "FockSpace.ladder_product", "fock.ladder_product"),
    ("fock", "conjugate_observable", "fock.conjugate"),
    ("fock", "gamma_u", "fock.gamma_u"),
    ("fock", "QuantumFlowResult.unitarity_defect", "fock.unitarity_defect"),
    ("fock", "check_estimates", "fock.check_estimates"),
    ("fock", "check_growth_bound", "fock.check_growth_bound"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_flow", "cli.flow"),
    ("cli", "cmd_expand", "cli.expand"),
    ("cli", "cmd_oracle", "cli.oracle"),
    ("cli", "cmd_estimates", "cli.estimates"),
    ("cli", "_emit", "cli.emit"),
]


def _before_ladder_product(tracer, args):
    space, m_occ, n_occ = args[0], args[1], args[2]
    cache = getattr(space, "_ladder_cache", None)
    hit = cache is not None and (tuple(m_occ), tuple(n_occ)) in cache
    tracer.counters["fock.ladder_cache_hits"] += int(hit)
    return hit


def _after_ladder_product(tracer, hit, result):
    # bytes computed from the array sizes the cache keeps, not measured
    if not hit and hasattr(result, "nbytes"):
        tracer.counters["fock.ladder_cache_bytes"] += result.nbytes


def _before_quantum_flow(tracer, args):
    tracer.counters["fock.total_dim"] = max(tracer.counters["fock.total_dim"],
                                            args[1].total_dim)


def _after_quantum_flow(tracer, _state, result):
    tracer.counters["fock.quantum_flow_steps"] += len(result.leakage_trace) - 1


def _after_integrate_flow(tracer, _state, result):
    tracer.counters["flow.steps"] += len(result.times) - 1


HOOKS = {
    "fock.ladder_product": (_before_ladder_product, _after_ladder_product),
    "fock.quantum_flow": (_before_quantum_flow, _after_quantum_flow),
    "flow.integrate_flow": (None, _after_integrate_flow),
}


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []       # (class or dict, attribute or key, original)

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        if self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def adopt(self, spans, parent: int) -> None:
        """Append spans recorded elsewhere; their roots hang under `parent`."""
        base = len(self.spans)
        for name, start, end, par in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par])

    def record_error(self, layer: str, exc: BaseException) -> None:
        # an exception crossing several wrapped calls counts once, at the
        # innermost layer it left
        if getattr(exc, "_bench_counted", False):
            return
        exc._bench_counted = True
        self.counters[f"{layer}.errors"] += 1
        if type(exc).__name__ == "LeakageError":
            self.counters["fock.leakage_aborts"] += 1

    def wrap(self, func, name: str):
        layer = name.split(".", 1)[0]
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = before(tracer, args) if before else None
            idx = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                tracer.record_error(layer, exc)
                raise
            finally:
                tracer.end(idx)
            if after:
                after(tracer, state, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raises if one does not exist."""
        for mod_name in {mod_name for mod_name, _, _ in TARGETS}:
            importlib.import_module(f"hepp_expand.{mod_name}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "hepp_expand" or k.startswith("hepp_expand."))]
        for mod_name, attr, span in TARGETS:
            module = sys.modules[f"hepp_expand.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, span))
                else:
                    new = self.wrap(raw, span)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            new = self.wrap(original, span)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod.__dict__, attr, original))
                    mod.__dict__[attr] = new
                # dispatch tables such as cli._COMMANDS hold the function too
                for table in list(mod.__dict__.values()):
                    if isinstance(table, dict) and table is not mod.__dict__:
                        for key, value in list(table.items()):
                            if value is original:
                                self._patches.append((table, key, original))
                                table[key] = new

    def restore(self) -> None:
        """Put back every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def summarize(spans) -> dict:
    """Per span name: call count, total time and self time (seconds).

    Self time is a span's duration minus the durations of its direct
    children; spans of one process never overlap except by nesting.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time[i]
    return out
