"""One benchmark process: set up a workload, then solve it in a closed loop.

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1
                            --workdir DIR --result FILE [--setup-only] [--tiny]

Set-up is what every CLI invocation pays: a fresh interpreter, the
import of hepp_expand, and writing and parsing the workload's
scenarios.  The worker records the monotonic clock when set-up is
done, so the parent can time it from process start.  It then runs one solve
at a time until the time budget would be exceeded, checks every
solve's output, and writes its measurements to ``--result``.

With ``--trace 1`` solves alternate between untraced and traced; the
traced ones record spans (see tracing.py) and the untraced ones give the
base for the tracing overhead.  The first solve is a warm-up in both
modes: it is checked and reported, but left out of the medians.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

_T_START = time.perf_counter()
import hepp_expand  # noqa: E402  (timed: this import is part of set-up)
import hepp_expand.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _T_START

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

CHILD = Path(__file__).resolve().parent / "cli_child.py"
CHILD_TIMEOUT_S = 60


def _layer(span_name: str) -> str:
    if span_name == "process":
        return "interpreter"
    if span_name == "solve":
        return "bench"
    return span_name.split(".", 1)[0]


def solve_metrics(tracer) -> dict:
    """Per-layer numbers of one traced solve, from its spans and counters."""
    summary = tracing.summarize(tracer.spans)
    out = {}
    layers = {}
    for name, row in summary.items():
        layers[_layer(name)] = layers.get(_layer(name), 0.0) + row["self_s"]
        if name in ("solve", "process", "import.hepp_expand"):
            continue
        out[f"{name}_calls"] = row["calls"]
        out[f"{name}_s"] = row["total_s"]
        out[f"{name}_self_s"] = row["self_s"]
    solve_s = summary["solve"]["total_s"]
    for layer, self_s in layers.items():
        out[f"layer.{layer}_self_s"] = self_s
        out[f"layer.{layer}_self_pct"] = 100.0 * self_s / solve_s
    out["import.calls"] = summary.get("import.hepp_expand", {}).get("calls", 0)
    out["trace.unattributed_s"] = summary["solve"]["self_s"]
    out["trace.self_sum_s"] = sum(layers.values())
    out["trace.solve_s"] = solve_s
    out.update(tracer.counters)
    out["errors"] = sum(v for k, v in tracer.counters.items() if k.endswith(".errors"))
    compose = summary.get("symbols.compose_rlinear")
    if compose:
        out["symbols.compose_rlinear_mean_ms"] = 1e3 * compose["total_s"] / compose["calls"]
    qf = summary.get("fock.quantum_flow")
    if qf and tracer.counters.get("fock.quantum_flow_steps"):
        out["fock.step_ms"] = 1e3 * qf["self_s"] / tracer.counters["fock.quantum_flow_steps"]
    ladder = summary.get("fock.ladder_product")
    if ladder:
        out["fock.ladder_cache_hit_ratio"] = \
            tracer.counters.get("fock.ladder_cache_hits", 0) / ladder["calls"]
    out["cli.self_s"] = sum(row["self_s"] for name, row in summary.items()
                            if name.startswith("cli.") and name != "cli.emit")
    return out


def solve_in_process(cmds, seconds):
    """One `hepp-expand` command run through cli.main in this process."""
    failures = []
    for label, argv, expected, path in cmds:
        wl.clear_report(argv)
        code, exc = None, None
        t0 = time.perf_counter()
        try:
            code = hepp_expand.cli.main(list(argv))
        except Exception as err:  # the gate reports it as a failed solve
            exc = f"{type(err).__name__}: {err}"
        seconds.append(time.perf_counter() - t0)
        reasons = wl.check(argv, expected, code, wl.read_json(wl.report_path(argv)),
                           path, exception=exc)
        if reasons:
            failures.append({"command": label, "reasons": reasons})
    return failures


def solve_cli(cmds, seconds, tracer, workdir: Path):
    """One pass of fresh `hepp-expand` processes, one at a time."""
    failures = []
    for i, (label, argv, expected, path) in enumerate(cmds):
        wl.clear_report(argv)
        if tracer is None:
            child = [sys.executable, "-m", "hepp_expand.cli", *argv]
        else:
            spans_file = workdir / f"spans-{i}.json"
            spans_file.unlink(missing_ok=True)
            child = [sys.executable, str(CHILD), str(spans_file), *argv]
            idx = tracer.begin("process")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(child, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, stderr = None, f"timed out after {CHILD_TIMEOUT_S} s"
        seconds.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(idx)
            recorded = wl.read_json(spans_file) or {"spans": [], "counters": {}}
            tracer.adopt(recorded["spans"], idx)
            for key, value in recorded["counters"].items():
                if key == "fock.total_dim":
                    tracer.counters[key] = max(tracer.counters[key], value)
                else:
                    tracer.counters[key] += value
        exc = None
        if "Traceback" in stderr or code is None:
            exc = stderr.strip().splitlines()[-1] if stderr.strip() else "no output"
        reasons = wl.check(argv, expected, code, wl.read_json(wl.report_path(argv)),
                           path, exception=exc)
        if reasons:
            failures.append({"command": label, "reasons": reasons})
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    src = (wl.ROOT / "src").resolve()
    if src not in Path(hepp_expand.__file__).resolve().parents:
        print(f"hepp_expand was imported from {hepp_expand.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from hepp_expand.scenario import Scenario
    paths = wl.write_scenarios(args.workload, args.seed, args.workdir, tiny=args.tiny)
    for path in paths:
        scenario = Scenario.from_path(str(path))
        scenario.hamiltonian()
        scenario.observable()
    result = {"ready_at": time.perf_counter(), "import_s": IMPORT_S}
    if not args.setup_only:
        result.update(solve_loop(args, paths))
    args.result.write_text(json.dumps(result))
    return 0


def solve_loop(args, paths) -> dict:
    cmds = wl.commands(args.workload, paths, args.seed, args.workdir, tiny=args.tiny)
    in_process = args.workload != "cli-demos"
    solves, spans, failed = [], [], []
    budget_end = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(solves) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        if tracer is not None and in_process:
            tracer.install()
        try:
            root = tracer.begin("solve") if tracer else None
            command_s = []
            t0 = time.perf_counter()
            if in_process:
                failures = solve_in_process(cmds, command_s)
            else:
                failures = solve_cli(cmds, command_s, tracer, args.workdir)
            t1 = time.perf_counter()
            if tracer:
                tracer.end(root)
        finally:
            if tracer is not None:
                tracer.restore()
        row = {"index": len(solves), "seconds": t1 - t0, "traced": traced,
               "command_seconds": command_s, "failures": failures}
        if tracer is not None:
            row["layers"] = solve_metrics(tracer)
            spans.append(tracer.spans)
        solves.append(row)
        failed += [dict(f, solve=row["index"]) for f in failures]
        # closed loop: start another solve only if it fits in the budget;
        # keep going until there is one measured solve of each kind
        needed = 4 if args.trace else 2
        typical = max(r["seconds"] for r in solves[-2:])
        if len(solves) >= needed and time.perf_counter() + typical > budget_end:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process
                               else resource.RUSAGE_CHILDREN)
    return {
        "solves": solves,
        "failures": failed,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "spans": spans,
    }


if __name__ == "__main__":
    sys.exit(main())
