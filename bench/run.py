"""The repo benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--save RESULTS.jsonl]

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src/``.  One client runs one solve at a time in a fresh
worker process (see worker.py).  Set-up is timed over several fresh
interpreters and reported as their median.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it
carries the per-layer metrics from the traced solves.  The lines before
it are a human-readable table, the failed solves with their reasons,
and the provenance.  ``--save`` appends the full record (every metric,
per-solve times, failures, provenance) to a JSON-lines file that
compare.py reads.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROCESSES = 7  # plus the worker that then solves
DEADLINE_PAD_S = 110  # all workers of a run end by --seconds plus this

sys.path.insert(0, str(BENCH))
import workloads as wl  # noqa: E402


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _blas() -> dict:
    """BLAS libraries loaded by numpy and scipy, and their thread counts."""
    import ctypes
    import numpy as np
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"numpy_blas": f"{blas.get('name')} {blas.get('version')}", "libraries": {}}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                for what, restype in (("get_num_threads", ctypes.c_int),
                                      ("get_config", ctypes.c_char_p)):
                    func = getattr(lib, f"{prefix}_{what}{suffix}", None)
                    if func is not None and what not in entry:
                        func.restype, func.argtypes = restype, []
                        value = func()
                        entry[what] = value.decode() if isinstance(value, bytes) else value
        info["libraries"][Path(path).name] = entry
    return info


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        # nothing caps the BLAS threads (threadpoolctl is not installed and
        # no --threads is passed): the counts above are the ones in effect
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "threads_applied": False,
        "seed": seed,
        "git_commit": commit,
    }


def run_worker(args, workdir: Path, index: int, setup_only: bool, deadline: float):
    """Run a worker to its end; return (seconds from start to ready, result)."""
    result_file = workdir / f"worker-{index}.json"
    log_file = workdir / f"worker-{index}.log"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--result", str(result_file)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--tiny"] if args.tiny else []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(log_file, "w") as log:
        # perf_counter reads CLOCK_MONOTONIC, which the worker shares
        t0 = time.perf_counter()
        # its own session, so that a kill also reaches the CLI processes
        # a cli-demos worker has started
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, cwd=ROOT, env=env,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0:
        tail = log_file.read_text().strip().splitlines()[-5:]
        raise RuntimeError(f"worker exited with {proc.returncode}: " + " | ".join(tail))
    result = json.loads(result_file.read_text())
    return result["ready_at"] - t0, result


def measure(args) -> dict:
    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + args.seconds + DEADLINE_PAD_S
    try:
        setups, imports = [], []
        for i in range(SETUP_PROCESSES):
            ready_s, res = run_worker(args, workdir, i, True, deadline)
            setups.append(ready_s)
            imports.append(res["import_s"])
        ready_s, res = run_worker(args, workdir, SETUP_PROCESSES, False, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(ready_s)
    imports.append(res["import_s"])
    solves = res["solves"]
    measured = [s for s in solves[1:] if not s["traced"]]
    traced = [s for s in solves[1:] if s["traced"]]
    attempted = len(solves)
    failed = sum(1 for s in solves if s["failures"])
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median([s["seconds"] for s in measured]),
        "peak_rss_mb": res["peak_rss_mb"],
        "error_rate": failed / attempted,
        "success_rate": 1.0 - failed / attempted,
    }
    detail = {
        "setup_samples_s": setups,
        "solve_samples_s": [s["seconds"] for s in measured],
        "warmup_s": solves[0]["seconds"],
        "import_samples_s": imports,
    }
    if traced:
        layer_keys = sorted({k for s in traced for k in s["layers"]})
        layers = {k: statistics.median([s["layers"].get(k, 0.0) for s in traced])
                  for k in layer_keys}
        layers["import.hepp_expand_s"] = statistics.median(imports)
        layers["trace_overhead"] = \
            statistics.median([s["seconds"] for s in traced]) / metrics["solve_s"]
        metrics.update(layers)
        detail["traced_solve_samples_s"] = [s["seconds"] for s in traced]
    return {"metrics": metrics, "detail": detail, "attempted": attempted,
            "failed": failed, "failures": res["failures"], "spans": res["spans"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None,
                        help="append the full record to this JSON-lines file")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny scenarios, for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec = load_spec()
    missing = [p for p in ("src/hepp_expand/cli.py", "demos/scenarios") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a hepp-expand checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        run = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = run["metrics"]
    detail = run["detail"]
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
          f"{args.seconds:g} s  trace {args.trace}")
    print(f"  setup_s      {metrics['setup_s']:.4f} s   median of {len(detail['setup_samples_s'])} "
          f"fresh interpreters")
    print(f"  solve_s      {metrics['solve_s']:.4f} s   median of "
          f"{len(detail['solve_samples_s'])} untraced solves; warm-up {detail['warmup_s']:.4f} s")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"  error_rate   {metrics['error_rate']:.4f}   ({run['failed']} of "
          f"{run['attempted']} solves failed)")
    if args.trace:
        for key in sorted(k for k in metrics if k not in ("setup_s", "solve_s", "peak_rss_mb",
                                                          "error_rate", "success_rate")):
            print(f"  {key:44s} {metrics[key]:.6g}")
    for failure in run["failures"]:
        print(f"  FAILED solve {failure['solve']} {failure['command']}: "
              + "; ".join(failure["reasons"]))
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))

    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    if args.save:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "result": result, "metrics": metrics,
                  "detail": detail, "failures": run["failures"], "provenance": prov}
        if args.trace:
            record["spans"] = run["spans"]
        with open(args.save, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
