"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q bench/tests

They run each workload at a tiny size through the real command, check
that the tracing wrappers put every function back, and check that the
gate counts forged bad outcomes as failures.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def run_bench(workload, trace=0, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_prints_every_metric(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_tiny_traced_run_accounts_for_the_solve():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench("oracle-d2-n24", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    table = dict(line.split()[:2] for line in proc.stdout.splitlines()
                 if line.startswith("  trace."))
    assert float(table["trace.self_sum_s"]) == pytest.approx(float(table["trace.solve_s"]))
    assert result["metrics"]["fock.quantum_flow_calls"]["value"] == 1


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_bench("expand-d2-deg6", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _snapshot():
    import hepp_expand.cli  # noqa: F401  (the CLI module is patched too)
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "hepp_expand" or name.startswith("hepp_expand."):
            for key, value in vars(mod).items():
                snap[(name, key)] = value
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        snap[(name, key, attr)] = raw
                if isinstance(value, dict):
                    for k, v in value.items():
                        snap[(name, key, "[]", k)] = v
    return snap


def test_wrappers_restore_every_patched_function():
    import hepp_expand.cli as cli
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _snapshot()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("hepp_expand.cli", "main") in changed
        assert ("hepp_expand.cli", "_COMMANDS", "[]", "oracle") in changed
        assert ("hepp_expand.symbols", "PolySymbol", "compose_rlinear") in changed
        assert ("hepp_expand.scenario", "Scenario", "from_path") in changed
        assert ("hepp_expand.fock", "quantum_flow") in changed
        assert ("hepp_expand", "quantum_flow") in changed
        path = ROOT / "demos" / "scenarios" / "oracle-im-z2.json"
        assert cli._COMMANDS["flow"](cli.Scenario.from_path(str(path)),
                                     cli._build_parser().parse_args(["flow", str(path)]))[0] == 0
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    names = {s[0] for s in tracer.spans}
    assert {"cli.flow", "scenario.parse", "flow.integrate_flow"} <= names
    assert tracer.counters["flow.steps"] == 100


def test_span_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    summary = tracing.summarize(spans)
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert sum(row["self_s"] for row in summary.values()) == 10.0


@pytest.fixture
def oracle_cmd(tmp_path):
    path = wl.write_scenarios("oracle-d2-n24", 7, tmp_path, tiny=True)[0]
    return wl.commands("oracle-d2-n24", [path], 7, tmp_path)[0]


def _good_oracle_report():
    return {"pass": True, "max_matrix_element_error": {"dyson": 1e-13, "exponential": 2e-13}}


def test_gate_accepts_a_good_report(oracle_cmd):
    _label, argv, expected, path = oracle_cmd
    assert wl.check(argv, expected, 0, _good_oracle_report(), path) == []


def test_gate_rejects_forged_reports_and_exit_codes(oracle_cmd):
    _label, argv, expected, path = oracle_cmd
    forged = dict(_good_oracle_report(), **{"pass": False})
    assert wl.check(argv, expected, 0, forged, path)
    assert wl.check(argv, expected, 1, _good_oracle_report(), path)
    assert wl.check(argv, expected, 3, _good_oracle_report(), path)
    too_far = {"pass": True, "max_matrix_element_error": {"dyson": 1e-3}}
    assert wl.check(argv, expected, 0, too_far, path)
    assert wl.check(argv, expected, 0, None, path)
    assert wl.check(argv, expected, None, None, path, exception="ValueError: boom")


def test_gate_checks_cross_engine_distance(tmp_path):
    path = wl.write_scenarios("expand-d2-deg6", 7, tmp_path, tiny=True)[0]
    _label, argv, expected, path = wl.commands("expand-d2-deg6", [path], 7, tmp_path)[0]
    good = {"pass": True, "per_order_distance": [{"k": 0, "distance": 1e-12}]}
    assert wl.check(argv, expected, 0, good, path) == []
    bad = {"pass": True, "per_order_distance": [{"k": 1, "distance": 1e-3}]}
    assert wl.check(argv, expected, 0, bad, path)


def test_gate_expects_the_documented_leakage_abort(tmp_path):
    cmds = wl.commands("cli-demos", wl.write_scenarios("cli-demos", 7, tmp_path), 7, tmp_path)
    by_label = {label: (argv, expected, path) for label, argv, expected, path in cmds}
    argv, expected, path = by_label["oracle:example-im-z2"]
    assert expected == wl.EXIT_LEAKAGE
    abort = {"error": "top-sector leakage 1e-3 exceeded 1e-6"}
    assert wl.check(argv, expected, 3, abort, path) == []
    assert wl.check(argv, expected, 0, _good_oracle_report(), path)


def test_worker_counts_a_forged_failing_report(oracle_cmd, monkeypatch):
    import hepp_expand.cli as cli
    import worker
    label, argv, expected, path = oracle_cmd
    out = wl.report_path(argv)

    def forged_main(args):
        Path(out).write_text(json.dumps(dict(_good_oracle_report(), **{"pass": False})))
        return 0

    monkeypatch.setattr(cli, "main", forged_main)
    failures = worker.solve_in_process([oracle_cmd], [])
    assert failures and failures[0]["command"] == label
    monkeypatch.setattr(cli, "main", lambda args: 2)
    assert worker.solve_in_process([oracle_cmd], [])[0]["reasons"][0].startswith("exit code 2")


def test_compare_verdicts():
    assert compare.verdict([1.0] * 10, [1.5] * 10, 0.1, True) == "worse"
    assert compare.verdict([1.0, 1.01] * 5, [0.5, 0.51] * 5, 0.1, True) == "better"
    assert compare.verdict([1.0, 1.02] * 5, [1.01, 1.0] * 5, 0.1, True) == "unchanged"
    assert compare.verdict([1.0, 2.0, 1.0, 2.0], [1.05, 1.9, 1.0, 2.1], 0.1, True) == "unresolved"
    assert compare.verdict([1.0] * 4, [0.5] * 4, 0.01, False) == "worse"
