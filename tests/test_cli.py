import json
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

from hepp_expand import cli, fock
from hepp_expand.cli import main
from hepp_expand.errors import ScenarioError, SymplecticityError
from hepp_expand.scenario import Scenario
from hepp_expand.symbols import PolySymbol

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def base_scenario(**overrides):
    data = {
        "schema_version": 1,
        "dim": 1,
        "epsilon": 0.5,
        "t_end": 0.5,
        "dt": 1e-3,
        "alpha": {"kind": "zero"},
        "beta": {"kind": "constant", "data": {"re": [[1.0]], "im": [[0.0]]}},
        "observable": {"preset": "n-squared"},
        "fock": {"n_max": 20},
        "quad": {"nodes": 10},
        "seed": 77,
    }
    data.update(overrides)
    return data


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestFlowCommand:
    def test_worked_example_scenario(self, capsys):
        path = os.path.join(REPO, "demos", "scenarios", "example-im-z2.json")
        code, report = run_main(["flow", path], capsys)
        assert code == 0
        last = report["phi_samples"][-1]
        assert last["t"] == 1.0
        assert abs(last["linear"]["re"][0][0] - math.cosh(1.0)) < 1e-8
        assert abs(last["antilinear"]["re"][0][0] - math.sinh(1.0)) < 1e-8
        assert report["schema_version"] == 1

    def test_zero_hamiltonian_identity_path(self, tmp_path, capsys):
        data = base_scenario(beta={"kind": "zero"}, t_end=1.0)
        code, report = run_main(["flow", write_scenario(tmp_path, data)], capsys)
        assert code == 0
        for sample in report["phi_samples"]:
            assert sample["linear"]["re"][0][0] == 1.0
            assert sample["antilinear"]["re"][0][0] == 0.0

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 1,')
        assert main(["flow", str(path)]) == 2

    def test_missing_file_exit_two(self):
        assert main(["flow", "/nonexistent/scenario.json"]) == 2

    def test_inconsistent_dimensions_exit_two(self, tmp_path):
        data = base_scenario(dim=2)  # beta stays 1x1
        assert main(["flow", write_scenario(tmp_path, data)]) == 2

    def test_sampled_beta_kind(self, tmp_path, capsys):
        times = [0.0, 0.25, 0.5]
        values = [{"re": [[1.0]], "im": [[0.0]]},
                  {"re": [[1.2]], "im": [[0.1]]},
                  {"re": [[0.9]], "im": [[0.0]]}]
        data = base_scenario(beta={"kind": "sampled", "times": times, "values": values})
        code, report = run_main(["flow", write_scenario(tmp_path, data)], capsys)
        assert code == 0
        assert report["pass"] is True


class TestExpandCommand:
    def test_both_engines_agree(self, tmp_path, capsys):
        data = base_scenario()
        code, report = run_main(
            ["expand", write_scenario(tmp_path, data), "--method", "both"], capsys)
        assert code == 0
        assert report["pass"] is True
        assert all(row["distance"] <= 1e-8 for row in report["per_order_distance"])
        assert [row["k"] for row in report["dyson"]["terms"]] == [0, 1, 2]

    def test_constant_observable_single_order(self, tmp_path, capsys):
        const = {"dim": 1, "terms": [{"p": 0, "q": 0, "entries": [[[], [], 2.0, 0.0]]}]}
        data = base_scenario(observable=const)
        code, report = run_main(
            ["expand", write_scenario(tmp_path, data), "--method", "exp"], capsys)
        assert code == 0
        assert [row["k"] for row in report["exponential"]["terms"]] == [0]

    def test_odd_degree_orders(self, tmp_path, capsys):
        cubic = {"dim": 1, "terms": [
            {"p": 2, "q": 1, "entries": [[[1], [1, 1], 1.0, 0.0]]}]}
        data = base_scenario(observable=cubic)
        code, report = run_main(
            ["expand", write_scenario(tmp_path, data), "--method", "both"], capsys)
        assert code == 0
        ks = [row["k"] for row in report["exponential"]["terms"]]
        assert ks == [0, 1]
        # the order-1 term has total degree 1
        sym = report["exponential"]["terms"][1]["symbol"]
        assert all(t["p"] + t["q"] <= 1 for t in sym["terms"])

    def test_quartic_cross_preset_d2(self, tmp_path, capsys):
        data = base_scenario(
            dim=2, t_end=0.3,
            beta={"kind": "constant",
                  "data": {"re": [[0.4, 0.1], [0.1, -0.2]], "im": [[0.0, 0.3], [0.3, 0.1]]}},
            observable={"preset": "quartic-cross"},
            quad={"nodes": 8})
        code, report = run_main(
            ["expand", write_scenario(tmp_path, data), "--method", "both"], capsys)
        assert code == 0
        assert report["pass"] is True


class TestOracleCommand:
    def test_time_zero_error_vanishes(self, tmp_path, capsys):
        data = base_scenario(t_end=0.0, fock={"n_max": 16})
        code, report = run_main(["oracle", write_scenario(tmp_path, data)], capsys)
        assert code == 0
        assert max(report["max_matrix_element_error"].values()) < 1e-12
        # the flow stops at t = 0: no step, no leakage
        assert report["leakage"] == 0.0
        assert report["integrator"]["steps"] == 0

    def test_time_zero_with_alpha_is_exact(self, tmp_path, capsys):
        # oracle-d2-complex cut to t_end = 0: u_alpha is the identity at the
        # start of its own path, Gamma(I) leaves the columns as they are,
        # and both engines give the observable itself
        with open(os.path.join(REPO, "demos", "scenarios", "oracle-d2-complex.json")) as fh:
            data = dict(json.load(fh), t_end=0.0)
        code, report = run_main(["oracle", write_scenario(tmp_path, data)], capsys)
        assert code == 0 and report["pass"] is True
        assert report["max_matrix_element_error"] == {"dyson": 0.0, "exponential": 0.0}
        assert report["integrator"]["steps"] == 0

    def test_short_time_scenario_passes(self, capsys):
        path = os.path.join(REPO, "demos", "scenarios", "oracle-im-z2.json")
        code, report = run_main(["oracle", path], capsys)
        assert code == 0
        assert report["pass"] is True
        assert max(report["max_matrix_element_error"].values()) <= 1e-5
        assert report["trusted_block"] == 16
        assert report["total_dim"] == 25
        assert report["evolved_columns"] == 17

    def test_tolerance_fail_exit_one(self, tmp_path, capsys):
        data = base_scenario(t_end=0.05, dt=5e-4, fock={"n_max": 24},
                             tolerances={"oracle": 1e-12, "leakage": 1e-2})
        code, report = run_main(["oracle", write_scenario(tmp_path, data)], capsys)
        assert code == 1
        assert report["pass"] is False

    def test_leakage_abort_exit_three(self, tmp_path, capsys):
        data = base_scenario(t_end=0.3, fock={"n_max": 8},
                             tolerances={"leakage": 1e-6})
        code = main(["oracle", write_scenario(tmp_path, data)])
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert code == 3
        assert "leakage" in report["error"]
        assert report["diagnostics"]["n_max"] == 8
        # after the report, one stderr line names the abort
        assert err == f"hepp-expand: leakage abort: {report['error']}\n"

    def test_drifting_u_alpha_is_a_tolerance_failure(self, tmp_path, capsys):
        # alpha of HS norm 8 on dt = 0.01: by t_end u_alpha is 6.4e-8 off the
        # unitary group, under the flow's 1e-6 terminal gate but above the
        # 1e-10 that Gamma(u_alpha) needs; the classical flow's own defect
        # is the same 6.4e-8, above the scenario's flow tolerance
        alpha = {"kind": "constant", "data": {
            "re": [[1.298461272382126, 2.62479042405227], [2.62479042405227, 1.0833412874570005]],
            "im": [[0.0, -4.866277860882063], [4.866277860882063, 0.0]]}}
        data = base_scenario(dim=2, t_end=0.5, dt=0.01, alpha=alpha,
                             beta={"kind": "constant", "data": {"re": [[0.05, 0.0], [0.0, 0.05]]}},
                             observable={"preset": "quartic-cross"}, fock={"n_max": 12},
                             tolerances={"oracle": 1e-5, "leakage": 1e-3})
        path = write_scenario(tmp_path, data)
        code, report = run_main(["flow", path], capsys)
        assert code == 1 and report["pass"] is False
        assert main(["oracle", path]) == 1
        out, err = capsys.readouterr()
        err = err.strip()
        assert not out.strip() and len(err.splitlines()) == 1
        assert err.startswith("hepp-expand: tolerance failure: u_alpha(t=0.5)")
        assert "reduce dt" in err

    @pytest.mark.parametrize("n_max", [-3, 2.5, 1], ids=["negative", "non-integer",
                                                         "below-degree"])
    def test_bad_n_max_exit_two(self, tmp_path, capsys, n_max):
        with open(os.path.join(REPO, "demos", "scenarios", "oracle-im-z2.json")) as fh:
            data = json.load(fh)
        data["fock"]["n_max"] = n_max
        assert main(["oracle", write_scenario(tmp_path, data)]) == 2
        err = capsys.readouterr().err.strip()
        assert "n_max" in err and len(err.splitlines()) == 1


    @pytest.mark.parametrize("n_max, terms", [
        (0, [{"p": 0, "q": 0, "entries": [[[], [], 1.0, 0.0]]}]),
        (1, [{"p": 1, "q": 0, "entries": [[[], [1], 1.0, 0.0]]}]),
    ], ids=["constant-n0", "linear-n1"])
    def test_no_untrusted_top_sector_exit_two(self, tmp_path, capsys, n_max, terms):
        # the leakage gate reads sectors n_max - 1 and n_max, which must
        # hold no trusted column
        data = base_scenario(t_end=0.01, fock={"n_max": n_max},
                             observable={"dim": 1, "terms": terms})
        assert main(["oracle", write_scenario(tmp_path, data)]) == 2
        err = capsys.readouterr().err.strip()
        assert "n_max" in err and len(err.splitlines()) == 1

    def test_report_gives_integrator(self, capsys):
        path = os.path.join(REPO, "demos", "scenarios", "oracle-im-z2.json")
        code, report = run_main(["oracle", path], capsys)
        assert code == 0
        steps = report["integrator"]
        assert set(steps) == {"steps", "rejected", "refined", "time_error"}
        assert steps["steps"] >= 1
        assert 0.0 <= steps["time_error"] <= report["tolerance"] / 100


@pytest.mark.parametrize("nodes", [0, -2, 2.5, 257],
                         ids=["zero", "negative", "non-integer", "above-cap"])
def test_bad_quad_nodes_exit_two(tmp_path, capsys, nodes):
    with open(os.path.join(REPO, "demos", "scenarios", "example-im-z2.json")) as fh:
        data = json.load(fh)
    data["quad"] = {"nodes": nodes}
    assert main(["expand", write_scenario(tmp_path, data)]) == 2
    err = capsys.readouterr().err.strip()
    assert "quad.nodes" in err and len(err.splitlines()) == 1


MALFORMED = {
    "quad-not-object": {"quad": 3},
    "fock-not-object": {"fock": 3},
    "alpha-not-object": {"alpha": [1]},
    "seed-string": {"seed": "x"},
    "tolerances-list": {"tolerances": [1]},
    "tolerance-string": {"tolerances": {"flow": "x"}},
    "epsilon-string": {"epsilon": "x"},
    "dt-string": {"dt": "abc"},
    "dt-tiny": {"dt": 1e-300},
    # outside [1e-100, 100]: a weight overflows, and at 1e-300 the NaN
    # ratios once dropped out of the estimates' running maximum
    "epsilon-huge": {"epsilon": 1e300},
    "epsilon-tiny": {"epsilon": 1e-300},
    "alpha-non-hermitian": {"alpha": {"kind": "constant",
                                      "data": {"re": [[1.0]], "im": [[0.5]]}}},
    "beta-nan": {"beta": {"kind": "constant",
                          "data": {"re": [[float("nan")]], "im": [[0.0]]}}},
    "beta-times-nan": {"beta": {"kind": "sampled", "times": [0.0, float("nan")],
                                "values": [{"re": [[1.0]]}, {"re": [[1.0]]}]}},
    "schema-version-2": {"schema_version": 2},
    "unknown-key": {"comment": "x"},
}

# parsed up front, so refused by commands that never read it too
MALFORMED_OBSERVABLE = {
    "observable-not-object": {"observable": 3},
    "observable-index-out-of-range": {"observable": {"dim": 1, "terms": [
        {"p": 1, "q": 1, "entries": [[[1], [5], 1.0, 0.0]]}]}},
    "observable-index-zero": {"observable": {"dim": 1, "terms": [
        {"p": 1, "q": 1, "entries": [[[0], [1], 1.0, 0.0]]}]}},
    "observable-short-p-side": {"observable": {"dim": 1, "terms": [
        {"p": 2, "q": 1, "entries": [[[1], [1], 1.0, 0.0]]}]}},
    "observable-long-q-side": {"observable": {"dim": 1, "terms": [
        {"p": 1, "q": 1, "entries": [[[1, 1], [1], 1.0, 0.0]]}]}},
    "observable-coefficient-string": {"observable": {"dim": 1, "terms": [
        {"p": 1, "q": 1, "entries": [[[1], [1], "x", 0.0]]}]}},
    "observable-nan": {"observable": {"dim": 1, "terms": [
        {"p": 1, "q": 1, "entries": [[[1], [1], float("nan"), 0.0]]}]}},
}


@pytest.mark.parametrize(
    "command, override",
    [("flow", o) for o in MALFORMED.values()]
    + [("expand", o) for o in MALFORMED_OBSERVABLE.values()]
    + [("flow", o) for o in MALFORMED_OBSERVABLE.values()],
    ids=list(MALFORMED) + list(MALFORMED_OBSERVABLE)
    + [f"flow-{name}" for name in MALFORMED_OBSERVABLE])
def test_malformed_scenario_exit_two(tmp_path, capsys, command, override):
    with open(os.path.join(REPO, "demos", "scenarios", "example-im-z2.json")) as fh:
        data = json.load(fh)
    data.update(override)
    assert main([command, write_scenario(tmp_path, data)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("hepp-expand: scenario error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("entry", [[[1, 2], [1], 1.0, 0.0], [[1], [], 1.0, 0.0],
                                   [[1], [3], 1.0, 0.0], [[1], [1.0], 1.0, 0.0]],
                         ids=["q-side-length", "p-side-length", "out-of-range", "non-integer"])
def test_bad_observable_entry_is_named(entry):
    # a wrong index count would otherwise be ranked in another sector
    spec = {"dim": 2, "terms": [{"p": 1, "q": 1, "entries": [[[1], [2], 1.0, 0.0], entry]}]}
    with pytest.raises(ScenarioError, match=r"term \(p=1, q=1\), entry 1:"):
        PolySymbol.from_json(spec)


def test_grid_step_cap():
    # the grid is never built: the cap is checked on t_end / dt
    assert Scenario.from_dict(base_scenario(t_end=1e6, dt=1.0)).hamiltonian().dt == 1.0
    for t_end, dt in ((1e6 + 1, 1.0), (1e300, 1e-300)):
        with pytest.raises(ScenarioError, match="t_end / dt"):
            Scenario.from_dict(base_scenario(t_end=t_end, dt=dt))


def test_flow_stack_cap():
    # the classical flow's (t_end / dt) (2 dim)^2 stack, capped at the
    # 4 x 10^6 of d=1 at the step cap, for a huge dim alone too
    zero = {"kind": "zero"}
    assert Scenario.from_dict(base_scenario(dim=2, t_end=2.5e5, dt=1.0, alpha=zero, beta=zero,
                                            observable=None)).dim == 2
    for over in ({"dim": 2, "t_end": 2.5e5 + 1}, {"dim": 10**6, "t_end": 0.1},
                 {"dim": 3, "t_end": 1e6}):
        data = base_scenario(dt=1.0, alpha=zero, beta=zero, observable=None, **over)
        with pytest.raises(ScenarioError, match="generator stack.*above the cap of 4000000"):
            Scenario.from_dict(data)


def limit_probe(tmp_path, capsys, args, data):
    """The exit code and the one stderr line of a command on `data`."""
    code = main([args[0], write_scenario(tmp_path, data)] + args[1:])
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) <= 1
    return code, err


def test_fock_entries_cap(tmp_path, capsys):
    # the oracle holds C(dim + n_max, n_max) states by its evolved columns
    # densely, estimates all the states by all of them
    for command in ("oracle", "estimates"):
        code, err = limit_probe(tmp_path, capsys, [command], base_scenario(fock={"n_max": 10**5}))
        assert code == 2 and "dense Fock block" in err and "above the cap of 4194304" in err
    # at the cap: estimates at d=1, N=2047 (2048^2 entries), and the oracle
    # at d=6, N=12 (18,564 states by 210 columns), are not refused
    Scenario.from_dict(base_scenario(fock={"n_max": 2047})).check_fock()
    with pytest.raises(ScenarioError, match="2049 states by all of them"):
        Scenario.from_dict(base_scenario(fock={"n_max": 2048})).check_fock()
    Scenario.from_dict(base_scenario(dim=6, beta=None, observable=None,
                                     fock={"n_max": 12})).check_fock(210)


def test_dyson_batch_cap(tmp_path, capsys):
    # a degree-12 monomial at 12 nodes makes 22,622 kernel batches; only
    # the commands that run Dyson refuse it
    with open(os.path.join(REPO, "demos", "scenarios", "oracle-im-z2.json")) as fh:
        data = json.load(fh)
    data["observable"] = {"dim": 1, "terms": [
        {"p": 6, "q": 6, "entries": [[[1] * 6, [1] * 6, 1.0, 0.0]]}]}
    for args in (["expand", "--method", "dyson"], ["expand"], ["oracle"]):
        code, err = limit_probe(tmp_path, capsys, args, data)
        assert code == 2 and "Dyson walk" in err and "2.26e+04, above the cap of 1024" in err
    assert limit_probe(tmp_path, capsys, ["expand", "--method", "exp"], data)[0] == 0
    data["quad"] = {"nodes": 5}
    Scenario.from_dict(data).check_dyson()


def test_non_hermitian_alpha_refused_when_read():
    alpha = {"kind": "constant", "data": {"re": [[1.0]], "im": [[0.5]]}}
    with pytest.raises(ScenarioError, match="alpha: not Hermitian"):
        Scenario.from_dict(base_scenario(alpha=alpha))


def test_missing_observable_fails_only_its_readers(tmp_path, capsys):
    data = base_scenario(t_end=0.05)
    del data["observable"]
    path = write_scenario(tmp_path, data)
    assert main(["flow", path]) == 0
    capsys.readouterr()
    assert main(["expand", path]) == 2
    assert "no observable" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code, prefix", [
    (RuntimeError("boom\nsecond line"), 4, "hepp-expand: internal error: RuntimeError: boom"),
    (SymplecticityError("drift"), 1, "hepp-expand: tolerance failure: drift"),
], ids=["internal", "symplecticity"])
def test_unexpected_exception_exit_codes(tmp_path, capsys, monkeypatch, exc, code, prefix):
    # a crash is never reported as a tolerance failure
    def broken(scenario, args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "flow", broken)
    assert main(["flow", write_scenario(tmp_path, base_scenario())]) == code
    err = capsys.readouterr().err.strip()
    assert err.startswith(prefix) and len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("coefficient, value", [("beta", 400.0), ("beta", 4000.0),
                                                ("alpha", 1e200)],
                         ids=["products-overflow", "flow-overflows", "alpha-overflows"])
@pytest.mark.parametrize("command", ["flow", "expand", "oracle", "estimates"])
def test_overflowed_flow_is_a_tolerance_failure(tmp_path, capsys, command, coefficient, value):
    # at beta 400, sinh(400 t) overflows the symplecticity products before
    # t = 1; at 4000 the flow itself overflows, and at alpha 1e200 its first
    # step does.  Either way the terminal gate reads an infinite defect, not
    # a failed SVD, and prints no warning; `oracle` runs it before the
    # quantum flow integrates its own u_alpha.
    data = base_scenario(**{coefficient: {"kind": "constant", "data": {"re": [[value]]}}},
                         t_end=1.0)
    assert main([command, write_scenario(tmp_path, data)]) == 1
    out, err = capsys.readouterr()
    assert not out.strip()
    assert err.strip() == ("hepp-expand: tolerance failure: terminal symplecticity defect inf "
                           "exceeds 1.0e-06; reduce dt or check the Hamiltonian samplers")


@pytest.mark.parametrize("command, quantity", [("flow", "max_symplectic_defect"),
                                               ("expand", "max_distance"),
                                               ("oracle", "max_matrix_element_error")])
def test_failed_report_names_its_bound_on_stderr(tmp_path, capsys, command, quantity):
    # a tolerance failure read off the report writes the report, then one
    # stderr line with the quantity that broke its bound: flow on the
    # u_alpha-drift scenario (defect 6.4e-8 against 1e-8), expand and
    # oracle with their tolerance at 1e-30
    if command == "flow":
        alpha = {"kind": "constant", "data": {
            "re": [[1.298461272382126, 2.62479042405227], [2.62479042405227, 1.0833412874570005]],
            "im": [[0.0, -4.866277860882063], [4.866277860882063, 0.0]]}}
        data = base_scenario(dim=2, t_end=0.5, dt=0.01, alpha=alpha,
                             beta={"kind": "constant", "data": {"re": [[0.05, 0.0], [0.0, 0.05]]}},
                             observable={"preset": "quartic-cross"})
    else:
        key = {"expand": "cross_engine", "oracle": "oracle"}[command]
        data = base_scenario(t_end=0.05, dt=5e-4, fock={"n_max": 24},
                             tolerances={key: 1e-30, "leakage": 1e-2})
    assert main([command, write_scenario(tmp_path, data)]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["pass"] is False
    value = report[quantity]
    value = max(value.values()) if command == "oracle" else value
    assert value > report["tolerance"]
    assert err.splitlines() == [f"hepp-expand: tolerance failure: {command}: {quantity} "
                                f"{value:.3e} above {report['tolerance']:.1e}"]


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--seed", "-1"], ["--threads", "0"],
                                   ["--threads", "-2"]],
                         ids=["zero-samples", "negative-seed", "zero-threads", "negative-threads"])
def test_bad_flags_exit_two(tmp_path, capsys, flags):
    path = write_scenario(tmp_path, base_scenario(t_end=0.01))
    assert main(["estimates", path] + flags) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("hepp-expand: input error:") and len(err.splitlines()) == 1


def test_unwritable_out_exit_two(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario(t_end=0.01))
    assert main(["flow", path, "--out", str(tmp_path / "missing" / "report.json")]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("hepp-expand: cannot write report:") and len(err.splitlines()) == 1


def test_threads_applied_false_without_threadpoolctl(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises ImportError
    path = write_scenario(tmp_path, base_scenario(t_end=0.01))
    code, report = run_main(["flow", path, "--threads", "1"], capsys)
    assert code == 0
    assert report["threads"] == 1 and report["threads_applied"] is False


def test_threads_applied_true_with_threadpoolctl(tmp_path, capsys, monkeypatch):
    calls = []
    fake = types.ModuleType("threadpoolctl")
    fake.threadpool_limits = lambda limits: calls.append(limits)
    monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
    path = write_scenario(tmp_path, base_scenario(t_end=0.01))
    code, report = run_main(["flow", path, "--threads", "2"], capsys)
    assert code == 0
    assert report["threads"] == 2 and report["threads_applied"] is True
    assert calls == [2]
    code, report = run_main(["flow", path], capsys)
    assert report["threads"] is None and report["threads_applied"] is False


def test_report_gives_effective_dt(tmp_path, capsys):
    # 0.0105 / 1e-3 rounds to 10 steps of 0.00105
    data = base_scenario(t_end=0.0105, dt=1e-3)
    code, report = run_main(["flow", write_scenario(tmp_path, data)], capsys)
    assert code == 0
    assert report["dt"] == pytest.approx(0.00105, rel=1e-12)


def test_t_end_below_dt_is_one_short_step(tmp_path, capsys):
    # 0 < t_end < dt: the grid is the one step [0, t_end], not [0, dt]
    with open(os.path.join(REPO, "demos", "scenarios", "oracle-im-z2.json")) as fh:
        data = json.load(fh)
    data.update(t_end=0.0004, dt=1e-3)
    path = write_scenario(tmp_path, data)
    for command in ("flow", "expand", "oracle", "estimates"):
        code, report = run_main([command, path, "--samples", "10"], capsys)
        assert code == 0, command
        assert report["t_end"] == 0.0004 and report["dt"] == pytest.approx(0.0004, rel=1e-12)
        if command == "flow":
            assert report["phi_samples"][-1]["t"] == pytest.approx(0.0004, rel=1e-12)


class TestEstimatesCommand:
    @pytest.mark.parametrize("n_max", [0, 1])
    def test_cutoff_below_generator_degree_exit_two(self, tmp_path, capsys, n_max):
        # the generator and commutator bounds quantize the degree-2 Q_beta
        data = base_scenario(t_end=0.01, fock={"n_max": n_max})
        assert main(["estimates", write_scenario(tmp_path, data), "--samples", "5"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("hepp-expand: scenario error:") and "n_max" in err
        assert len(err.splitlines()) == 1

    def test_rows_pass(self, tmp_path, capsys):
        data = base_scenario(t_end=0.3, fock={"n_max": 14})
        code, report = run_main(
            ["estimates", write_scenario(tmp_path, data), "--samples", "40"], capsys)
        assert code == 0
        names = {row["name"] for row in report["rows"]}
        assert {"generator_bound", "commutator_bound_k1", "commutator_bound_k2",
                "compose_estimate", "second_order_bound_m2", "second_order_bound",
                "exp_assembly_bound", "growth_bound_k1", "growth_bound_k2"} <= names
        assert report["pass"] is True

    def test_zero_beta_vacuous(self, tmp_path, capsys):
        data = base_scenario(beta={"kind": "zero"}, t_end=0.3, fock={"n_max": 10})
        code, report = run_main(
            ["estimates", write_scenario(tmp_path, data), "--samples", "10"], capsys)
        assert code == 0
        rows = {row["name"]: row for row in report["rows"]}
        assert rows["generator_bound"]["vacuous"] is True
        assert rows["growth_bound"]["vacuous"] is True

    def test_row_contract(self, tmp_path, capsys, monkeypatch):
        # a ratio of 1 + 5e-13 fails the Fock rows' bound 1 but would pass
        # the symbol rows' 1 + 1e-12
        ratio = 1.0 + 5e-13
        monkeypatch.setattr(cli, "check_estimates", lambda *a, **k: {
            "vacuous": False, "max_ratio_generator": ratio,
            "max_ratio_commutator": {1: ratio, 2: ratio}})
        monkeypatch.setattr(cli, "check_growth_bound",
                            lambda *a, **k: {"max_ratio": {1: ratio, 2: ratio}})
        data = base_scenario(t_end=0.3, fock={"n_max": 12})
        code, report = run_main(
            ["estimates", write_scenario(tmp_path, data), "--samples", "7"], capsys)
        assert code == 1 and report["pass"] is False
        failed = {row["name"] for row in report["rows"] if not row["pass"]}
        assert failed == {"generator_bound", "commutator_bound_k1", "commutator_bound_k2",
                          "growth_bound_k1", "growth_bound_k2"}
        monkeypatch.undo()
        data = base_scenario(beta={"kind": "zero"}, t_end=0.3, fock={"n_max": 10})
        code, zero_beta = run_main(
            ["estimates", write_scenario(tmp_path, data), "--samples", "7"], capsys)
        assert code == 0
        for row in report["rows"] + zero_beta["rows"]:
            assert set(row) == {"name", "samples", "max_ratio", "vacuous", "pass"}
            assert row["samples"] == (0 if row["name"] == "growth_bound" else 7)

    def test_fock_rows_do_not_depend_on_epsilon(self, tmp_path, capsys):
        # the Fock rows weigh by N/eps + 1 = n + 1 (N = eps n); at eps = 10
        # the old weight n/eps + 1 failed the generator row at 3.34
        with open(os.path.join(REPO, "demos", "scenarios", "oracle-im-z2.json")) as fh:
            data = json.load(fh)
        fock_rows = {"generator_bound", "commutator_bound_k1", "commutator_bound_k2",
                     "growth_bound_k1", "growth_bound_k2"}
        ratios = {}
        for eps in (0.01, 0.5, 1.0, 10.0):
            data["epsilon"] = eps
            code, report = run_main(
                ["estimates", write_scenario(tmp_path, data), "--samples", "50"], capsys)
            if eps == 10.0:
                assert code == 0 and report["pass"] is True
            ratios[eps] = {row["name"]: row["max_ratio"] for row in report["rows"]
                           if row["name"] in fock_rows}
            assert set(ratios[eps]) == fock_rows
        for eps in (0.01, 1.0, 10.0):
            for name in fock_rows:
                assert ratios[eps][name] == pytest.approx(ratios[0.5][name], rel=1e-9)

    def test_nan_ratio_fails_its_row(self, tmp_path, capsys, monkeypatch):
        # a NaN in one sample of a stack fails the row instead of dropping
        # out of the running maximum
        original = cli.Lambda_of_map

        def with_nan(c, t_map):
            size = len(t_map.linear)
            return original(c, t_map) * np.where(np.arange(size) == size // 2, np.nan, 1.0)

        monkeypatch.setattr(cli, "Lambda_of_map", with_nan)
        data = base_scenario(t_end=0.3, fock={"n_max": 12})
        code, report = run_main(
            ["estimates", write_scenario(tmp_path, data), "--samples", "9"], capsys)
        assert code == 1 and report["pass"] is False
        failed = {row["name"]: row["max_ratio"] for row in report["rows"] if not row["pass"]}
        assert set(failed) == {"second_order_bound_m2", "second_order_bound"}
        assert all(math.isnan(v) for v in failed.values())

    def test_memory_does_not_grow_with_samples(self, tmp_path, monkeypatch):
        # the rows take their samples in chunks of fock.SAMPLE_CHUNK
        monkeypatch.setattr(fock, "SAMPLE_CHUNK", 16)
        path = os.path.join(REPO, "demos", "scenarios", "oracle-im-z2.json")
        out = str(tmp_path / "report.json")
        peaks = []
        for n_samples in (16, 16, 480):  # the first run fills the caches
            tracemalloc.start()
            assert main(["estimates", path, "--samples", str(n_samples), "--out", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[2] <= 2 * peaks[1]

    def test_deterministic_given_seed(self, tmp_path):
        data = base_scenario(t_end=0.3, fock={"n_max": 12})
        path = write_scenario(tmp_path, data)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["estimates", path, "--samples", "15", "--out", str(out1)]) == 0
        assert main(["estimates", path, "--samples", "15", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_report(self, tmp_path):
        data = base_scenario(t_end=0.3, fock={"n_max": 12})
        path = write_scenario(tmp_path, data)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["estimates", path, "--samples", "15", "--out", str(out1)]) == 0
        assert main(["estimates", path, "--samples", "15", "--seed", "9",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()


def test_console_entry_point_runs(tmp_path):
    data = base_scenario(t_end=0.2)
    path = write_scenario(tmp_path, data)
    proc = subprocess.run(
        [sys.executable, "-m", "hepp_expand.cli", "flow", path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "flow"


def test_out_file_written(tmp_path):
    data = base_scenario(t_end=0.2)
    path = write_scenario(tmp_path, data)
    out = tmp_path / "report.json"
    assert main(["flow", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1


def test_import_loads_no_scipy():
    # scipy is imported only by the functions that need it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hepp_expand, hepp_expand.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_estimates_loads_no_scipy(tmp_path):
    # the growth check takes its propagator from numpy's eigh: a whole
    # estimates run on a demo scenario needs no scipy module
    path = os.path.join(REPO, "demos", "scenarios", "example-im-z2.json")
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from hepp_expand.cli import main; "
         f"code = main(['estimates', {path!r}, '--out', {str(out)!r}]); "
         "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert json.loads(out.read_text())["pass"] is True


@pytest.mark.parametrize("name, code", [("oracle-im-z2", 0), ("example-im-z2", 3),
                                        ("oracle-d2-complex", 0)])
def test_small_oracle_loads_no_scipy(tmp_path, name, code):
    # the d=1 demo spaces (N=24: 25 states) and oracle-d2-complex (d=2,
    # N=24: 325 states) are under the numpy/CSR cut, so the oracle's
    # generator is a neighbour table and b^Wick a numpy array: a whole
    # oracle run, a pass or the documented leakage abort, needs no scipy
    path = os.path.join(REPO, "demos", "scenarios", f"{name}.json")
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from hepp_expand.cli import main; "
         f"code = main(['oracle', {path!r}, '--out', {str(out)!r}]); "
         "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{code} []"
    report = json.loads(out.read_text())
    if code == 0:
        assert report["pass"] is True
    else:
        assert "leakage" in report["error"]
