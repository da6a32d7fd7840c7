import json
import subprocess
import sys
from pathlib import Path

import pytest

from taskalloc import verify
from taskalloc.cli import main
from taskalloc.errors import UnknownExampleError
from taskalloc.instances import get_instance, instance_ids
from taskalloc.problem import load_problem, serialize_problem

DATA = Path(__file__).parent / "data"


@pytest.fixture
def tab1_file(tmp_path, tab1):
    path = tmp_path / "tab1.json"
    path.write_text(serialize_problem(tab1.problem))
    return path


def test_instance_registry():
    assert instance_ids() == ["fig2", "fig3", "tab1", "tab3"]
    with pytest.raises(UnknownExampleError):
        get_instance("fig9")


def test_solve_from_file(tmp_path, tab1_file):
    out = tmp_path / "out"
    rc = main(["solve", "--input", str(tab1_file), "--out", str(out)])
    assert rc == 0
    report = (out / "solver_report.txt").read_text()
    assert "kkt certificate: PASSED" in report
    assert "350.000000000000" in report


def test_solve_builtin_reproduces_table(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["solve", "--example", "tab1", "--out", str(out)])
    assert rc == 0
    report = (out / "solver_report.txt").read_text()
    # quantized keys and the reference aggregates appear in the table block
    for needle in ("1.897000", "2.682000", "1077.732002", "1131.202289"):
        assert needle in report
    assert "keys quantized to 3 decimals" in report


def test_solve_builtin_tab3(tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", "--example", "tab3", "--out", str(out)])
    assert rc == 0
    report = (out / "solver_report.txt").read_text()
    for needle in ("5.400000", "1026.666667", "1202.500000"):
        assert needle in report


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(serialize_problem(get_instance("tab1").problem))
    del doc["total"]
    bad.write_text(json.dumps(doc))
    rc = main(["solve", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "error-code: parse exit=2"
    assert "total" in err


def test_infeasible_exit_code(tmp_path, capsys):
    doc = json.loads(serialize_problem(get_instance("tab1").problem))
    doc["total"] = 5000.0
    bad = tmp_path / "infeasible.json"
    bad.write_text(json.dumps(doc))
    rc = main(["solve", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error-code: infeasible exit=3" in capsys.readouterr().err


def test_simulate_builtin(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--example", "fig3", "--out", str(out)])
    assert rc == 0
    report = (out / "simulate_report.txt").read_text()
    assert "converged: True" in report
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "step,t,w_1,w_2,w_3,w_4,w_5,w_6,C,V,residual"


def test_simulate_step_overflow_exit(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", "--example", "fig2", "--dt", "10", "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "error-code: step-overflow exit=4" in err
    assert "halving" in err


def test_simulate_accepts_step_cap_beyond_float_range(tmp_path):
    rc = main(["simulate", "--example", "fig3", "--dt", "0.032",
               "--max-steps", "9" * 400, "--out", str(tmp_path / "o")])
    assert rc == 0


def test_simulate_requires_dt_for_files(tmp_path, tab1_file, capsys):
    rc = main(["simulate", "--input", str(tab1_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error-code: parse exit=2" in capsys.readouterr().err


def test_verify_builtin(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "verify",
            "--example",
            "tab3",
            "--samples",
            "20000",
            "--seed",
            "1",
            "--grid",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = (out / "verify_report.txt").read_text()
    assert "verdict: VERIFIED" in report
    assert "solver not beaten: True" in report


def test_verify_dump_writes_samples(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "verify",
            "--example",
            "tab1",
            "--samples",
            "500",
            "--seed",
            "0",
            "--grid",
            "1.0",
            "--dump-oracle",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "oracle_samples.csv").read_text().splitlines()
    assert lines[0] == "sample_index,w_1,w_2,w_3,C"
    assert len(lines) == 501


def test_verify_walker_instance(tmp_path):
    # thin5's feasible set is about 1.5e-4 of the shifted simplex, so the
    # hit-and-run walker draws the samples
    path = DATA / "thin5.json"
    assert verify.monte_carlo_min(load_problem(path), 1, 0).mode == "hit-and-run"
    out = tmp_path / "out"
    rc = main(["verify", "--input", str(path), "--samples", "2000", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    assert "verdict: VERIFIED" in (out / "verify_report.txt").read_text()


# numpy warns when a cost overflows; the exit code is what is checked
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "total, grid, what",
    [
        # every cost on [0, 1e300]^2 overflows, the solver's first
        (1e300, [], "solver"),
        # the optimum's cost is 1.79768e308, just under the float maximum
        # 1.79769e308: a load 4e152 off the centre, as on the 1e153 grid,
        # overflows, and so does each of the ten random points
        (2.68155e154, [], "monte carlo"),
        (2.68155e154, ["--grid", "1e153"], "grid"),
    ],
    ids=["solver", "monte-carlo", "grid"],
)
def test_verify_cost_overflow_exits_numerical(tmp_path, capsys, total, grid, what):
    agent = {"family": "quadratic", "a": 1.0, "b": 1.0, "lower": 0.0, "upper": total}
    doc = {"total": total, "graph": {"n": 2, "edges": [[1, 2]]}, "agents": [agent, agent]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    rc = main(["verify", "--input", str(path), "--samples", "10", *grid,
               "--out", str(tmp_path / "o")])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error-code: numerical exit=4"
    assert err[1].startswith(f"{what} cost is inf")


def test_reports_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(
            ["verify", "--example", "tab1", "--samples", "5000", "--seed", "9",
             "--grid", "1.0", "--out", str(out)]
        )
        assert rc == 0
        outs.append((out / "verify_report.txt").read_bytes())
    assert outs[0] == outs[1]


def test_solve_tab3_report_matches_golden(tmp_path):
    # tab3 is quadratic, so no exp/log last-bit drift across CPUs or libms
    out = tmp_path / "out"
    assert main(["solve", "--example", "tab3", "--out", str(out)]) == 0
    golden = (DATA / "tab3_solver_report.txt").read_bytes()
    assert (out / "solver_report.txt").read_bytes() == golden


@pytest.mark.parametrize("grid", [[], ["--grid", "0.5"]], ids=["auto", "0.5"])
def test_verify_tab3_grid_lines_match_golden(tmp_path, grid):
    # the automatic resolution is width/300, which is 0.5 on tab3 as well
    out = tmp_path / "out"
    argv = ["verify", "--example", "tab3", "--samples", "2000", "--seed", "0", *grid]
    assert main([*argv, "--out", str(out)]) == 0
    lines = (out / "verify_report.txt").read_text().splitlines(keepends=True)
    start = next(k for k, line in enumerate(lines) if line.startswith("grid:"))
    assert "".join(lines[start : start + 4]) == (DATA / "tab3_verify_grid.txt").read_text()


def test_reproduce_tab_instances(tmp_path, capsys):
    for example in ("tab1", "tab3"):
        out = tmp_path / example
        rc = main(["reproduce", "--example", example, "--out", str(out)])
        assert rc == 0
        report = (out / f"reproduce_{example}.txt").read_text()
        assert "[FAIL]" not in report
        assert "result: PASS" in report


def test_reproduce_fig3(tmp_path):
    out = tmp_path / "f3"
    rc = main(["reproduce", "--example", "fig3", "--out", str(out)])
    assert rc == 0
    report = (out / "reproduce_fig3.txt").read_text()
    assert "result: PASS" in report
    assert (out / "trajectory_fig3.csv").exists()


def test_solve_mixed_family_file(tmp_path):
    doc = {
        "total": 140.0,
        "graph": {"n": 3, "edges": [[1, 2], [2, 3]]},
        "agents": [
            {"family": "exponential", "a": 500.0, "lower": 10.0, "upper": 60.0},
            {"family": "quadratic", "a": 0.05, "b": 2.0, "lower": 20.0, "upper": 90.0},
            {"family": "quadratic", "a": 0.02, "b": 1.0, "lower": 0.0, "upper": 70.0},
        ],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["solve", "--input", str(path), "--out", str(out)])
    assert rc == 0
    report = (out / "solver_report.txt").read_text()
    # the bracket's interior agent is quadratic, so the first step is exact
    assert "method: interpolation" in report
    assert "kkt certificate: PASSED" in report
    assert "breakpoint coordinate" not in report


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "taskalloc", "reproduce", "--example", "tab3",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--example", "tab1", "--samples", "0"],
        ["verify", "--example", "tab1", "--samples", "2000", "--grid", "0"],
        ["verify", "--example", "tab1", "--samples", "2000", "--grid", "0.001"],
        ["simulate", "--example", "fig3", "--dt", "-1"],
        ["simulate", "--example", "fig3", "--max-steps", "0"],
        ["simulate", "--example", "fig3", "--tol", "0"],
        ["simulate", "--example", "fig3", "--dt", "inf"],
        ["simulate", "--example", "fig3", "--tol", "inf"],
        ["verify", "--example", "tab1", "--samples", "2000", "--grid", "inf"],
        ["verify", "--example", "tab1", "--samples", "2000", "--grid", "1e-300"],
    ],
)
def test_invalid_option_values_exit_config(tmp_path, capsys, argv):
    rc = main([*argv, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error-code: config exit=2"
    assert len(err) == 2 and err[1]


@pytest.mark.parametrize("grid", ["0", "0.001"])
def test_verify_checks_grid_before_sampling(tmp_path, capsys, monkeypatch, grid):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the Monte Carlo oracle ran before --grid was checked")

    monkeypatch.setattr(verify, "monte_carlo_min", no_sampling)
    rc = main(["verify", "--example", "tab1", "--grid", grid, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[0] == "error-code: config exit=2"


def test_verify_empty_grid_exit_config(tmp_path, capsys):
    # the grid on the first box is 0, 3, 6, 9, 10, so the second load is
    # never inside [4.5, 4.6]
    doc = {
        "total": 10.0,
        "graph": {"n": 2, "edges": [[1, 2]]},
        "agents": [
            {"family": "exponential", "a": 1.0, "lower": 0.0, "upper": 10.0},
            {"family": "exponential", "a": 1.0, "lower": 4.5, "upper": 4.6},
        ],
    }
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", "--input", str(path), "--samples", "2000", "--grid", "3"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error-code: config exit=2",
        "no grid point satisfies the sum and box constraints",
    ]


def _truncate_agents(doc):
    doc["agents"] = doc["agents"][:2]


def _set_edges(edges):
    return lambda doc: doc["graph"].update(edges=edges)


def _set_field(agent, key, value):
    return lambda doc: doc["agents"][agent].update({key: value})


@pytest.mark.parametrize(
    "example, edit, field",
    [
        ("tab1", lambda doc: doc.update(total=0), "'total'"),
        ("tab1", _truncate_agents, "'agents'"),
        ("tab1", _set_edges([[1, 1], [1, 2]]), "self-loop at node 1"),
        ("tab1", _set_edges([[1, 2]]), "unreachable from node 1: [3]"),
        ("tab3", _set_field(0, "lower", float("nan")), "agent #1 'lower' must be finite"),
        ("tab1", _set_field(0, "a", float("inf")), "agent #1 'a' must be finite"),
        ("tab3", _set_field(1, "b", float("inf")), "agent #2 'b' must be finite"),
        ("tab3", _set_field(2, "upper", float("inf")), "agent #3 'upper' must be finite"),
        ("tab1", _set_field(0, "upper", float("inf")), "agent #1 'upper' must be finite"),
        ("tab1", lambda doc: doc.update(total=float("inf")), "'total' must be finite"),
        ("tab1", _set_field(0, "a", 10**400), "agent #1 'a' must be finite"),
    ],
    ids=[
        "zero-total", "short-agents", "self-loop", "disconnected", "nan-lower",
        "inf-a", "inf-b", "inf-upper-quadratic", "inf-upper-exponential", "inf-total",
        "int-beyond-float",
    ],
)
def test_malformed_problem_file_exit_parse(tmp_path, capsys, example, edit, field):
    doc = json.loads(serialize_problem(get_instance(example).problem))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["solve", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error-code: parse exit=2"
    assert field in err[1]
