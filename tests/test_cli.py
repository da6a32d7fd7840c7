import json
import subprocess
import sys

import pytest

from taskalloc.cli import main
from taskalloc.errors import UnknownExampleError
from taskalloc.instances import get_instance, instance_ids
from taskalloc.problem import serialize_problem


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
    assert "method: bisection" in report
    assert "kkt certificate: PASSED" in report


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "taskalloc", "reproduce", "--example", "tab3",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout
