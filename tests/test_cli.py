import contextlib
import dataclasses
import io
import itertools
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_problem, replaced
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taskalloc import cli, instances, problem, verify
from taskalloc.cli import main
from taskalloc.costs import CostModel
from taskalloc.lambda_solver import breakpoints, solve_lambda
from taskalloc.errors import (
    CostOverflowError,
    DimensionTooLargeError,
    EmptyGridError,
    InfeasibleError,
    NotFeasibleError,
    ParseError,
    StepOverflowError,
    UnknownExampleError,
)
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


def test_example_runs_build_the_instance_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting(doc):
        calls.append(doc)
        return original(doc)

    original = instances._from_document
    monkeypatch.setattr(instances, "_from_document", counting)
    for _ in range(2):
        assert main(["solve", "--example", "tab3", "--out", str(tmp_path)]) == 0
    assert len(calls) <= 1


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
    # the exact keys and aggregates appear in the table block
    for needle in ("1.897120", "2.682075", "1077.743209", "1131.238676"):
        assert needle in report
    assert "breakpoint coordinate: log-marginal" in report.splitlines()


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
    assert "error-code: config exit=2" in capsys.readouterr().err


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


def test_verify_walker_instance():
    # thin5's feasible set is about 1.5e-4 of the shifted simplex, so the
    # hit-and-run walker draws the samples; its verify run is a repro row
    assert verify.monte_carlo_min(load_problem(DATA / "thin5.json"), 1, 0).mode == "hit-and-run"


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
    # the error-code line and the message, with no numpy warning before them
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0] == "error-code: numerical exit=4"
    assert err[1].startswith(f"{what} cost is inf")


def test_solve_reports_overflowing_cost_as_inf(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["solve", "--input", str(DATA / "overflow2.json"), "--out", str(out)])
    assert rc == 0
    assert "total cost: inf" in (out / "solver_report.txt").read_text()
    assert capsys.readouterr().err == ""


def test_flat_marginal_instance_solves_and_verifies(tmp_path):
    # flat2's first agent has a * span = 1 below one ulp of b = 1e16, so
    # both its thresholds are one key; the solver divided by zero there (its
    # certificate is a repro row). Its load is blended between the ends,
    # lower at one and upper at the other, so it is tagged interior
    path = DATA / "flat2.json"
    rc = main(["solve", "--input", str(path), "--out", str(tmp_path / "s")])
    assert rc == 0
    report = (tmp_path / "s" / "solver_report.txt").read_text()
    assert "     1       0.500000000000  interior" in report
    assert "     2       1.000000000000     upper" in report
    rc = main(["verify", "--input", str(path), "--samples", "2000", "--seed", "0",
               "--out", str(tmp_path / "v")])
    assert rc == 0
    assert "verdict: VERIFIED" in (tmp_path / "v" / "verify_report.txt").read_text()


def test_total_at_the_exact_lower_sum_solves_and_verifies(tmp_path, capsys):
    # boundsum3's total is the exact sum of the three lowers; their float
    # sum in file order rounds one ulp above it (its solve is a repro row)
    path = DATA / "boundsum3.json"
    rc = main(["verify", "--input", str(path), "--samples", "2000", "--seed", "0",
               "--out", str(tmp_path / "v")])
    assert rc == 0
    assert "verdict: VERIFIED" in (tmp_path / "v" / "verify_report.txt").read_text()
    doc = json.loads(path.read_text())
    below = math.nextafter(doc["total"], 0.0)
    path = tmp_path / "below.json"
    path.write_text(json.dumps(dict(doc, total=below)))
    capsys.readouterr()
    assert main(["solve", "--input", str(path), "--out", str(tmp_path / "b")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error-code: infeasible exit=3"
    # the message still prints the float sum
    assert err[1].endswith(f"total {below} is below the sum of lower bounds 14.654904138814093")


def test_underflowing_interpolation_step_solves(tmp_path):
    # agent 2's key gap over the bracket's mass gap, about 1e-200 / 1e220,
    # underflows to 0, so a secant step takes the share of the mass gap
    # first (its certificate is a repro row)
    path = DATA / "underflow2.json"
    assert main(["solve", "--input", str(path), "--out", str(tmp_path / "s")]) == 0
    report = (tmp_path / "s" / "solver_report.txt").read_text()
    assert "lambda: 1.6487212707e-200" in report.splitlines()
    assert re.search(r"^ +2 +\S+ +interior$", report, re.MULTILINE)


def test_small_total_solves_and_verifies(tmp_path):
    # loads of ~1e-13: tolerances floored at 1 made the solver return the
    # infeasible (0, 0) and the sampler call that the only feasible point
    agents = [{"family": "quadratic", "a": a, "b": 1.0, "lower": 0.0, "upper": 1e-12}
              for a in (1.0, 2.0)]
    doc = {"total": 3e-13, "graph": {"n": 2, "edges": [[1, 2]]}, "agents": agents}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(path), "--out", str(tmp_path / "s")]) == 0
    assert "kkt certificate: PASSED" in (tmp_path / "s" / "solver_report.txt").read_text()
    rc = main(["verify", "--input", str(path), "--samples", "2000", "--seed", "0",
               "--out", str(tmp_path / "v")])
    assert rc == 0
    report = (tmp_path / "v" / "verify_report.txt").read_text()
    assert "grid: resolution=3.33333333333e-15 points=91" in report
    assert "verdict: VERIFIED" in report


_QUAD = {"family": "quadratic", "a": 1.0, "b": 1.0, "lower": 0.0, "upper": 10.0}
_EXPO = {"family": "exponential", "a": 1.0, "lower": 0.0, "upper": 10.0}


@pytest.mark.parametrize("total", [5e-324, 1e-320, 1e-318])
@pytest.mark.parametrize(
    "agents", [[_QUAD] * 2, [_EXPO] * 2, [_QUAD, _EXPO, _QUAD]],
    ids=["quadratic-pair", "exponential-pair", "mixed-triple"],
)
def test_subnormal_totals_solve_and_simulate(tmp_path, capsys, total, agents):
    # 1e-6 * total underflows below the float grid, so the membership
    # tolerance is floored at n steps of it: without the floor the solver's
    # own point was outside the feasible set, and the start off the simplex
    n = len(agents)
    doc = {"total": total, "graph": {"n": n, "edges": [[k, k + 1] for k in range(1, n)]},
           "agents": agents}
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(path), "--out", str(tmp_path / "s")]) == 0
    assert "kkt certificate: PASSED" in capsys.readouterr().out
    rc = main(["simulate", "--input", str(path), "--dt", "1e-3", "--max-steps", "50",
               "--out", str(tmp_path / "d")])
    assert rc != 2, capsys.readouterr().err


def _write_pair(tmp_path, total):
    doc = {"total": total, "graph": {"n": 2, "edges": [[1, 2]]}, "agents": [_QUAD] * 2}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("total", [20 * math.ulp(0.0), 1e-320, 1e-318, 1e-315])
def test_subnormal_totals_verify(tmp_path, capsys, total):
    # the sampled points miss a subnormal total by a few units of 2**-1074
    # and cost that much less; verify credits each oracle's best point with
    # lam times its shortfall, so the solver's optimum is not beaten
    path = _write_pair(tmp_path, total)
    rc = main(["verify", "--input", str(path), "--samples", "200", "--seed", "0",
               "--out", str(tmp_path / "v")])
    assert rc == 0
    assert "verdict: VERIFIED" in capsys.readouterr().out


@pytest.mark.parametrize(("best_cost", "rc"), [(17, 0), (16, 5)])
def test_verify_credits_no_more_than_the_shortfall(tmp_path, monkeypatch, best_cost, rc):
    # at total 20 u (u = 2**-1074) the optimum (10 u, 10 u) costs 20 u at
    # lam = 1; a best point (3 u, 14 u) is 3 u short of the total, so a cost
    # of 17 u does not beat the optimum and 16 u does
    u = math.ulp(0.0)
    sample = verify.monte_carlo_min

    def short_point(p, samples, seed, dump_path=None):
        res = sample(p, samples, seed, dump_path)
        return dataclasses.replace(res, best=np.array([3 * u, 14 * u]), best_cost=best_cost * u)

    monkeypatch.setattr(verify, "monte_carlo_min", short_point)
    path = _write_pair(tmp_path, 20 * u)
    assert solve_lambda(load_problem(path)).lam == 1.0
    assert main(["verify", "--input", str(path), "--samples", "200", "--seed", "0",
                 "--out", str(tmp_path / "v")]) == rc


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


@pytest.fixture
def wide_file(tmp_path):
    """A 700-agent quadratic problem, whose solve report is over 100 kB."""
    path = tmp_path / "wide.json"
    path.write_text(serialize_problem(random_problem(np.random.default_rng(3), 700, "quadratic")))
    return path


def test_solve_report_is_written_a_slice_at_a_time(tmp_path, monkeypatch, wide_file):
    # 60 numbers a slice: 10 table rows or 20 allocation rows at a time
    monkeypatch.setattr(problem, "_ROW_ELEMENTS", 60)
    writes, shown = [], []

    class Recording:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(text)
            return self.fh.write(text)

        def writelines(self, texts):
            for text in texts:
                self.write(text)

    def recording_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        return Recording(fh) if "w" in mode else fh

    class Shown:
        def write(self, text):
            shown.append(text)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    monkeypatch.setattr(sys, "stdout", Shown())
    out = tmp_path / "out"
    assert main(["solve", "--input", str(wide_file), "--out", str(out)]) == 0
    report = (out / "solver_report.txt").read_text()
    assert report.count("\n") > 2000
    assert max(text.count("\n") for text in writes) == 20  # one slice of allocation rows
    assert "".join(writes) == report
    assert len(shown) > 1 and max(map(len, shown)) <= shutil.COPY_BUFSIZE
    assert "".join(shown) == report


def test_report_file_is_complete_before_stdout(tmp_path, monkeypatch, capsys, wide_file):
    # a report file teed to stdout would stop at the first failed write
    argv = ["solve", "--input", str(wide_file), "--out"]
    assert main([*argv, str(tmp_path / "ok")]) == 0
    capsys.readouterr()

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main([*argv, str(tmp_path / "closed")]) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error-code: io exit=2"
    report = (tmp_path / "closed" / "solver_report.txt").read_bytes()
    assert report == (tmp_path / "ok" / "solver_report.txt").read_bytes()


@pytest.mark.parametrize("grid", [[], ["--grid", "0.5"]], ids=["auto", "0.5"])
def test_verify_tab3_grid_lines_match_golden(tmp_path, grid):
    # the automatic resolution is width/300, which is 0.5 on tab3 as well
    out = tmp_path / "out"
    argv = ["verify", "--example", "tab3", "--samples", "2000", "--seed", "0", *grid]
    assert main([*argv, "--out", str(out)]) == 0
    assert _grid_lines(out / "verify_report.txt") == _grid_lines(
        DATA / "golden" / "verify-tab3" / "verify_report.txt"
    )


def _grid_lines(report: Path) -> str:
    lines = report.read_text().splitlines(keepends=True)
    start = next(k for k, line in enumerate(lines) if line.startswith("grid:"))
    return "".join(lines[start : start + 4])


def test_reproduce_tab_instances(tmp_path, capsys):
    for example in ("tab1", "tab3"):
        out = tmp_path / example
        rc = main(["reproduce", "--example", example, "--out", str(out)])
        assert rc == 0
        report = (out / f"reproduce_{example}.txt").read_text()
        assert "[FAIL]" not in report
        assert "result: PASS" in report


def test_reproduce_builds_the_breakpoint_table_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return breakpoints(*args, **kwargs)

    monkeypatch.setattr("taskalloc.cli.breakpoints", counting)
    assert main(["reproduce", "--example", "tab1", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, failed, report, code",
    [
        (["simulate", "--example", "fig3", "--dt", "0.032", "--max-steps", "5"], False,
         "simulate_report.txt", "error-code: not-converged exit=4"),
        (["solve", "--example", "tab1"], True, "solver_report.txt", "error-code: mismatch exit=5"),
        (["verify", "--example", "tab1", "--samples", "50"], True,
         "verify_report.txt", "error-code: mismatch exit=5"),
        (["reproduce", "--example", "tab1"], True,
         "reproduce_tab1.txt", "error-code: mismatch exit=5"),
    ],
)
def test_verdict_failures_print_error_code(tmp_path, capsys, monkeypatch, argv, failed, report,
                                           code):
    if failed:
        real = verify.kkt_check
        monkeypatch.setattr(verify, "kkt_check",
                            lambda p, w: dataclasses.replace(real(p, w), passed=False))
    out = tmp_path / "o"
    rc = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == int(code[-1])
    assert captured.err.splitlines()[0] == code
    assert len(captured.err.splitlines()) == 2 and report in captured.err
    # the report is written and printed before the failure lines
    assert captured.out == (out / report).read_text()


def test_reproduce_fig3(tmp_path):
    out = tmp_path / "f3"
    rc = main(["reproduce", "--example", "fig3", "--out", str(out)])
    assert rc == 0
    report = (out / "reproduce_fig3.txt").read_text()
    assert "result: PASS" in report
    assert (out / "trajectory_fig3.csv").exists()


def test_reproduce_replicator_body_is_simulates(tmp_path, capsys):
    # reproduce on a replicator instance runs simulate's run at the
    # instance's step: the same report body and, but for V (which reproduce
    # takes against the closed-form optimum), the same trace
    assert main(["reproduce", "--example", "fig3", "--out", str(tmp_path / "r")]) == 0
    assert main(["simulate", "--example", "fig3", "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    reproduced = (tmp_path / "r" / "reproduce_fig3.txt").read_text().splitlines()[5:]
    body = list(itertools.takewhile(lambda line: not line.startswith(("[PASS]", "[FAIL]")),
                                    reproduced))
    simulated = (tmp_path / "s" / "simulate_report.txt").read_text().splitlines()[5:]
    assert simulated[-1] == "trace: trajectory.csv"
    assert body == [*simulated[:-1], "trace: trajectory_fig3.csv"]

    def without_v(path):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        v = rows[0].index("V")
        return [row[:v] + row[v + 1:] for row in rows]

    assert without_v(tmp_path / "r" / "trajectory_fig3.csv") == without_v(
        tmp_path / "s" / "trajectory.csv")


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
    # the only interior agent is quadratic, so a Newton step lands exactly
    assert "method: newton" in report
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


@pytest.mark.parametrize("grid", ["0.5", "inf"])
def test_verify_grid_above_four_agents_exits_config(tmp_path, capsys, monkeypatch, grid):
    # without --grid, thin5 (n = 5) skips the grid; with it, grid_min refuses
    def no_sampling(*args, **kwargs):
        raise AssertionError("the Monte Carlo oracle ran before --grid was checked")

    monkeypatch.setattr(verify, "monte_carlo_min", no_sampling)
    out = tmp_path / "o"
    argv = ["verify", "--input", str(DATA / "thin5.json"), "--grid", grid, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error-code: config exit=2",
        "grid oracle supports n <= 4, got 5",
    ]
    assert not (out / "verify_report.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--example", "fig3", "--dt", "abc"],
        ["solve", "--example", "fig9"],
        ["solve"],
    ],
)
def test_usage_errors_print_config_code(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[0] == "error-code: config exit=2"


def test_one_parser_per_process_and_no_state_between_calls(tmp_path):
    # repeated main calls, a usage error among them, reuse the first parser;
    # an option given to one call is not a default of the next. No clock
    cli._build_parser.cache_clear()
    out = str(tmp_path / "o")
    assert main(["solve", "--example", "tab1", "--out", out]) == 0
    assert main(["verify", "--example", "tab1", "--samples", "2000", "--grid", "5",
                 "--out", out]) == 0
    assert "grid: resolution=5 points=" in (tmp_path / "o" / "verify_report.txt").read_text()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--out", out])
    assert exc.value.code == 2
    assert main(["verify", "--example", "tab1", "--samples", "2000", "--out", out]) == 0
    assert "grid: resolution=0.5 points=" in (tmp_path / "o" / "verify_report.txt").read_text()
    assert main(["reproduce", "--example", "tab1", "--out", out]) == 0
    assert cli._build_parser.cache_info().misses == 1


# every error class that can reach main, with the slug and exit code it
# must report
_EXIT_TABLE = [
    (ParseError("agent #1 'a' must be a number"), "parse", 2),
    (UnknownExampleError("fig9", ["fig2", "fig3"]), "unknown-example", 2),
    (DimensionTooLargeError("grid oracle supports n <= 4, got 5"), "config", 2),
    (EmptyGridError("no grid point satisfies the sum and box constraints"), "config", 2),
    (InfeasibleError("total 25 outside [0, 20]"), "infeasible", 3),
    (StepOverflowError([0, 2], step_index=7), "step-overflow", 4),
    (CostOverflowError("solver cost is inf"), "numerical", 4),
    (NotFeasibleError("allocation outside the feasible set"), "numerical", 4),
]


@pytest.mark.parametrize(
    "error, slug, code", _EXIT_TABLE, ids=[type(e).__name__ for e, _, _ in _EXIT_TABLE]
)
def test_error_classes_exit_with_their_code(tmp_path, capsys, monkeypatch, error, slug, code):
    def raising(*args):
        raise error

    monkeypatch.setattr(cli, "_run_solve", raising)
    out = tmp_path / "o"
    assert main(["solve", "--example", "tab1", "--out", str(out)]) == code
    hint = " (try halving --dt)" if isinstance(error, StepOverflowError) else ""
    assert capsys.readouterr().err == f"error-code: {slug} exit={code}\n{error}{hint}\n"
    assert not (out / "solver_report.txt").exists()


def test_verify_empty_grid_exit_config(tmp_path, capsys):
    # no box is 3 wide, so the last agent is solved from the sum: the grid
    # on the first box is 0, 2.9, and the second load, 6 or 3.1, is never
    # inside [4.5, 4.6]
    doc = {
        "total": 6.0,
        "graph": {"n": 2, "edges": [[1, 2]]},
        "agents": [
            {"family": "exponential", "a": 1.0, "lower": 0.0, "upper": 2.9},
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


_PAIR = {
    "total": 1.0,
    "graph": {"n": 2, "edges": [[1, 2]]},
    "agents": [{"family": "quadratic", "a": 1.0, "b": 1.0, "lower": 0.0, "upper": 1.0}] * 2,
}


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((), [], "top level must be an object"),
        (("graph",), [], "'graph' must be an object"),
        (("graph", "n"), 2.0, "graph 'n' must be an integer, got 2.0"),
        (("graph", "edges"), {}, "graph 'edges' must be a list of [i, j] pairs"),
        (("graph", "edges", 0), [1], "edge #1 must be a pair [i, j]"),
        (("graph", "edges", 0, 0), [1], "edge #1 has non-integer node [1]"),
        (("agents",), {}, "'agents' must be a list"),
        (("agents", 0), [], "agent #1 must be an object"),
        (("agents", 0, "family"), "cubic", "agent #1 has unknown family 'cubic'"),
        (("agents", 0, "family"), [], "agent #1 has unknown family []"),
        (("agents", 0, "a"), -1, "agent #1: coefficient a must be positive, got -1.0"),
        ((), {"total": 1.0, "graph": {"n": 0, "edges": []}, "agents": []},
         "graph: need at least 1 agent, got 0"),
    ],
)
def test_parse_error_messages(tmp_path, capsys, path, value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(replaced(_PAIR, path, value)))
    assert main(["solve", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error-code: parse exit=2", message]


_DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff{}", "file is not UTF-8: invalid start byte at byte 0"),
        (b'{"total": 1' + b"0" * _DIGITS + b"}",
         f"invalid JSON: an integer has more than {_DIGITS} digits"),
        (b"[" * 100_000, "invalid JSON: arrays or objects nested too deeply"),
    ],
    ids=["not-utf8", "long-int", "deep"],
)
def test_unreadable_files_exit_parse(tmp_path, capsys, data, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main(["solve", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error-code: parse exit=2", message]


def test_commands_never_build_cost_models_of_a_parsed_problem(tmp_path, monkeypatch, capsys):
    # files and bundled instances go to the cost table without a CostModel,
    # and a file's agent fault is worded by the agent rule without one
    def refuse(model):
        raise AssertionError(f"a command built {model!r}")

    monkeypatch.setattr(CostModel, "__post_init__", refuse)
    out = str(tmp_path / "o")
    mixed = replaced(_PAIR, ("agents", 0), {"family": "exponential", "a": 1.0, "lower": 0.0,
                                            "upper": 1.0})
    for k, doc in enumerate([_PAIR, mixed, json.loads(serialize_problem(get_instance("tab1").problem))]):
        path = tmp_path / f"p{k}.json"
        path.write_text(json.dumps(doc))
        for argv in (["solve"], ["verify", "--samples", "200", "--seed", "0"]):
            assert main([*argv, "--input", str(path), "--out", out]) == 0
    for argv in (["solve"], ["verify", "--samples", "200", "--seed", "0"], ["reproduce"]):
        for iid in ("tab1", "tab3"):
            assert main([*argv, "--example", iid, "--out", out]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(replaced(_PAIR, ("agents", 0, "a"), -1)))
    capsys.readouterr()
    assert main(["solve", "--input", str(bad), "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error-code: parse exit=2", "agent #1: coefficient a must be positive, got -1.0"]


def test_missing_input_file_exits_io(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["solve", "--input", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error-code: io exit=2"


# Scales from the smallest subnormal to the largest float, and a total
# placed between the bound sums by one of these fractions.
_NUMBERS = [0.0, 5e-324, 1e-300, 1e-12, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e12, 1e150, 1e300, 1.7e308]
_POSITIVE = _NUMBERS[1:]
_FRACTIONS = [x for x in _NUMBERS if x <= 1.0]


@st.composite
def _problem_docs(draw):
    """A path of 1-5 agents of either family with a total inside the bounds."""
    n = draw(st.integers(1, 5))
    agents = []
    for _ in range(n):
        family = draw(st.sampled_from(["exponential", "quadratic"]))
        bounds = st.lists(st.sampled_from(_NUMBERS), min_size=2, max_size=2,
                          unique=family == "exponential")
        lower, upper = sorted(draw(bounds))
        agent = {"family": family, "a": draw(st.sampled_from(_POSITIVE))}
        if family == "quadratic":
            agent["b"] = draw(st.sampled_from(_POSITIVE))
        agents.append({**agent, "lower": lower, "upper": upper})
    lo, up = (min(sum(a[k] for a in agents), sys.float_info.max) for k in ("lower", "upper"))
    total = lo + draw(st.sampled_from(_FRACTIONS)) * (up - lo)
    edges = [[i, i + 1] for i in range(1, n)]
    return {"total": total, "graph": {"n": n, "edges": edges}, "agents": agents}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_problem_docs())
def test_exit_codes_on_random_problem_files(doc):
    # the suite turns RuntimeWarning into an error, so a numpy warning fails too
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps(doc))
        out = str(Path(tmp) / "o")
        for argv in (["solve"], ["verify", "--samples", "50"],
                     ["simulate", "--dt", "1e-3", "--max-steps", "50"]):
            rc = main([*argv, "--input", str(path), "--out", out])
            assert rc in (0, 2, 3, 4, 5), argv
            if argv == ["solve"] and rc == 0:
                assert "kkt certificate: PASSED" in (Path(out) / "solver_report.txt").read_text()
                p = load_problem(path)
                with np.errstate(over="ignore", invalid="ignore"):  # as in main
                    loads = solve_lambda(p).allocation
                # n ulps of w exceed 1e-12 * w only for subnormal totals
                assert abs(loads.sum() - p.total) <= max(1e-12 * p.total, p.n * math.ulp(p.total))


# Option values from 0, the smallest subnormal and the largest floats to
# nan and both infinities; each is passed as --opt=value, so argparse reads
# "-inf" as a value
_OPTION_FLOATS = ["0", "-1", "5e-324", "1e-300", "1e-12", "1e-3", "0.5", "1", "1e3", "1e300",
                  "nan", "inf", "-inf"]


@st.composite
def _option_argv(draw):
    """simulate on fig3 or tab1, or verify on tab1 or tab3, every option drawn."""
    floats = st.sampled_from(_OPTION_FLOATS)
    if draw(st.booleans()):
        return ["simulate", "--example", draw(st.sampled_from(["fig3", "tab1"])),
                f"--dt={draw(floats)}", f"--tol={draw(floats)}",
                f"--max-steps={draw(st.sampled_from([-1, 0, 1, 2, 7, 1000]))}"]
    return ["verify", "--example", draw(st.sampled_from(["tab1", "tab3"])),
            f"--grid={draw(floats)}", f"--samples={draw(st.sampled_from([-1, 0, 1, 7, 2000]))}",
            f"--seed={draw(st.sampled_from([-1, 0, 1, 2**63, 10**30]))}"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_option_argv())
def test_exit_codes_on_option_values(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the run
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([*argv, "--out", tmp])
    assert rc in (0, 2, 3, 4, 5), argv
    if rc:
        assert re.fullmatch(rf"error-code: [a-z-]+ exit={rc}", err.getvalue().splitlines()[0]), argv


@st.composite
def _small_verify_docs(draw):
    """A path of 1-3 agents of mixed families, boxes from a point to a width
    of 100 at lower bounds up to 1000, and a total at either bound sum or
    between them. The numbers come from a generator seeded by the draw, so
    their mantissas are random: a sum that rounds off the total needs them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    agents = []
    for _ in range(n):
        family = draw(st.sampled_from(["exponential", "quadratic"]))
        agent = {"family": family, "a": 10.0 ** rng.uniform(-3.0, 4.0)}
        if family == "quadratic":
            agent["b"] = 10.0 ** rng.uniform(-3.0, 3.0)
        lower = draw(st.sampled_from([0.0, 10.0, 1000.0])) * rng.uniform()
        widths = [1e-9, rng.uniform(0.01, 1.0), rng.uniform(1.0, 100.0)]
        width = draw(st.sampled_from(widths + [0.0] * (family == "quadratic")))
        agents.append({**agent, "lower": lower, "upper": lower + width})
    lo, up = (sum(a[k] for a in agents) for k in ("lower", "upper"))
    total = draw(st.sampled_from([lo, up, lo + rng.uniform() * (up - lo)]))
    assume(total > 0)
    edges = [[i, i + 1] for i in range(1, n)]
    return {"total": total, "graph": {"n": n, "edges": edges}, "agents": agents}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_small_verify_docs())
def test_verify_small_instances_verified(doc):
    # every oracle point and the solver's point are compared by C(x) -
    # lam * (sum x - w), which bounds the optimum from below on the boxes
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", "--input", str(path), "--samples", "300", "--seed", "1"]
        assert main([*argv, "--out", str(Path(tmp) / "o")]) == 0, doc
    assert stdout.getvalue().splitlines()[-1] == "verdict: VERIFIED"


# Every problem file in tests/data runs here through main: the subcommand's
# arguments, the exit code, and a pattern that a line of the report (on a
# failure, the first of the two stderr lines) must match in full. A new
# repro is a file and a row.
_SAMPLED = ["--samples", "2000", "--seed", "0"]
_PASSED = "kkt certificate: PASSED"
_VERIFIED = "verdict: VERIFIED"
_GRID = r"grid: resolution=\S+ points=[1-9]\d*"  # an automatic grid that lands cells
_REPROS = [
    # a * span below one ulp of b: the marginal is flat to rounding
    ("flat2", ["solve"], 0, _PASSED),
    # a total of 5e-324: the membership tolerance must not underflow to 0,
    # so the solver's point is feasible and the replicator's start lies on
    # the simplex
    ("subnormal2", ["solve"], 0, _PASSED),
    ("subnormal2", ["simulate", "--dt", "1e-3", "--max-steps", "50"], 0,
     "inside feasible set: True"),
    # at a total of 1e-320 the sampled points fall a few units of 2**-1074
    # short; credited with lam times that shortfall, none beats the optimum
    ("subnormal_mc2", ["verify", "--samples", "200", "--seed", "0"], 0, _VERIFIED),
    # the exact sum of the lowers, which their float sum rounds one ulp above
    ("boundsum3", ["solve"], 0, _PASSED),
    # a secant step of 1e-200 over 1e220 would underflow
    ("underflow2", ["solve"], 0, _PASSED),
    # a steep agent (its marginal moves 5e-3 over one ulp of its load) pulls
    # the interior mean off the flat agent
    ("steep2", ["solve"], 0, _PASSED),
    ("steep2", ["verify", *_SAMPLED], 0, _VERIFIED),
    # verify exits 0 only on its VERIFIED verdict, so these four rows check
    # the grid instead. A point above the total under a steep lam: a steep
    # agent at its upper bound, and a Newton landing 2.2e-10 above the total
    ("steep_upper2", ["verify", *_SAMPLED], 0, _GRID),
    ("steep_hit2", ["verify", *_SAMPLED], 0, _GRID),
    # a pinned last agent: the grid solves the second agent from the sum
    ("pinned3", ["verify", *_SAMPLED], 0, _GRID),
    # one free agent leaves a single point, and its load sums to w exactly
    ("single2", ["verify", *_SAMPLED], 0, _GRID),
    ("single2", ["solve"], 0, "sum of loads: 7"),
    # a box too thin for rejection: the hit-and-run walker draws the samples
    ("thin5", ["verify", *_SAMPLED], 0, _VERIFIED),
    # a total at the float sum of the uppers, above their pairwise sum
    ("box_upper50", ["solve"], 0, _PASSED),
    # a mixed table that takes several Newton steps
    ("waterfill_mixed11", ["solve"], 0, _PASSED),
    # costs beyond float range, an agent whose family is a JSON list, and a
    # total above the sum of the upper bounds
    ("overflow2", ["verify", "--samples", "10"], 4, "error-code: numerical exit=4"),
    ("family_list", ["solve"], 2, "error-code: parse exit=2"),
    ("infeasible2", ["solve"], 3, "error-code: infeasible exit=3"),
]


@pytest.mark.parametrize("name, argv, code, line", _REPROS,
                         ids=[f"{name}-{argv[0]}" for name, argv, _, _ in _REPROS])
def test_repro_files(tmp_path, capsys, name, argv, code, line):
    rc = main([*argv, "--input", str(DATA / f"{name}.json"), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == code, err
    if code:
        # the error-code line and the message, with no numpy warning
        assert len(err.splitlines()) == 2 and re.fullmatch(line, err.splitlines()[0])
    else:
        assert any(re.fullmatch(line, report_line) for report_line in out.splitlines())


def test_every_data_file_has_a_repro_row():
    assert sorted(path.stem for path in DATA.glob("*.json")) == sorted({row[0] for row in _REPROS})


def test_bundled_instance_solves_like_its_file(tmp_path):
    # a bundled instance is a problem document: solve on it and on its file
    # write the same report but for the instance line, breakpoint table included
    for iid in instance_ids():
        path = tmp_path / f"{iid}.json"
        path.write_text(serialize_problem(get_instance(iid).problem))
        reports = []
        for source in (["--example", iid], ["--input", str(path)]):
            assert main(["solve", *source, "--out", str(tmp_path / "o")]) == 0
            report = (tmp_path / "o" / "solver_report.txt").read_text().splitlines()
            reports.append([line for line in report if not line.startswith("instance:")])
        assert reports[0] == reports[1], iid


def test_deep_tree_file_solves(tmp_path):
    # a 10^5-agent path is a BFS 10^5 levels deep; mixed families print
    # no breakpoint table, since breakpoints() raises for them
    n = 10**5
    agents = [{"family": "exponential", "a": 1.0, "lower": 0.0, "upper": 2.0} if k % 2 else
              {"family": "quadratic", "a": 1.0, "b": 1.0, "lower": 0.0, "upper": 2.0}
              for k in range(n)]
    edges = [[k, k + 1] for k in range(1, n)]
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"total": float(n), "graph": {"n": n, "edges": edges},
                                "agents": agents}))
    assert main(["solve", "--input", str(path), "--out", str(tmp_path / "p")]) == 0
    report = (tmp_path / "p" / "solver_report.txt").read_text().splitlines()
    assert "kkt certificate: PASSED" in report
