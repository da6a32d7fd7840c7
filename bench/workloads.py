"""The four benchmark workloads: inputs, operations and output checks.

Each workload is a fixed list of operations run by one caller in a
closed loop (an operation starts only after the previous one returned).
Why each exists, and which layer should dominate it:

* ``waterfill``: ``lambda_solver`` does almost all the work. Its O(n^2)
  breakpoint table dominates (n up to 100 keeps every solve short; at
  n = 1000 one pass alone took 15 s); the mixed-family 20 % keeps the
  bisection path apart from the table path. ``drd`` and the oracles never run, so a
  replicator or sampler change should leave this workload unchanged.
* ``replicator``: ``drd``'s step loop does the work. At small n the
  per-step Python checks dominate; at n = 100 the dense adjacency
  matvecs do, and ``graph.diameter`` dominates ``select_final``.
  ``lambda_solver`` stays near zero.
* ``oracle``: the Monte Carlo sampler and ``problem.total_cost_batch`` do
  the work; the solver is trivial at n <= 8. The ``tab3`` draw runs with
  and without ``dump_path`` on the same samples, so a sampler gain and a
  writer gain show apart.
* ``cli``: the only workload that runs argument parsing, file parsing,
  report formatting and the CSV/report writers, i.e. the wall time a user
  of the command line sees. A writer gain shows here only; a sampler gain
  shows here and on ``oracle``.

Each workload's op list ("a pass") is sized to take about
``Workload.pass_s`` seconds on a 2-vCPU Xeon, so that a run repeats it
twenty times or more and times each op at its best repeat.

An operation returns ``(failures, stats)``: a list of failure reasons
(empty when every output check passed) and the timings and counts the
harness aggregates into metrics. Library calls go through module
attributes (``lambda_solver.solve_lambda``), never local bindings, so the
tracer's rebinding sees them.
"""

import contextlib
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
from taskalloc import cli, drd, instances, lambda_solver, problem, verify

# Failures that reproduce a known defect of the program, by reason, and
# the op kinds they are known on. They are counted in `failed` like any
# other failure; only a failure outside this table makes a run incorrect.
KNOWN_DEFECTS = {
    "sum_exact": "ROADMAP 4b: mixed-family bisection stops at a 1e-10*w mass "
    "tolerance or after 200 halvings, so the load sum can miss the total "
    "by more than 1e-9 relative",
    "kkt": "ROADMAP 4b: mixed-family bisection can return a level whose "
    "KKT multipliers are negative",
    "kkt_abs_tol": "kkt_check compares marginals against an absolute 1e-6 "
    "tolerance; at levels above ~1e9 rounding alone exceeds it (the "
    "certificate passes at 1e-9 relative)",
    "select_not_cheaper": "ROADMAP 4a: compare_and_select weighs costs by "
    "walk counts A^r c, not by their sum, and can keep the costlier candidate",
}
_KNOWN_BY_KIND = {
    "solve-mixed": {"sum_exact", "kkt", "kkt_abs_tol"},
    "solve": {"kkt_abs_tol"},
    "cli-solve": {"kkt_abs_tol"},
    "simulate-tol": {"select_not_cheaper"},
    "simulate-capped": {"select_not_cheaper"},
    "simulate-budget": {"select_not_cheaper"},
    "select-large": {"select_not_cheaper"},
    "select-path4a": {"select_not_cheaper"},
}


def is_known(kind: str, reason: str) -> bool:
    return reason in _KNOWN_BY_KIND.get(kind, ())


@dataclass
class Op:
    name: str
    kind: str
    fn: Callable  # fn(tracer_or_None) -> (failures, stats)


@dataclass
class Workload:
    """Inputs (problem JSON text and bundled ids) plus an op factory."""

    name: str
    pass_s: float = 4.0  # nominal seconds per pass; fixes the pass count
    texts: dict = field(default_factory=dict)  # key -> problem JSON text
    bundled: tuple = ()  # bundled instance ids loaded at set-up
    files: dict = field(default_factory=dict)  # relative path -> text written before the run
    make_ops: Callable = None  # make_ops(problems, workdir) -> list[Op]


def setup(wl: Workload) -> dict:
    """Parse every input: the set-up cost a user pays before any solve."""
    probs = {key: problem.parse_problem(text) for key, text in wl.texts.items()}
    for iid in wl.bundled:
        probs[iid] = instances.get_instance(iid)
    return probs


# ---------------------------------------------------------------------------
# shared checks


def _rel_slack(x: float) -> float:
    return 1e-9 * max(1.0, abs(x))


def check_solution(p, w, cert) -> list[str]:
    """Sum-exact to 1e-9 relative, inside every box, certificate passed."""
    out = []
    if abs(float(w.sum()) - p.total) > 1e-9 * p.total:
        out.append("sum_exact")
    lo, up = p.lower_bounds, p.upper_bounds
    slack = 1e-12 * np.maximum(1.0, np.abs(up))
    if np.any(w < lo - slack) or np.any(w > up + slack):
        out.append("box")
    if not cert.passed:
        scale = 1e-9 * max(1.0, abs(cert.lam))
        worst = min([*cert.alphas.values(), *cert.betas.values()], default=0.0)
        rel_ok = cert.stationarity_residual <= scale and worst >= -scale
        out.append("kkt_abs_tol" if rel_ok else "kkt")
    return out


def check_selection(p, chosen, candidates) -> list[str]:
    """select_final must return the cheaper feasible candidate (1e-9 rel)."""
    costs = [problem.total_cost(p, c) for c in candidates if problem.in_feasible_set(p, c)]
    best = min(costs)
    if problem.total_cost(p, chosen) > best + _rel_slack(best):
        return ["select_not_cheaper"]
    return []


# ---------------------------------------------------------------------------
# waterfill


def _solve_op(p):
    def fn(tracer):
        t0 = time.perf_counter()
        res = lambda_solver.solve_lambda(p)
        cert = verify.kkt_check(p, res.allocation)
        dt = time.perf_counter() - t0
        return check_solution(p, res.allocation, cert), {"solve_s": dt, "agents": p.n}

    return fn


def waterfill(seed: int, smoke: bool) -> Workload:
    # At least 100 ops per run, so ten latency samples lie beyond p90.
    count, n_hi = (5, 60) if smoke else (100, 100)
    insts = gen.waterfill_inputs(seed, count, n_hi=n_hi)
    texts = {f"wf{k}": x["text"] for k, x in enumerate(insts)}

    def make_ops(probs, workdir):
        return [
            Op(
                f"solve {x['family']} n={x['n']}",
                "solve-mixed" if x["family"] == gen.MIXED else "solve",
                _solve_op(probs[f"wf{k}"]),
            )
            for k, x in enumerate(insts)
        ]

    return Workload("waterfill", pass_s=0.45, texts=texts, make_ops=make_ops)


# ---------------------------------------------------------------------------
# replicator

# Every op is kept short (tens of milliseconds): on a shared host other
# tenants slow this one in bursts, often to half speed, and a short op's
# best repeat escapes them far more often than a long one's (with 0.6 s
# fig3 runs, run_s spread 29 % over ten seeds). So fig2 (1.14 M steps to
# tolerance) runs on a step budget, and fig3 runs to tolerance at
# _FIG3_DT_SCALE times its bundled step: 1.1 k steps instead of 34 k, to
# within 1e-4 of the same limit.
_FIG2_CAP = 1_000
_FIG3_DT_SCALE = 32
_LARGE_BUDGET = 300
# Coarser steps than the bundled ones for the generated to-tolerance runs;
# at these, 240 generated instances (seeds 1-30) all converged within
# 4.3 k steps, with no cost increase, to within 0.5 of the optimum.
_STEP_EXP = 2.0
_STEP_QUAD = 0.4
# A run that has not converged by then fails as not_converged instead of
# running on to drd's default cap of 10^7 steps.
_TOL_STEP_CAP = 20_000

# ROADMAP 4a: a 3-node path with identical quadratics c(w) = w^2/2 + w.
# The optimum (4, 4, 4) costs 36; (6, 2, 4) costs 40 but has the smaller
# middle cost, which is all the walk-count comparison sees at node 0.
PATH4A = gen.problem_text(
    12.0,
    3,
    [[1, 2], [2, 3]],
    [{"family": "quadratic", "a": 1.0, "b": 1.0, "lower": 0.0, "upper": 10.0}] * 3,
)
PATH4A_CANDIDATES = ([4.0, 4.0, 4.0], [6.0, 2.0, 4.0])


def _near_start(p, optimum) -> np.ndarray:
    """Feasible start near the optimum: pairs of agents trade 20 % of their
    smaller box slack, so the sum is unchanged and, since cost falls along
    the run, the state stays in the box and select_final compares both
    candidates (which runs graph.diameter)."""
    opt = np.asarray(optimum)
    slack = np.minimum(opt - p.lower_bounds, p.upper_bounds - opt)
    w0 = opt.copy()
    for i in range(0, p.n - 1, 2):
        d = 0.2 * min(slack[i], slack[i + 1])
        w0[i] += d
        w0[i + 1] -= d
    return w0


def _simulate_op(p, w0, cfg, optimum, to_tol, select=True):
    optimum = np.asarray(optimum, dtype=float)

    def fn(tracer):
        t0 = time.perf_counter()
        traj = drd.simulate(p, w0, cfg)
        sim_s = time.perf_counter() - t0
        fails = []
        c = traj.costs
        if not np.all(c[1:] <= c[:-1] + 1e-9 * np.abs(c[:-1])):
            fails.append("cost_increase")
        sums = np.append(traj.states.sum(axis=1), traj.final.sum())
        if float(np.abs(sums - p.total).max()) >= 1e-6 * p.total:
            fails.append("sum_drift")
        if to_tol:
            if not traj.converged:
                fails.append("not_converged")
            elif float(np.abs(traj.final - optimum).max()) > 0.5:
                fails.append("limit")
        if select:
            chosen = lambda_solver.select_final(p, optimum, traj.final)
            fails += check_selection(p, chosen, (optimum, traj.final))
        stats = {"simulate_s": sim_s, "steps": traj.steps}
        if to_tol:
            stats["tol_simulate_s"] = sim_s
        return fails, stats

    return fn


def _select_op(p, first, second):
    def fn(tracer):
        chosen = lambda_solver.select_final(p, first, second)
        return check_selection(p, chosen, (first, second)), {}

    return fn


def replicator(seed: int, smoke: bool) -> Workload:
    small, large, budget = (2, [40], 50) if smoke else (8, [100], _LARGE_BUDGET)
    gens = gen.replicator_inputs(seed, small, large)
    texts = {f"rd{k}": x["text"] for k, x in enumerate(gens)}
    texts["path4a"] = PATH4A
    fig2_cap = 500 if smoke else _FIG2_CAP

    def make_ops(probs, workdir):
        ops = []
        fig3 = probs["fig3"]
        p = fig3.problem
        ops.append(Op(f"fig3 to tol at {_FIG3_DT_SCALE}x step", "simulate-tol", _simulate_op(
            p, drd.default_start(p), drd.DrdConfig(step=_FIG3_DT_SCALE * fig3.drd_step),
            fig3.reference["allocation"], True)))
        fig2 = probs["fig2"]
        p = fig2.problem
        ops.append(Op(f"fig2 capped at {fig2_cap} steps", "simulate-capped", _simulate_op(
            p, drd.default_start(p), drd.DrdConfig(step=fig2.drd_step, max_steps=fig2_cap),
            fig2.reference["allocation"], False)))
        for k, x in enumerate(gens):
            p = probs[f"rd{k}"]
            step = _STEP_QUAD if x["family"] == gen.QUAD else _STEP_EXP
            if x["large"]:
                # the step loop and select_final's graph.diameter as two ops
                cfg = drd.DrdConfig(step=step, max_steps=budget)
                w0, opt = _near_start(p, x["optimum"]), np.asarray(x["optimum"])
                ops.append(Op(f"{x['family']} n={x['n']} {budget} steps", "simulate-budget",
                              _simulate_op(p, w0, cfg, opt, False, select=False)))
                ops.append(Op(f"{x['family']} n={x['n']} select", "select-large",
                              _select_op(p, opt, w0)))
            else:
                cfg = drd.DrdConfig(step=step, max_steps=_TOL_STEP_CAP)
                ops.append(Op(f"{x['family']} n={x['n']} to tol", "simulate-tol",
                              _simulate_op(p, drd.default_start(p), cfg, x["optimum"], True)))
        a, b = (np.array(c) for c in PATH4A_CANDIDATES)
        ops.append(Op("path4a select (36, 40)", "select-path4a", _select_op(probs["path4a"], a, b)))
        ops.append(Op("path4a select (40, 36)", "select-path4a", _select_op(probs["path4a"], b, a)))
        return ops

    return Workload("replicator", pass_s=0.45, texts=texts, bundled=("fig2", "fig3"),
                    make_ops=make_ops)


# ---------------------------------------------------------------------------
# oracle

# Acceptance criterion 6 sets the 0.5 % gap at 10^6 samples, but a 10^6
# draw (8 s) is far too long an op (see _FIG2_CAP); the gap is checked at
# 2*10^3 samples instead, where on tab1/tab3 it stays below 1e-3 for
# seeds 1-20.
_MC_SAMPLES = 2_000
_HAR_SAMPLES = 500


def _solver_cost(p) -> float:
    res = lambda_solver.solve_lambda(p)
    return problem.total_cost(p, res.allocation)


def _mc_op(p, samples, seed, gap_limit=None, dump=None):
    def fn(tracer):
        solver = _solver_cost(p)
        t0 = time.perf_counter()
        mc = verify.monte_carlo_min(p, samples, seed, dump_path=dump)
        mc_s = time.perf_counter() - t0
        fails = []
        if solver > mc.best_cost + _rel_slack(solver):
            fails.append("solver_beaten")
        if gap_limit is not None and (mc.best_cost - solver) / abs(solver) > gap_limit:
            fails.append("oracle_gap")
        if dump is not None:
            with open(dump, "rb") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != samples:
                fails.append("dump_rows")
            dump.unlink()
        return fails, {"mc_s": mc_s, "mc_samples": mc.samples}

    return fn


def _grid_op(p, divisions):
    def fn(tracer):
        solver = _solver_cost(p)
        width = float((p.upper_bounds - p.lower_bounds).max())
        t0 = time.perf_counter()
        gr = verify.grid_min(p, width / divisions)
        grid_s = time.perf_counter() - t0
        fails = ["solver_beaten"] if solver > gr.best_cost + _rel_slack(solver) else []
        return fails, {"grid_s": grid_s}

    return fn


def oracle(seed: int, smoke: bool) -> Workload:
    scale = 100 if smoke else 1
    gens = gen.oracle_inputs(seed)

    def make_ops(probs, workdir):
        tab1, tab3 = probs["tab1"].problem, probs["tab3"].problem
        gap = None if smoke else 0.005  # the 0.5 % gap of criterion 6
        div = 30 if smoke else 300  # the CLI's automatic resolution: width/300
        return [
            Op("mc tab1", "mc", _mc_op(tab1, _MC_SAMPLES // scale, seed, gap)),
            Op("mc tab3", "mc", _mc_op(tab3, _MC_SAMPLES // scale, seed, gap)),
            Op("mc thin8 (hit-and-run)", "mc", _mc_op(probs["thin8"], _HAR_SAMPLES // scale, seed)),
            Op("grid tab1", "grid", _grid_op(tab1, div)),
            Op("grid tab3", "grid", _grid_op(tab3, div)),
            Op("grid gen4", "grid", _grid_op(probs["grid4"], div)),
            Op("mc tab3 dump", "mc-dump", _mc_op(tab3, _MC_SAMPLES // scale, seed,
                                                 dump=workdir / "oracle_dump.csv")),
        ]

    return Workload("oracle", pass_s=0.2, texts=dict(gens), bundled=("tab1", "tab3"),
                    make_ops=make_ops)


# ---------------------------------------------------------------------------
# cli

# 10^6 samples with --dump-oracle would write ~70 MB per verify and take
# 8 s, far too long an op (see _FIG2_CAP); the oracle workload covers the
# sampler, so verify runs at 2*10^3 here. For the same reason simulate
# runs fig3 at a coarser --dt (_FIG3_DT_SCALE), and reproduce, which has
# no such flag and takes 0.6 s on fig3, runs on tab1 and tab3 only.
_CLI_SAMPLES = 2_000
_CLI_N = 100
_EXPECT = {
    "solve": "kkt certificate: PASSED",
    "simulate": "converged: True",
    "verify": "verdict: VERIFIED",
    "reproduce": "result: PASS",
}


def _kkt_reason(report: str) -> str:
    """Classify a failed certificate in a solve report like check_solution."""
    fields = {}
    for line in report.splitlines():
        key, _, value = line.strip().partition(": ")
        if key in ("level", "stationarity residual", "smallest multiplier"):
            fields[key] = float(value)
    scale = 1e-9 * max(1.0, abs(fields["level"]))
    rel_ok = fields["stationarity residual"] <= scale and fields["smallest multiplier"] >= -scale
    return "kkt_abs_tol" if rel_ok else "kkt"


def _cli_op(argv, out_dir: Path):
    sub = argv[0]

    def fn(tracer):
        out_dir.mkdir(parents=True, exist_ok=True)
        buf, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{sub}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = cli.main([*argv, "--out", str(out_dir)])
        cli_s = time.perf_counter() - t0
        report = buf.getvalue()
        if rc != 0 and tracer:
            tracer.count(f"cli.errors.Exit{rc}")
        if sub == "solve" and rc == 5 and "kkt certificate: FAILED" in report:
            fails = [_kkt_reason(report)]
        else:
            fails = [f"exit{rc}"] if rc != 0 else []
            if _EXPECT[sub] not in report:
                fails.append(f"no '{_EXPECT[sub]}'")
        if sub == "simulate" and not (out_dir / "trajectory.csv").is_file():
            fails.append("no trajectory.csv")
        report_bytes = sum(f.stat().st_size for f in out_dir.glob("*.txt"))
        if tracer:
            tracer.count("cli.report_bytes", report_bytes)
        shutil.rmtree(out_dir)
        return fails, {f"cli_{sub}_s": cli_s}

    return fn


def cli_workload(seed: int, smoke: bool) -> Workload:
    samples = str(_CLI_SAMPLES // (100 if smoke else 1))
    text = gen.cli_input(seed, 30 if smoke else _CLI_N)

    def make_ops(probs, workdir):
        mc = ["--samples", samples, "--seed", str(seed)]
        runs = [
            ["solve", "--example", "tab1"],
            ["solve", "--example", "tab3"],
            ["solve", "--input", str(workdir / "generated.json")],
            ["simulate", "--example", "fig3", "--dt", repr(_FIG3_DT_SCALE * probs["fig3"].drd_step)],
            ["verify", "--example", "tab1", *mc],
            ["verify", "--example", "tab3", *mc, "--dump-oracle"],
            ["reproduce", "--example", "tab1"],
            ["reproduce", "--example", "tab3"],
        ]
        return [
            Op(" ".join(argv[:3]), f"cli-{argv[0]}", _cli_op(argv, workdir / f"out{k}"))
            for k, argv in enumerate(runs)
        ]

    return Workload(
        "cli",
        pass_s=0.22,
        texts={"generated": text},
        bundled=("tab1", "tab3", "fig3"),
        files={"generated.json": text},
        make_ops=make_ops,
    )


WORKLOADS = {
    "waterfill": waterfill,
    "replicator": replicator,
    "oracle": oracle,
    "cli": cli_workload,
}
