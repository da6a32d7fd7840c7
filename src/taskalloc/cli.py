"""Command-line interface.

Subcommands: solve (water-filling + certificate), simulate (replicator
dynamics trace), verify (solver vs brute-force oracles), reproduce
(bundled instances checked against their known solutions).

`main` is the one run frame: it parses with the parser built once per
process, loads the input, makes ``--out``, calls ``_run_<command>``
(looked up by name on each call) for its report's name, body and verdict,
writes the report (a header of command, instance, agents, families and
total above the body) a line or a slice of rows at a time as it formats
it, then copies the finished file to stdout. Exit codes: 0 success/verified,
2 parse or config problem, 3 infeasible, 4 numerical failure, 5 mismatch.
A raised error takes its slug and code from its class in `errors`; a
ValueError is ``config`` and an OSError ``io``. Every failure, argparse's
usage errors included, prints ``error-code: <slug> exit=<n>`` on stderr
before the message; a failed verdict (a FAILED certificate, MISMATCH,
FAIL or no convergence) prints them after its report. Reports carry no
timestamps, so identical runs produce byte-identical files.
"""

import argparse
import functools
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from . import drd, verify
from .errors import CostOverflowError, TaskAllocError
from .instances import get_instance, instance_ids
from .lambda_solver import _paper_table, breakpoints, solve_lambda
from .problem import _format_rows, in_feasible_set, load_problem, total_cost

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 4
EXIT_MISMATCH = 5
_STATUS = np.array(["interior", "upper", "lower"])  # by status 0, 1 and -1 (the last)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # costs beyond float range show as inf or nan, or exit 4 via _finite
        with np.errstate(over="ignore", invalid="ignore"):
            p, inst, label = _load(args)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            name, body, verdict = globals()[f"_run_{args.command}"](args, p, inst, out)
        parts = [
            f"command: {args.command}",
            f"instance: {label}",
            f"agents: {p.n}",
            f"families: {','.join(sorted(g.name for g in p._costs.groups))}",
            f"total: {_g(p.total)}",
            *body,
        ]
        with open(out / name, "w", encoding="utf-8") as fh:
            for part in parts:
                fh.writelines([part + "\n"] if isinstance(part, str) else part)
        with open(out / name, encoding="utf-8") as fh:
            shutil.copyfileobj(fh, sys.stdout)
    except TaskAllocError as exc:
        slug, code, msg = exc.slug, exc.exit_code, f"{exc} ({exc.hint})" if exc.hint else exc
    except ValueError as exc:
        # an option value the run rejects: --dt, --max-steps, --tol, --samples, --grid
        slug, code, msg = "config", EXIT_CONFIG, exc
    except OSError as exc:
        slug, code, msg = "io", EXIT_CONFIG, exc
    else:
        if verdict is None:
            return EXIT_OK
        slug, code, failed = verdict
        msg = f"{failed}; see {name}"
    print(f"error-code: {slug} exit={code}", file=sys.stderr)
    print(msg, file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a config error (subparsers use this class too)."""
        print(f"error-code: config exit={EXIT_CONFIG}", file=sys.stderr)
        super().error(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taskalloc",
        description="Box-constrained task allocation on agent graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        grp = sp.add_mutually_exclusive_group(required=True)
        grp.add_argument("--input", help="problem file (JSON)")
        grp.add_argument("--example", choices=instance_ids(), help="bundled instance id")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("solve", help="clamped optimum by Newton steps on the level")
    add_common(sp)

    sp = sub.add_parser("simulate", help="replicator-dynamics simulation trace")
    add_common(sp)
    sp.add_argument("--dt", type=float, help="discretization step")
    sp.add_argument("--max-steps", type=int, default=drd.DrdConfig.max_steps)
    sp.add_argument(
        "--tol", type=float, default=drd.DrdConfig.residual_tol, help="residual tolerance"
    )

    sp = sub.add_parser("verify", help="solver vs Monte Carlo / grid oracles")
    add_common(sp)
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid", type=float, help="grid resolution (auto when omitted)")
    sp.add_argument(
        "--dump-oracle", action="store_true", help="write oracle_samples.csv"
    )

    sp = sub.add_parser("reproduce", help="check a bundled instance's known solution")
    sp.add_argument(
        "--example", choices=instance_ids(), required=True, help="bundled instance id"
    )
    sp.add_argument("--out", default=".", help="output directory")
    return parser


def _load(args):
    """Return (problem, bundled_instance_or_None, the report's instance line)."""
    if args.example:
        inst = get_instance(args.example)
        if args.command == "reproduce":
            return inst.problem, inst, f"{inst.instance_id} ({inst.description})"
        return inst.problem, inst, inst.instance_id
    return load_problem(args.input), None, args.input


# ---------------------------------------------------------------------------
# solve


def _run_solve(args, p, inst, out):
    _, cert, lines = _solve(p)
    verdict = None if cert.passed else ("mismatch", EXIT_MISMATCH, "kkt certificate FAILED")
    return "solver_report.txt", lines + _cert_lines(cert), verdict


def _solve(p):
    """The run that solve and reproduce share: the breakpoint table (single
    family only), the solution and its certificate; returns (result, cert, parts)."""
    parts = []
    if p._costs.family is not None:
        tbl = breakpoints(p)
        row = "%3d %6d %6s %12.6f %14.6f "
        cols = np.arange(1, len(tbl.keys) + 1), tbl.agents + 1, tbl.kinds, tbl.keys, tbl.masses
        parts += [
            f"breakpoint coordinate: {tbl.coordinate}",
            f"{'j':>3} {'agent':>6} {'kind':>6} {'key':>12} {'m_j':>14} {'slope[j->j+1]':>15}",
            _format_rows(row + "%15.6e\n", *(c[:-1] for c in cols), tbl.slopes),
            row % tuple(c[-1] for c in cols) + " " * 15,  # the last slope is blank
        ]
    res = solve_lambda(p)
    cert = verify.kkt_check(p, res.allocation)
    parts += [
        f"method: {res.method}",
        f"bracket: {res.bracket + 1}",
        f"level key: {_g(res.key)}",
        f"lambda: {_g(res.lam)}",
        "allocation:",
        f"{'agent':>6} {'load':>20} {'status':>9}",
        _format_rows("%6d %20.12f %9s\n", np.arange(1, p.n + 1), res.allocation,
                     _STATUS[res.status]),
        f"sum of loads: {_g(res.allocation.sum())}",
        f"total cost: {_g(total_cost(p, res.allocation))}",
    ]
    return res, cert, parts


def _cert_lines(cert) -> list[str]:
    worst = min([*cert.alphas.values(), *cert.betas.values()], default=0.0)
    return [
        "kkt certificate: " + ("PASSED" if cert.passed else "FAILED"),
        f"  level: {_g(cert.lam)}",
        f"  stationarity residual: {_g(cert.stationarity_residual)}",
        f"  smallest multiplier: {_g(worst)}",
        *(f"  {name}: {((cert.status == s).nonzero()[0] + 1).tolist()}"
          for s, name in ((0, "interior"), (-1, "lower-active"), (1, "upper-active"))),
    ]


# ---------------------------------------------------------------------------
# simulate


def _run_simulate(args, p, inst, out):
    dt = args.dt if args.dt is not None else (inst.drd_step if inst else None)
    if dt is None:
        raise ValueError("--dt is required (the instance suggests none)")
    cfg = drd.DrdConfig(step=dt, max_steps=args.max_steps, residual_tol=args.tol)
    traj, lines = _simulate(p, cfg, out / "trajectory.csv")
    failed = ("not-converged", EXIT_NUMERICAL, f"no convergence in {traj.steps} steps")
    return "simulate_report.txt", lines, None if traj.converged else failed


def _simulate(p, cfg, trace: Path):
    """The run that simulate and reproduce share: the replicator from
    default_start, its trace written to `trace`. Returns (trajectory, lines)."""
    traj = drd.simulate(p, drd.default_start(p), cfg)
    drd.write_trace_csv(traj, p, trace)
    return traj, [
        f"dt: {_g(cfg.step)}",
        f"steps: {traj.steps}",
        f"converged: {traj.converged}",
        f"final residual: {_g(traj.residuals[-1])}",
        f"final cost: {_g(traj.costs[-1])}",
        "final allocation: " + " ".join(_g(x) for x in traj.final),
        f"inside feasible set: {in_feasible_set(p, traj.final)}",
        f"trace: {trace.name}",
    ]


# ---------------------------------------------------------------------------
# verify


def _auto_resolution(p) -> float:
    width = float((p.upper_bounds - p.lower_bounds).max())
    return width / 300.0 if width > 0 else 1.0


def _finite(cost: float, what: str) -> float:
    """A verdict needs finite costs: an overflow compares as a tie or a loss."""
    if not np.isfinite(cost):
        raise CostOverflowError(f"{what} cost is {cost}; the instance's costs overflow")
    return cost


def _run_verify(args, p, inst, out):
    res = solve_lambda(p)
    solver_cost = _finite(total_cost(p, res.allocation), "solver")
    cert = verify.kkt_check(p, res.allocation)

    def lagrangian(cost, x) -> float:
        # KKT and convexity give C(x) - lam * (sum x - w) >= C(w*) for every x
        # in the boxes; each point's offset from the plane is summed exactly,
        # the solver's as well as an oracle's, so rounding off it is no gain
        return cost + res.lam * math.fsum([p.total, *(-x).tolist()])

    solver_l = lagrangian(solver_cost, res.allocation) - 1e-9 * abs(solver_cost)

    def beaten(oracle) -> bool:
        return solver_l > lagrangian(oracle.best_cost, oracle.best)

    # the grid runs first, so a rejected --grid fails before any sampling
    grid_ok, grid_lines = True, []
    if p.n <= 4 or args.grid is not None:
        resolution = args.grid if args.grid is not None else _auto_resolution(p)
        gr = verify.grid_min(p, resolution)
        _finite(gr.best_cost, "grid")
        grid_ok = not beaten(gr)
        offset = float(np.abs(gr.best - res.allocation).max())
        grid_lines = [
            f"grid: resolution={_g(resolution)} points={gr.samples}",
            f"  best cost: {_g(gr.best_cost)}",
            f"  max |grid minimizer - solver|: {_g(offset)}",
            f"  solver not beaten: {grid_ok}",
        ]

    dump = out / "oracle_samples.csv" if args.dump_oracle else None
    mc = verify.monte_carlo_min(p, args.samples, args.seed, dump_path=dump)
    _finite(mc.best_cost, "monte carlo")
    mc_ok = not beaten(mc)
    mc_gap = (mc.best_cost - solver_cost) / abs(solver_cost) if solver_cost else np.nan

    lines = [
        f"solver cost: {_g(solver_cost)}",
        f"monte carlo: samples={mc.samples} seed={mc.seed}",
        f"  best cost: {_g(mc.best_cost)}  relative gap: {_g(mc_gap)}",
        f"  solver not beaten: {mc_ok}",
        *grid_lines,
        *_cert_lines(cert),
    ]
    ok = mc_ok and grid_ok and cert.passed
    lines.append("verdict: " + ("VERIFIED" if ok else "MISMATCH"))
    verdict = None if ok else ("mismatch", EXIT_MISMATCH, "verdict MISMATCH")
    return "verify_report.txt", lines, verdict


# ---------------------------------------------------------------------------
# reproduce


class _Checks:
    def __init__(self):
        self.lines: list[str] = []
        self.all_ok = True

    def add(self, name: str, expected: float, computed: float, tol: float):
        diff = abs(computed - expected)
        self.add_bool(
            f"{name}: expected={_g(expected)} computed={_g(computed)} |diff|={_g(diff)} "
            f"tol={_g(tol)}",
            diff <= tol,
        )

    def add_bool(self, name: str, ok: bool, detail: str = ""):
        self.all_ok &= ok
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        self.lines.append(f"[{tag}] {name}{suffix}")


def _run_reproduce(args, p, inst, out):
    checks = _Checks()
    if "decimals" in inst.reference:
        body = _reproduce_table_instance(p, inst, checks)
    else:
        body = _reproduce_simulation_instance(p, inst, checks, out)
    lines = [*body, *checks.lines, "result: " + ("PASS" if checks.all_ok else "FAIL")]
    verdict = None if checks.all_ok else ("mismatch", EXIT_MISMATCH, "result FAIL")
    return f"reproduce_{inst.instance_id}.txt", lines, verdict


def _reproduce_table_instance(p, inst, checks: _Checks) -> list[str]:
    ref = inst.reference
    res, cert, lines = _solve(p)
    kmin, kmax, masses, slopes = _paper_table(p, ref["decimals"])
    for i in range(p.n):
        for kind, key in (("lower", kmin[i]), ("upper", kmax[i])):
            checks.add(f"key {kind} agent {i + 1}", ref[f"keys_{kind}"][i], key, ref["key_tol"])
    for j, mass in enumerate(masses.tolist()):
        checks.add(f"m_{j + 1}", ref["masses"][j], mass, ref["mass_tol"])
    for j, slope in enumerate(slopes.tolist()):
        checks.add(f"slope {j + 1}->{j + 2}", ref["slopes"][j], slope, ref["slope_tol"])
    for i, load in enumerate(res.allocation.tolist()):
        checks.add(f"allocation agent {i + 1}", ref["allocation"][i], load, ref["allocation_tol"])
    checks.add("sum of loads", p.total, float(res.allocation.sum()), 1e-6)
    checks.add_bool("kkt certificate", cert.passed)
    return lines


def _reproduce_simulation_instance(p, inst, checks: _Checks, out: Path) -> list[str]:
    ref = inst.reference
    trace = out / f"trajectory_{inst.instance_id}.csv"
    traj, lines = _simulate(p, drd.DrdConfig(step=inst.drd_step), trace)
    checks.add_bool("converged", traj.converged, f"steps={traj.steps}")
    for i, load in enumerate(traj.final.tolist()):
        checks.add(f"limit agent {i + 1}", ref["allocation"][i], load, ref["allocation_tol"])
    costs = traj.costs
    monotone = bool(np.all(costs[1:] <= costs[:-1] + 1e-9 * np.abs(costs[:-1])))
    checks.add_bool("total cost nonincreasing", monotone)
    drift = float(np.abs(traj.states.sum(axis=1) - p.total).max())
    checks.add_bool("load sum conserved", drift < 1e-6 * p.total, f"max drift {_g(drift)}")
    return lines


def _g(x) -> str:
    return f"{float(x):.12g}"
