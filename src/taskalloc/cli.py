"""Command-line interface.

Subcommands: solve (water-filling + certificate), simulate (replicator
dynamics trace), verify (solver vs brute-force oracles), reproduce
(bundled instances checked against their known solutions).

Exit codes: 0 success/verified, 2 parse or configuration problem,
3 infeasible instance, 4 numerical failure (step overflow, starved
sampler, a cost beyond float range), 5 verification mismatch. Every
failure prints a machine-parsable line ``error-code: <slug> exit=<n>``
on stderr before the human-readable message. Reports carry no
timestamps, so identical runs produce byte-identical files.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import drd, verify
from .errors import (
    CostOverflowError,
    DimensionTooLargeError,
    EmptyGridError,
    InfeasibleError,
    NonpositiveLambdaError,
    ParseError,
    SamplerStarvedError,
    StepOverflowError,
    UnknownExampleError,
)
from .instances import get_instance, instance_ids
from .lambda_solver import breakpoints, solve_lambda
from .problem import in_feasible_set, load_problem, total_cost

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_MISMATCH = 5


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail("parse", EXIT_CONFIG, exc)
    except UnknownExampleError as exc:
        return _fail("unknown-example", EXIT_CONFIG, exc)
    except (ValueError, DimensionTooLargeError, EmptyGridError) as exc:
        # option values the run configuration rejects: --dt, --max-steps,
        # --tol, --samples, --grid (also a grid with no feasible point)
        return _fail("config", EXIT_CONFIG, exc)
    except InfeasibleError as exc:
        return _fail("infeasible", EXIT_INFEASIBLE, exc)
    except StepOverflowError as exc:
        return _fail("step-overflow", EXIT_NUMERICAL, exc, hint="try halving --dt")
    except (SamplerStarvedError, NonpositiveLambdaError, CostOverflowError) as exc:
        return _fail("numerical", EXIT_NUMERICAL, exc)
    except OSError as exc:
        return _fail("io", EXIT_CONFIG, exc)


def _fail(slug: str, code: int, exc: Exception, hint: str | None = None) -> int:
    print(f"error-code: {slug} exit={code}", file=sys.stderr)
    msg = str(exc)
    if hint:
        msg += f" ({hint})"
    print(msg, file=sys.stderr)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskalloc",
        description="Box-constrained task allocation on agent graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, needs_instance=True):
        if needs_instance:
            grp = sp.add_mutually_exclusive_group(required=True)
            grp.add_argument("--input", help="problem file (JSON)")
            grp.add_argument(
                "--example", choices=instance_ids(), help="bundled instance id"
            )
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("solve", help="clamped optimum via breakpoint interpolation")
    add_common(sp)
    sp.set_defaults(func=_run_solve)

    sp = sub.add_parser("simulate", help="replicator-dynamics simulation trace")
    add_common(sp)
    sp.add_argument("--dt", type=float, help="discretization step")
    sp.add_argument("--max-steps", type=int, default=10_000_000)
    sp.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    sp.set_defaults(func=_run_simulate)

    sp = sub.add_parser("verify", help="solver vs Monte Carlo / grid oracles")
    add_common(sp)
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid", type=float, help="grid resolution (auto when omitted)")
    sp.add_argument(
        "--dump-oracle", action="store_true", help="write oracle_samples.csv"
    )
    sp.set_defaults(func=_run_verify)

    sp = sub.add_parser("reproduce", help="check a bundled instance's known solution")
    sp.add_argument(
        "--example", choices=instance_ids(), required=True, help="bundled instance id"
    )
    sp.add_argument("--out", default=".", help="output directory")
    sp.set_defaults(func=_run_reproduce)
    return parser


def _load(args):
    """Return (problem, bundled_instance_or_None, label)."""
    if getattr(args, "example", None):
        inst = get_instance(args.example)
        return inst.problem, inst, inst.instance_id
    p = load_problem(args.input)
    return p, None, args.input


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(out: Path, name: str, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    (out / name).write_text(text, encoding="utf-8")
    print(text, end="")


# ---------------------------------------------------------------------------
# solve


def _run_solve(args) -> int:
    p, inst, label = _load(args)
    out = _out_dir(args)
    res = solve_lambda(p)
    cert = verify.kkt_check(p, res.allocation)

    lines = ["command: solve", f"instance: {label}", *_instance_lines(p)]
    decimals = inst.table_decimals if inst else None
    if len(_families(p)) == 1 or decimals is not None:
        lines += _table_lines(p, decimals)
    lines += _solution_lines(p, res)
    lines += _cert_lines(cert)
    _emit(out, "solver_report.txt", lines)
    return EXIT_OK if cert.passed else EXIT_MISMATCH


def _families(p) -> list[str]:
    return sorted({a.family for a in p.agents})


def _instance_lines(p) -> list[str]:
    return [
        f"agents: {p.n}",
        f"families: {','.join(_families(p))}",
        f"total: {_g(p.total)}",
    ]


def _table_lines(p, decimals) -> list[str]:
    tbl = breakpoints(p, key_decimals=decimals)
    quant = f" (keys quantized to {decimals} decimals)" if decimals is not None else ""
    lines = [
        f"breakpoint coordinate: {tbl.coordinate}{quant}",
        f"{'j':>3} {'agent':>6} {'kind':>6} {'key':>12} {'m_j':>14} {'slope[j->j+1]':>15}",
    ]
    for j, bp in enumerate(tbl.breakpoints):
        slope = f"{tbl.slopes[j]:.6e}" if j < len(tbl.slopes) else ""
        lines.append(
            f"{j + 1:>3} {bp.agent + 1:>6} {bp.kind:>6} {tbl.keys[j]:>12.6f} "
            f"{tbl.masses[j]:>14.6f} {slope:>15}"
        )
    return lines


def _solution_lines(p, res) -> list[str]:
    status = {}
    for i in res.interior:
        status[i] = "interior"
    for i in res.active_lower:
        status[i] = "lower"
    for i in res.active_upper:
        status[i] = "upper"
    lines = [
        f"method: {res.method}",
        f"bracket: {res.bracket + 1}",
        f"level key: {_g(res.key)}",
        f"lambda: {_g(res.lam)}",
        "allocation:",
        f"{'agent':>6} {'load':>20} {'status':>9}",
    ]
    for i in range(p.n):
        lines.append(f"{i + 1:>6} {res.allocation[i]:>20.12f} {status[i]:>9}")
    lines.append(f"sum of loads: {_g(res.allocation.sum())}")
    lines.append(f"total cost: {_g(total_cost(p, res.allocation))}")
    return lines


def _cert_lines(cert) -> list[str]:
    worst = min(
        [v for v in cert.alphas.values()] + [v for v in cert.betas.values()],
        default=0.0,
    )
    return [
        "kkt certificate: " + ("PASSED" if cert.passed else "FAILED"),
        f"  level: {_g(cert.lam)}",
        f"  stationarity residual: {_g(cert.stationarity_residual)}",
        f"  smallest multiplier: {_g(worst)}",
        f"  interior: {[i + 1 for i in cert.interior]}",
        f"  lower-active: {[i + 1 for i in cert.lower_active]}",
        f"  upper-active: {[i + 1 for i in cert.upper_active]}",
    ]


# ---------------------------------------------------------------------------
# simulate


def _run_simulate(args) -> int:
    p, inst, label = _load(args)
    out = _out_dir(args)
    dt = args.dt if args.dt is not None else (inst.drd_step if inst else None)
    if dt is None:
        raise ParseError("--dt is required (the instance suggests none)")
    cfg = drd.DrdConfig(step=dt, max_steps=args.max_steps, residual_tol=args.tol)
    w0 = drd.default_start(p)
    traj = drd.simulate(p, w0, cfg)
    drd.write_trace_csv(traj, p, out / "trajectory.csv")

    final = traj.final
    lines = [
        "command: simulate",
        f"instance: {label}",
        *_instance_lines(p),
        f"dt: {_g(dt)}",
        f"steps: {traj.steps}",
        f"converged: {traj.converged}",
        f"final residual: {_g(traj.residuals[-1])}",
        f"final cost: {_g(traj.costs[-1])}",
        "final allocation: " + " ".join(_g(x) for x in final),
        f"inside feasible set: {in_feasible_set(p, final)}",
        "trace: trajectory.csv",
    ]
    _emit(out, "simulate_report.txt", lines)
    return EXIT_OK if traj.converged else EXIT_NUMERICAL


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


def _run_verify(args) -> int:
    p, inst, label = _load(args)
    out = _out_dir(args)
    res = solve_lambda(p)
    solver_cost = _finite(total_cost(p, res.allocation), "solver")
    cert = verify.kkt_check(p, res.allocation)

    slack = 1e-9 * max(1.0, abs(solver_cost))
    # the grid runs first, so a rejected --grid fails before any sampling
    grid_ok = True
    grid_lines = []
    if p.n <= 4:
        resolution = args.grid if args.grid is not None else _auto_resolution(p)
        gr = verify.grid_min(p, resolution)
        _finite(gr.best_cost, "grid")
        grid_ok = solver_cost <= gr.best_cost + slack
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
    mc_ok = solver_cost <= mc.best_cost + slack
    mc_gap = (mc.best_cost - solver_cost) / abs(solver_cost)

    lines = [
        "command: verify",
        f"instance: {label}",
        *_instance_lines(p),
        f"solver cost: {_g(solver_cost)}",
        f"monte carlo: samples={mc.samples} seed={mc.seed}",
        f"  best cost: {_g(mc.best_cost)}  relative gap: {_g(mc_gap)}",
        f"  solver not beaten: {mc_ok}",
        *grid_lines,
        *_cert_lines(cert),
    ]
    ok = mc_ok and grid_ok and cert.passed
    lines.append("verdict: " + ("VERIFIED" if ok else "MISMATCH"))
    _emit(out, "verify_report.txt", lines)
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# reproduce


class _Checks:
    def __init__(self):
        self.lines: list[str] = []
        self.all_ok = True

    def add(self, name: str, expected: float, computed: float, tol: float):
        ok = abs(computed - expected) <= tol
        self.all_ok &= ok
        tag = "PASS" if ok else "FAIL"
        self.lines.append(
            f"[{tag}] {name}: expected={_g(expected)} computed={_g(computed)} "
            f"|diff|={_g(abs(computed - expected))} tol={_g(tol)}"
        )

    def add_bool(self, name: str, ok: bool, detail: str = ""):
        self.all_ok &= ok
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        self.lines.append(f"[{tag}] {name}{suffix}")


def _run_reproduce(args) -> int:
    inst = get_instance(args.example)
    out = _out_dir(args)
    if inst.table_decimals is not None:
        lines, ok = _reproduce_table_instance(inst, out)
    else:
        lines, ok = _reproduce_simulation_instance(inst, out)
    _emit(out, f"reproduce_{inst.instance_id}.txt", lines)
    return EXIT_OK if ok else EXIT_MISMATCH


def _reproduce_table_instance(inst, out: Path):
    p = inst.problem
    ref = inst.reference
    checks = _Checks()

    tbl = breakpoints(p, key_decimals=inst.table_decimals)
    per_agent = {(bp.agent, bp.kind): bp.key for bp in tbl.breakpoints}
    for i in range(p.n):
        checks.add(
            f"key lower agent {i + 1}",
            ref["keys_lower"][i],
            per_agent[(i, "lower")],
            ref["key_tol"],
        )
        checks.add(
            f"key upper agent {i + 1}",
            ref["keys_upper"][i],
            per_agent[(i, "upper")],
            ref["key_tol"],
        )
    for j in range(2 * p.n):
        checks.add(f"m_{j + 1}", ref["masses"][j], float(tbl.masses[j]), ref["mass_tol"])
    for j in range(2 * p.n - 1):
        checks.add(
            f"slope {j + 1}->{j + 2}",
            ref["slopes"][j],
            float(tbl.slopes[j]),
            ref["slope_tol"],
        )

    res = solve_lambda(p)
    for i in range(p.n):
        checks.add(
            f"allocation agent {i + 1}",
            float(ref["allocation"][i]),
            float(res.allocation[i]),
            ref["allocation_tol"],
        )
    checks.add("sum of loads", p.total, float(res.allocation.sum()), 1e-6)
    cert = verify.kkt_check(p, res.allocation)
    checks.add_bool("kkt certificate", cert.passed)

    lines = [
        "command: reproduce",
        f"instance: {inst.instance_id} ({inst.description})",
        *_instance_lines(p),
        *_table_lines(p, inst.table_decimals),
        *_solution_lines(p, res),
        *checks.lines,
        "result: " + ("PASS" if checks.all_ok else "FAIL"),
    ]
    return lines, checks.all_ok


def _reproduce_simulation_instance(inst, out: Path):
    p = inst.problem
    ref = inst.reference
    expected = np.asarray(ref["allocation"], dtype=float)
    checks = _Checks()

    cfg = drd.DrdConfig(step=inst.drd_step)
    traj = drd.simulate(p, drd.default_start(p), cfg, reference=expected)
    drd.write_trace_csv(traj, p, out / f"trajectory_{inst.instance_id}.csv")

    checks.add_bool("converged", traj.converged, f"steps={traj.steps}")
    for i in range(p.n):
        checks.add(
            f"limit agent {i + 1}",
            float(expected[i]),
            float(traj.final[i]),
            float(ref["allocation_tol"]),
        )
    costs = traj.costs
    monotone = bool(np.all(costs[1:] <= costs[:-1] + 1e-9 * np.abs(costs[:-1])))
    checks.add_bool("total cost nonincreasing", monotone)
    drift = float(np.abs(traj.states.sum(axis=1) - p.total).max())
    checks.add_bool(
        "load sum conserved", drift < 1e-6 * p.total, f"max drift {_g(drift)}"
    )

    lines = [
        "command: reproduce",
        f"instance: {inst.instance_id} ({inst.description})",
        *_instance_lines(p),
        f"dt: {_g(inst.drd_step)}",
        f"steps: {traj.steps}",
        "final allocation: " + " ".join(_g(x) for x in traj.final),
        f"trace: trajectory_{inst.instance_id}.csv",
        *checks.lines,
        "result: " + ("PASS" if checks.all_ok else "FAIL"),
    ]
    return lines, checks.all_ok


def _g(x) -> str:
    return f"{float(x):.12g}"


if __name__ == "__main__":
    sys.exit(main())
