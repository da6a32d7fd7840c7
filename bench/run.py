"""Run one taskalloc benchmark workload and report its metrics.

Usage, from the repository root::

    python3 bench/run.py --workload waterfill --seed 1 --seconds 20 --trace 0

One process, one caller, closed loop: the workload's fixed list of
operations runs in order, each starting after the previous returned, and
the whole list ("a pass") repeats. The number of passes is
``round(--seconds / pass_s)`` for the workload's nominal pass time
``pass_s``, never a measured time, so ``attempted`` and ``failed`` are the
same on every run with the same seed and ``--seconds``. Every output is
checked.

Metrics (see BENCHMARK.json for the gated ones and their bounds):

* ``setup_s``: import of taskalloc (in a fresh interpreter, numpy
  already loaded) plus parsing every input, repeated several times
  between the passes; the median is reported.
* ``run_s``: wall time of one pass, each op taken at its fastest pass.
  Machine speed on a shared host drifts by 20 % or more over seconds, so
  the median pass time moved by that much between runs; each op's best of
  several interleaved repeats is far steadier. ``pass_s_median`` (the
  median pass wall time) is printed beside it.
* ``peak_rss_mb``: peak resident memory of this process.
* workload-specific metrics (solver latency percentiles, replicator
  steps/s, oracle samples/s, per-subcommand CLI time) and ``fail_frac``
  are printed and written to the results file.

With ``--trace 1`` the untraced passes are followed by one traced set-up
and one traced pass (see spans.py); the per-layer metrics come from that
pass, and ``trace.overhead_s`` is its wall time minus ``run_s``.

Every line but the last is for people. The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A results
file with provenance, every metric, failures by reason and (when traced)
spans and self times is written to bench/results/ unless ``--out`` says
otherwise.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_threads() -> dict:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc)
    return {var: os.environ[var] for var in _THREAD_VARS}


THREAD_PIN = _pin_threads()


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("waterfill", "replicator", "oracle", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal sizes, for the smoke test")
    ap.add_argument("--out", help="results file (default bench/results/<workload>-seed<n>-trace<t>.json)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "taskalloc" / "__init__.py").is_file():
        print(f"error: taskalloc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import spans as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix="tmp-") as tmp:
        workdir = Path(tmp)
        for rel, text in wl.files.items():
            (workdir / rel).write_text(text, encoding="utf-8")
        res = _measure(wl, workdir, args, workloads, tracing)
    res["provenance"] = _provenance(args)
    out = Path(args.out) if args.out else BENCH_DIR / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")

    for name, m in res["end_to_end"].items():
        extra = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{name}: {m['value']:.6g} {m['unit']}{extra}")
    for name, m in res.get("per_layer", {}).items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for reason, row in sorted(res["failures"].items()):
        tag = "known" if row["known"] else "UNEXPECTED"
        print(f"failed[{reason}] x{row['count']} ({tag}): {', '.join(row['ops'][:3])}")
    print(f"results: {out}")

    names = _gated_metric_names("per_layer" if args.trace else "end_to_end")
    src = res["per_layer"] if args.trace else res["end_to_end"]
    line = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": src[k]["value"], "unit": src[k]["unit"]} for k in names},
    }
    print(json.dumps(line))
    return 0


def _gated_metric_names(section: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[section]]


# ---------------------------------------------------------------------------
# measuring


def _import_seconds() -> float:
    """Time `import taskalloc` in a fresh interpreter that has loaded numpy.

    numpy's own import (~0.12 s, three quarters of the whole) is left out:
    no change to taskalloc moves it, and its file-system work made set-up
    time swing by a third between sets of runs on a busy host.
    """
    code = ("import time, numpy; t = time.perf_counter(); import taskalloc; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def pass_count(seconds: float, pass_s: float) -> int:
    return max(1, round(seconds / pass_s))


def _run_pass(ops, tracer=None) -> dict:
    """Run every op once, in order; record wall time, failures and stats."""
    records = []
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"op.{op.kind}"):
                    fails, stats = op.fn(tracer)
            else:
                fails, stats = op.fn(None)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            fails, stats = [f"raised {type(exc).__name__}: {exc}"[:200]], {}
        records.append({"op": op.name, "kind": op.kind, "s": time.perf_counter() - t0,
                        "failures": fails, "stats": stats})
    return {"wall_s": time.perf_counter() - t_pass, "ops": records}


def _measure(wl, workdir, args, workloads, tracing) -> dict:
    def set_up():
        imp = _import_seconds()
        t0 = time.perf_counter()
        probs = workloads.setup(wl)
        return probs, imp + time.perf_counter() - t0

    probs, first = set_up()
    setups = [first]
    ops = wl.make_ops(probs, workdir)
    repeats = 1 if args.smoke else SETUP_REPEATS
    count = 1 if args.smoke else pass_count(args.seconds, wl.pass_s)
    # the other set-ups are spread between the passes, so that their median
    # reflects the whole run rather than one stretch of machine speed
    every = max(1, count // repeats)
    passes = []
    for k in range(count):
        passes.append(_run_pass(ops))
        if len(setups) < repeats and (k + 1) % every == 0:
            setups.append(set_up()[1])
    while len(setups) < repeats:
        setups.append(set_up()[1])
    # each op's record from the pass in which it ran fastest
    best = [min((p["ops"][k] for p in passes), key=lambda r: r["s"]) for k in range(len(ops))]
    run_s = sum(r["s"] for r in best)
    e2e = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "run_s": {"value": run_s, "unit": "s", "samples": len(passes)},
        "pass_s_median": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s",
                          "samples": len(passes)},
    }
    e2e.update(_workload_metrics(passes, best, run_s))
    # read before the traced set-up adds a second copy of the inputs
    e2e["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"}

    all_passes = list(passes)
    res = {"workload": wl.name, "passes": len(passes), "ops_per_pass": len(ops)}
    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            with tracer.span("setup"):
                tprobs = workloads.setup(wl)
            tops = wl.make_ops(tprobs, workdir)
            with tracer.span("pass"):
                traced = _run_pass(tops, tracer)
        all_passes.append(traced)
        per_layer = {k: {"value": v, "unit": u} for k, (v, u) in tracing.per_layer_metrics(tracer).items()}
        per_layer["trace.overhead_s"] = {"value": traced["wall_s"] - run_s, "unit": "s"}
        res["per_layer"] = per_layer
        res["errors"] = {k: v for k, v in tracer.counts.items() if ".errors." in k}
        res["self_times"] = tracer.summary()
        res["spans"] = tracer.span_records()

    attempted = sum(len(p["ops"]) for p in all_passes)
    failures = {}
    failed = 0
    for p in all_passes:
        for rec in p["ops"]:
            failed += bool(rec["failures"])
            for reason in rec["failures"]:
                row = failures.setdefault(reason, {
                    "count": 0, "known": True, "ops": [],
                    "why": workloads.KNOWN_DEFECTS.get(reason, "")})
                row["count"] += 1
                row["known"] &= workloads.is_known(rec["kind"], reason)
                if rec["op"] not in row["ops"]:
                    row["ops"].append(rec["op"])
    e2e["fail_frac"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}
    res.update({
        "correct": all(row["known"] for row in failures.values()),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "failures": failures,
        "ops_best": best,
    })
    return res


def _workload_metrics(passes, best, run_s) -> dict:
    """Workload-specific end-to-end metrics. Latency percentiles use every
    op of every pass; the rest sum each op's fastest record (`best`)."""
    import numpy as np

    def total(key):
        return sum(r["stats"].get(key, 0) for r in best)

    out = {}
    solve = [r["stats"]["solve_s"] for p in passes for r in p["ops"] if "solve_s" in r["stats"]]
    if solve:
        out["solve_ms_p50"] = {"value": 1e3 * float(np.percentile(solve, 50)), "unit": "ms",
                               "samples": len(solve)}
        out["solve_ms_p90"] = {"value": 1e3 * float(np.percentile(solve, 90)), "unit": "ms",
                               "samples": len(solve)}
        out["solved_agents_per_s"] = {"value": total("agents") / run_s, "unit": "1/s"}
    if total("simulate_s"):
        out["steps_per_s"] = {"value": total("steps") / total("simulate_s"), "unit": "1/s"}
        out["time_to_tol_s"] = {"value": total("tol_simulate_s"), "unit": "s"}
    if total("mc_s"):
        out["oracle_samples_per_s"] = {"value": total("mc_samples") / total("mc_s"), "unit": "1/s"}
    for sub in ("solve", "simulate", "verify", "reproduce"):
        if total(f"cli_{sub}_s"):
            out[f"cli_{sub}_s"] = {"value": total(f"cli_{sub}_s"), "unit": "s"}
    return out


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Data/unified cache size per level of one core, e.g. {"L2": "2048K"}."""
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (d / "type").read_text().strip() != "Instruction":
                out[f"L{(d / 'level').read_text().strip()}"] = (d / "size").read_text().strip()
        except OSError:
            continue
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def _provenance(args) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_pin": THREAD_PIN,
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "load": "closed loop, one process, one caller",
    }


if __name__ == "__main__":
    sys.exit(main())
