"""Steadiness check: repeat benchmark runs over seeds and report spreads.

Usage, from the repository root::

    python3 bench/steady.py --workload oracle --seeds 1-10
    python3 bench/steady.py --workload cli --seeds 11-20 --against earlier/

Runs ``bench/run.py`` once per seed (one after another, never in
parallel) and reports, for every end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median. For the metrics gated in BENCHMARK.json it also
prints the bound and whether the spread stays below a third of it, the
margin used when setting the bounds. ``--against DIR`` compares medians
with the summaries of an earlier set (DIR/steady-<workload>.json), as a
second set of runs of the same code must agree within each metric's
bound, and the same seeds must fail the same number of ops. The summary
is written to bench/results/steady-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_seeds(workload: str, seeds, seconds: int) -> list[dict]:
    results = []
    for seed in seeds:
        out = BENCH_DIR / "results" / "steady" / f"{workload}-seed{seed}.json"
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        res = json.loads(out.read_text(encoding="utf-8"))
        print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} run_s={res['end_to_end']['run_s']['value']:.4g}", flush=True)
        results.append(res)
    return results


def summarize(results: list[dict]) -> dict:
    names = results[0]["end_to_end"]
    out = {"ops": {"attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results)}}
    for name in names:
        vals = [r["end_to_end"][name]["value"] for r in results if name in r["end_to_end"]]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        out[name] = {
            "unit": results[0]["end_to_end"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": vals,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--against", help="directory of earlier summaries to compare medians with")
    args = ap.parse_args(argv)
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for wl in args.workload:
        prev_file = Path(args.against) / f"steady-{wl}.json" if args.against else None
        earlier = json.loads(prev_file.read_text()) if prev_file and prev_file.is_file() else {}
        summary = summarize(run_seeds(wl, _seeds(args.seeds), seconds))
        ops = summary.pop("ops")
        line = f"{wl}: failed {ops['failed']} of {ops['attempted']} ops"
        prev_ops = earlier.get(wl, {}).get("ops")
        if prev_ops:
            # the same seeds must fail the same ops: the pass count is fixed
            same = prev_ops == ops
            line += f"; earlier {prev_ops['failed']} of {prev_ops['attempted']}" + (
                "" if same else " DIFFERENT")
            ok &= same
        print(line)
        print(f"\n{wl}: {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound  verdict")
        for name, s in summary.items():
            spread = s["spread"]
            line = (f"{wl}: {name:<22} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                    f"{spread if spread is not None else float('nan'):>8.4f}")
            if name in bounds:
                verdict = "steady" if name == "setup_s" or spread < bounds[name] / 3 else "SPREAD"
                prev = earlier.get(wl, {}).get(name)
                if prev:
                    change = s["median"] / prev["median"] - 1.0
                    verdict += f", median {change:+.3f} vs earlier"
                    if change > bounds[name]:
                        verdict += " WORSE"
                        ok = False
                ok &= not verdict.startswith("SPREAD")
                line += f"  {bounds[name]:.3f}  {verdict}"
            print(line)
        path = BENCH_DIR / "results" / f"steady-{wl}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({wl: {**summary, "ops": ops}}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"summary: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
