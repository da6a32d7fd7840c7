"""Smoke checks for the benchmark harness, at minimal sizes.

Run from the repository root::

    python3 -m pytest -q bench/test_smoke.py

Not part of the tier-1 suite (pytest's testpaths is ``tests``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Printed and written for one workload each; not gated in BENCHMARK.json.
WORKLOAD_METRICS = {
    "waterfill": {"solve_ms_p50": "ms", "solve_ms_p90": "ms", "solved_agents_per_s": "1/s"},
    "replicator": {"steps_per_s": "1/s", "time_to_tol_s": "s"},
    "oracle": {"oracle_samples_per_s": "1/s"},
    "cli": {"cli_solve_s": "s", "cli_simulate_s": "s", "cli_verify_s": "s", "cli_reproduce_s": "s"},
}
# Counts that must repeat exactly for the same seed.
EXACT_COUNTS = (
    "costs.scalar_calls",
    "drd.steps",
    "verify.mc_samples",
    "verify.grid_points",
    "graph.adjacency_bytes",
)


def _run(workload, trace, out, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload):
    out = BENCH_DIR / "results" / f"smoke-{workload}.json"
    first = _run(workload, 1, out)
    assert first.returncode == 0, first.stderr
    last = json.loads(first.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == per_layer

    res = json.loads(out.read_text(encoding="utf-8"))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    expected.update(fail_frac="ratio", **WORKLOAD_METRICS[workload])
    for name, unit in expected.items():
        assert res["end_to_end"][name]["unit"] == unit, name
        if name != "fail_frac":
            assert res["end_to_end"][name]["value"] > 0, name
    for key in ("nproc", "cpu_model", "python", "numpy", "blas_thread_pin", "seed"):
        assert key in res["provenance"]
    assert res["spans"] and res["self_times"]

    again = _run(workload, 1, out)
    assert again.returncode == 0, again.stderr
    repeat = json.loads(again.stdout.strip().splitlines()[-1])["metrics"]
    for name in EXACT_COUNTS:
        assert repeat[name]["value"] == last["metrics"][name]["value"], name


def test_untraced_line_has_end_to_end_metrics():
    proc = _run("cli", 0, BENCH_DIR / "results" / "smoke-cli-untraced.json")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "tmp-*"))
    proc = _run("waterfill", 0, tmp_path / "r.json", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
