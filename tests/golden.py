"""Golden corpus of CLI runs: every report, file and exit code, byte for byte.

Each case is one ``taskalloc`` command line, run through ``cli.main`` from
the repository root (reports print ``--input`` as given). Its directory
``tests/data/golden/<case>/`` holds ``stdout.txt``, ``stderr.txt``,
``exit_code.txt`` and every file the run wrote to ``--out``.
``tests/test_golden.py`` reruns each case and compares the bytes.

    PYTHONPATH=src python tests/golden.py --update   # rewrite the corpus

A report change made on purpose then shows as a diff of golden files.
The exponential instances (fig2, tab1) print digits of numpy's ``exp``,
whose last bit may differ between CPUs; the quadratic cases do not.
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

from taskalloc.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "golden"

_ORACLE = ["--samples", "200", "--seed", "0", "--dump-oracle"]
CASES = {
    **{f"solve-{x}": ["solve", "--example", x] for x in ("fig2", "fig3", "tab1", "tab3")},
    **{f"verify-{x}": ["verify", "--example", x, *_ORACLE] for x in ("fig2", "fig3", "tab1", "tab3")},
    **{f"reproduce-{x}": ["reproduce", "--example", x] for x in ("tab1", "tab3")},
    "simulate-fig3": ["simulate", "--example", "fig3", "--dt", "0.032"],
    "simulate-fig2-step-cap": ["simulate", "--example", "fig2", "--max-steps", "3000"],
    "simulate-fig3-overflow": ["simulate", "--example", "fig3", "--dt", "1e6"],
    **{f"verify-{x}": ["verify", "--input", f"tests/data/{x}.json", *_ORACLE]
       for x in ("thin5", "flat2", "overflow2")},
    # every agent at lower; two interior and a pinned one at upper
    **{f"solve-{x}": ["solve", "--input", f"tests/data/{x}.json"] for x in ("boundsum3", "pinned3")},
}


def run(case: str, out: Path) -> dict[str, bytes]:
    """Run a case into the empty directory `out` from the current directory
    and return its files by name, the three stream files included."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([*CASES[case], "--out", str(out)])
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    files["stdout.txt"] = stdout.getvalue().encode()
    files["stderr.txt"] = stderr.getvalue().encode()
    files["exit_code.txt"] = f"{rc}\n".encode()
    return files


def read(case: str) -> dict[str, bytes]:
    """The committed files of a case by name."""
    return {f.name: f.read_bytes() for f in sorted((CORPUS / case).iterdir())}


def update() -> None:
    """Rewrite the corpus from runs of the current code."""
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out = Path(tmp) / case
            out.mkdir()
            files = run(case, out)
            shutil.rmtree(CORPUS / case, ignore_errors=True)
            (CORPUS / case).mkdir(parents=True)
            for name, data in files.items():
                (CORPUS / case / name).write_bytes(data)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/golden.py --update")
    update()
