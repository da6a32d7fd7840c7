"""Every CLI case in the golden corpus gives the committed bytes.

The corpus is ``tests/data/golden/``; ``tests/golden.py --update``
rewrites it (see that module for the cases).
"""

import pytest

import golden


@pytest.mark.parametrize("case", list(golden.CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(golden.ROOT)
    got = golden.run(case, tmp_path)
    want = golden.read(case)
    assert sorted(got) == sorted(want)
    for name, data in want.items():
        assert got[name] == data, f"{case}/{name} differs from the golden bytes"
