"""Frozen CLI outputs: byte-identical stdout and the same exit code."""

import json
from pathlib import Path

import pytest

from cwclifford.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_cli_output(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN / "inputs")
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / "expected" / f"{case['name']}.out").read_text()
