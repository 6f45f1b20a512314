"""Byte-for-byte golden output of the CLI.

`verify-example 1..3` must reproduce the benchmark's references in
perfbench/refs/ (read here, never written).  The symbol-table and
branch-series runs below must reproduce tests/golden/, recorded before
the twisted symbols were moved onto rows.
"""

import json
from pathlib import Path

import pytest

from iwrank.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFS = ROOT / "perfbench" / "refs"
GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "modsym-table_11.2.a.a_p5_quad-23": ["modsym-table", "--newform", "11.2.a.a",
                                         "--prime", "5", "--char", "quad-23"],
    "padic-l_11.2.a.a_p5_quad-23": ["padic-l", "--newform", "11.2.a.a",
                                    "--prime", "5", "--char", "quad-23"],
    "modsym-table_19.2.a.a_p5": ["modsym-table", "--newform", "19.2.a.a",
                                 "--prime", "5"],
}


@pytest.mark.parametrize("number", [1, 2, 3])
def test_verify_example_matches_reference(number, tmp_path):
    out = tmp_path / "report.jsonl"
    rc = main(["verify-example", str(number), "--out", str(out)])
    codes = json.loads((REFS / "exit_codes.json").read_text())
    assert rc == codes[f"verify/{number}"]
    assert out.read_bytes() == (REFS / "verify" / f"{number}.jsonl").read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_matches_golden(name, tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(RUNS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes()
