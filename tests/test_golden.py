"""Byte-for-byte golden output of the CLI and of the Gauss-sum pool.

`verify-example 1..3` must reproduce the benchmark's references in
perfbench/refs/ (read here, never written), and so must the Gauss sums
of the benchmark's pool: the repr of g(chi) g(chibar) for each of its
characters, and the factorisation g(chi psi) = chi(q) psi(m) g(chi)
g(psi) for each of its pairs of coprime moduli m, q.  The symbol-table and
branch-series runs below must reproduce tests/golden/, recorded before
the twisted symbols were moved onto rows.  The help, usage-error,
Eisenstein and congruence runs must reproduce their stdout, stderr and
exit code in tests/golden/, recorded at COLUMNS=80 before the parser,
the newform ingestion and the Bernoulli sums were rewritten; the
`padic-l` and `iwasawa` runs among them were recorded before the p-adic
scalars moved onto one-term integer series, and the wrap-around, twist,
missing-probe and failed-pattern runs before `verify-example` and the
symbol commands came to share one symbol pair and branch family.  The
two runs twisting 52.2.a.a by a character of conductor 4 were recorded
after that change: they ended in a traceback before it.  The `iwasawa`
runs at negative and positive mu, at lambda = 1, at a unit and with too
many coefficients were recorded before mu, lambda and the residual ideal
came to be read straight off the integer series; the `padic-l` run at
p = 601, beyond the stored coefficients, was recorded after that change,
as it ended in a traceback before it.  The `padic-l` runs at wild orders
625 to 3125 (with and without two sigma0 factors, and at 16 digits) and
the run refused for a sigma0 factor of negative valuation were recorded
before the branch series came to be kept as group masses.  The
`eisenstein` runs at weights 0 and -1 were recorded after weights below
1 came to be refused, the two with a trivial phi once that refusal came
before any L-value.  The `padic-l` run on 23.2.a was re-recorded once its
refusal came to name the form's Hecke field.  The `chars` run of two
characters (through --out) and the `iwasawa` run whose invariants are
undetermined (exit 1) were recorded before the commands came to return
their records to `main`, which alone writes them; the `iwasawa --coeffs
1/0`, `padic-l --sigma0 11:1/0` and order-0 and order -6 `chars` runs
were recorded after that change, as the first three ended in a traceback
before it and the last printed a negative order.  The `verify-example
--char` and `chars --prime` runs were recorded once a shared flag that
the command does not read came to be refused: both exited 0 before.
The `chars` run of the malformed descriptor `mod9:g2^1` was recorded once
its refusal came to name the accepted forms: it printed Python's
dictionary message before.  The `chars` runs of `teich5^x` and `quadx`
were recorded once a bad integer in a named descriptor came to be refused
the same way (they printed Python's `int()` message before), and the run
of `teich9` once a composite p came to be refused by name (it blamed the
generator order before).  The `padic-l` runs of 19.2.a.a at 19 and
52.2.a.a at 13, where p divides the level and the measure has one term,
were recorded before the branch series came to project ball masses that
one measure builds once per sign.  The untwisted `modsym-table` run was
re-recorded once its normalization record came to say what
`eigen_functional` does (generator values of content 1, the first
nonzero one positive): it claimed a path sent to 1 before.  A process
parses the
bundled newforms and the CLI parser once: every pinned run above must
give the same bytes and exit code when run twice in one process, in a
shuffled order, after help runs at another width.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from iwrank.characters import parse_descriptor
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
    "chars_quad-23_teich5^2": ["chars", "--char", "quad-23", "--char", "teich5^2"],
}

COMMANDS = ("chars", "eisenstein", "congruence", "modsym-table", "padic-l",
            "iwasawa", "verify-example")

TEXT_RUNS = {
    "help": ["--help"],
    **{f"help_{cmd}": [cmd, "--help"] for cmd in COMMANDS},
    "bogus": ["bogus"],
    "no-arguments": [],
    "verify-example_9": ["verify-example", "9"],
    "prime-x_verify-example_1": ["--prime", "x", "verify-example", "1"],
    "eisenstein_teich5_triv1_w3": ["eisenstein", "--char", "teich5", "--char",
                                   "triv1", "--weight", "3", "--terms", "6"],
    "eisenstein_quad-4_triv1_w1": ["eisenstein", "--char", "quad-4", "--char",
                                   "triv1", "--weight", "1", "--terms", "6"],
    "congruence_11.2.a.a_p5": ["congruence", "--newform", "11.2.a.a",
                               "--prime", "5"],
    "congruence_23.2.a_p11": ["congruence", "--newform", "23.2.a",
                              "--prime", "11"],
    "congruence_19.2.a.a_p3": ["congruence", "--newform", "19.2.a.a",
                               "--prime", "3"],
    **{f"padic-l_11.2.a.a_p{p}": ["padic-l", "--newform", "11.2.a.a",
                                  "--prime", str(p)] for p in (5, 7, 11, 19)},
    "padic-l_11.2.a.a_p5_8,125": ["padic-l", "--newform", "11.2.a.a",
                                  "--prime", "5", "--precision", "8,125"],
    "padic-l_11.2.a.a_p5_8,125_sigma0": [
        "padic-l", "--newform", "11.2.a.a", "--prime", "5", "--precision",
        "8,125", "--sigma0", "11:1,-1,11", "--branches", "2..3"],
    "padic-l_19.2.a.a_p3": ["padic-l", "--newform", "19.2.a.a",
                            "--prime", "3"],
    **{f"padic-l_{label}_p{p}": ["padic-l", "--newform", label, "--prime", str(p)]
       for label, p in (("19.2.a.a", 19), ("52.2.a.a", 13))},
    "padic-l_52.2.a.a_p5_16,25": ["padic-l", "--newform", "52.2.a.a",
                                  "--prime", "5", "--precision", "16,25"],
    "padic-l_11.2.a.a_p5_3..6": ["padic-l", "--newform", "11.2.a.a",
                                 "--prime", "5", "--branches", "3..6"],
    **{f"padic-l_11.2.a.a_p5_{c}": ["padic-l", "--newform", "11.2.a.a",
                                    "--prime", "5", "--char", c]
       for c in ("quad-3", "quad5")},
    "padic-l_11.2.a.a_p7_teich7": ["padic-l", "--newform", "11.2.a.a",
                                   "--prime", "7", "--char", "teich7"],
    "padic-l_23.2.a_p11": ["padic-l", "--newform", "23.2.a", "--prime", "11"],
    "modsym-table_11.2.a.a_p7_teich7": ["modsym-table", "--newform",
                                        "11.2.a.a", "--prime", "7",
                                        "--char", "teich7"],
    "congruence_11.2.a.a_p7": ["congruence", "--newform", "11.2.a.a",
                               "--prime", "7"],
    **{f"{cmd}_52.2.a.a_p5_quad-4": [cmd, "--newform", "52.2.a.a", "--prime",
                                     "5", "--char", "quad-4"]
       for cmd in ("padic-l", "modsym-table")},
    "iwasawa_p5_8,5": ["iwasawa", "--prime", "5", "--precision", "8,5",
                       "--coeffs", "5,10,3,1"],
    "iwasawa_p5_2,5": ["iwasawa", "--prime", "5", "--precision", "2,5",
                       "--coeffs", "25,50"],
    "padic-l_11.2.a.a_p601": ["padic-l", "--newform", "11.2.a.a",
                              "--prime", "601"],
    "iwasawa_p5_mu-1": ["iwasawa", "--prime", "5", "--coeffs=1/5,3"],
    "iwasawa_p3_mu1": ["iwasawa", "--prime", "3", "--coeffs", "3,6,9"],
    "iwasawa_p7_lambda1": ["iwasawa", "--prime", "7", "--coeffs", "7,1"],
    "iwasawa_p5_unit": ["iwasawa", "--prime", "5", "--coeffs", "2,5"],
    "iwasawa_p5_8,2_long": ["iwasawa", "--prime", "5", "--precision", "8,2",
                            "--coeffs", "1,2,3"],
    "iwasawa_p5_coeffs0": ["iwasawa", "--prime", "5", "--coeffs", "0"],
    **{f"padic-l_11.2.a.a_p5_8,{D}": ["padic-l", "--newform", "11.2.a.a",
                                      "--prime", "5", "--precision", f"8,{D}"]
       for D in (625, 3125)},
    "padic-l_11.2.a.a_p5_8,625_sigma0_11_7": [
        "padic-l", "--newform", "11.2.a.a", "--prime", "5", "--precision",
        "8,625", "--sigma0", "11:1,-1,11", "--sigma0", "7:1,-2,7"],
    **{f"padic-l_19.2.a.a_p3_8,{D}": ["padic-l", "--newform", "19.2.a.a",
                                      "--prime", "3", "--precision", f"8,{D}"]
       for D in (729, 2187)},
    "padic-l_52.2.a.a_p5_16,625": ["padic-l", "--newform", "52.2.a.a",
                                   "--prime", "5", "--precision", "16,625"],
    "padic-l_11.2.a.a_p5_2..2_sigma0_7_negative": [
        "padic-l", "--newform", "11.2.a.a", "--prime", "5", "--branches",
        "2..2", "--sigma0", "7:1,1/5"],
    **{f"eisenstein_{theta}_triv1_w0": ["eisenstein", "--char", theta, "--char",
                                        "triv1", "--weight", "0", "--terms", "6"]
       for theta in ("triv1", "quad5")},
    "eisenstein_quad-3_quad-4_w0": ["eisenstein", "--char", "quad-3", "--char",
                                    "quad-4", "--weight", "0", "--terms", "6"],
    "eisenstein_quad5_quad-4_w-1": ["eisenstein", "--char", "quad5", "--char",
                                    "quad-4", "--weight", "-1", "--terms", "6"],
    "iwasawa_p5_coeffs_zero-denominator": ["iwasawa", "--prime", "5", "--coeffs", "1/0"],
    "padic-l_11.2.a.a_p5_sigma0_zero-denominator": [
        "padic-l", "--newform", "11.2.a.a", "--prime", "5", "--sigma0", "11:1/0"],
    **{f"chars_order{k}": ["chars", "--char", f"mod=7;gens=3:1;ord={k}"]
       for k in (0, -6)},
    "verify-example_3_char_teich4": ["verify-example", "3", "--char", "teich4"],
    "chars_teich5_prime7": ["chars", "--char", "teich5", "--prime", "7"],
    "chars_mod9_g2^1": ["chars", "--char", "mod9:g2^1"],
    **{f"chars_{c}": ["chars", "--char", c] for c in ("teich5^x", "quadx", "teich9")},
}


def run_captured(argv):
    """(stdout, stderr, exit code) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("number", [1, 2, 3])
def test_verify_example_matches_reference(number, tmp_path):
    out = tmp_path / "report.jsonl"
    rc = main(["verify-example", str(number), "--out", str(out)])
    codes = json.loads((REFS / "exit_codes.json").read_text())
    assert rc == codes[f"verify/{number}"]
    assert out.read_bytes() == (REFS / "verify" / f"{number}.jsonl").read_bytes()


def test_gauss_pool_matches_reference():
    pool = json.loads((REFS / "gauss_pool.json").read_text())
    for c in pool["characters"]:
        chi = parse_descriptor(c["descriptor"])
        got = repr(chi.gauss_sum() * chi.conjugate().gauss_sum())
        assert got == c["expected"], c["descriptor"]


def test_gauss_pool_factorisation_pairs():
    pool = json.loads((REFS / "gauss_pool.json").read_text())
    for a, b in pool["pairs"]:
        chi, psi = parse_descriptor(a), parse_descriptor(b)
        assert (chi * psi).gauss_sum() == (chi(psi.modulus) * psi(chi.modulus)
                                           * chi.gauss_sum() * psi.gauss_sum()), (a, b)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_matches_golden(name, tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(RUNS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes()


@pytest.mark.parametrize("name", sorted(TEXT_RUNS))
def test_cli_text_matches_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err, code = run_captured(TEXT_RUNS[name])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.stdout").read_text()
    assert err == (GOLDEN / f"{name}.stderr").read_text()


def test_pinned_runs_repeat_in_one_process(tmp_path, monkeypatch):
    # help at 120 columns first: a parser frozen at its first width, or
    # carrying --newform/--char/--sigma0 values from one run into the
    # next, breaks the runs after it
    monkeypatch.setenv("COLUMNS", "120")
    for name, argv in TEXT_RUNS.items():
        if name.startswith("help"):
            wide = run_captured(argv)
            assert wide[0] != (GOLDEN / f"{name}.stdout").read_text(), name
    monkeypatch.setenv("COLUMNS", "80")
    text_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    ref_codes = json.loads((REFS / "exit_codes.json").read_text())
    runs = ([("text", name) for name in TEXT_RUNS] + [("out", name) for name in RUNS]
            + [("verify", number) for number in (1, 2, 3)]) * 2
    random.Random(22).shuffle(runs)
    out = tmp_path / "out.jsonl"
    for kind, name in runs:
        if kind == "text":
            assert run_captured(TEXT_RUNS[name]) == (
                (GOLDEN / f"{name}.stdout").read_text(),
                (GOLDEN / f"{name}.stderr").read_text(), text_codes[name]), name
        elif kind == "out":
            assert main(RUNS[name] + ["--out", str(out)]) == 0, name
            assert out.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes(), name
        else:
            argv = ["verify-example", str(name), "--out", str(out)]
            assert main(argv) == ref_codes[f"verify/{name}"], name
            assert out.read_bytes() == (REFS / "verify" / f"{name}.jsonl").read_bytes(), name
