import gc
import json
import weakref
from math import gcd

import pytest

from iwrank.cli import main
from iwrank.examples import EXAMPLES, build_example, kept_example
from iwrank.modsym import ModularSymbolSpace
from iwrank.padic_l import branch_report


def _lines(capsys):
    out = capsys.readouterr().out
    return [l for l in out.splitlines() if l]


def _records(capsys):
    return [json.loads(l) for l in _lines(capsys)]


def test_chars(capsys):
    assert main(["chars", "--char", "quad-23", "--char", "teich5^2"]) == 0
    recs = _records(capsys)
    assert [r["descriptor"] for r in recs] == ["quad-23", "teich5^2"]
    assert recs[0]["parity"] == -1 and recs[0]["conductor"] == 23
    assert recs[1]["parity"] == 1 and recs[1]["order"] == 2
    assert recs[1]["value_exponents"]["2"] == 1


def test_chars_requires_char(capsys):
    assert main(["chars"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eisenstein(capsys):
    assert main(["eisenstein", "--char", "quad-4", "--char", "triv1",
                 "--weight", "3", "--terms", "6"]) == 0
    rec = _records(capsys)[0]
    assert rec["weight"] == 3 and rec["level"] == 4
    # a(n) = sum_{d|n} quad-4(d) d^2 : a(1)=1, a(2)=1, a(3)=-8, a(5)=26
    assert rec["coefficients"][1:6] == ["1", "1", "-8", "1", "26"]


def test_eisenstein_parity_rejected(capsys):
    assert main(["eisenstein", "--char", "quad-4", "--char", "triv1",
                 "--weight", "2"]) == 2
    assert "parity" in capsys.readouterr().err


def test_congruence(capsys):
    assert main(["congruence", "--newform", "11.2.a.a", "--prime", "5"]) == 0
    recs = _records(capsys)
    by_id = {r["check_id"]: r for r in recs}
    assert set(by_id) == {"congruence.m", "congruence.sigma0",
                          "congruence.partner", "congruence.self"}
    assert all(r["status"] == "pass" for r in recs)
    assert by_id["congruence.m"]["computed"] == "11"
    assert by_id["congruence.sigma0"]["computed"] == "[11]"


def test_congruence_number_field(capsys):
    assert main(["congruence", "--newform", "23.2.a", "--prime", "11"]) == 0
    assert all(r["status"] == "pass" for r in _records(capsys))


def test_congruence_partner_not_integral_is_skipped(capsys):
    # at p = 3 the partner E_2(z) - 3 E_2(3z) has a(0) = 1/12, which has
    # no reduction mod 3: the self-check is skipped, and a skip is no
    # failure
    assert main(["congruence", "--newform", "19.2.a.a", "--prime", "3"]) == 0
    recs = _records(capsys)
    assert [(r["check_id"], r["status"]) for r in recs] == [
        ("congruence.m", "pass"), ("congruence.sigma0", "pass"),
        ("congruence.partner", "pass"), ("congruence.self", "skipped")]
    assert recs[3]["computed"].startswith("a(0) = 1/12 ")
    assert "does not reduce mod the ideal above 3" in recs[3]["computed"]


def test_congruence_rejects_non_eisenstein_prime(capsys):
    assert main(["congruence", "--newform", "11.2.a.a", "--prime", "7"]) == 2
    assert "error:" in capsys.readouterr().err


def test_modsym_table(capsys):
    assert main(["modsym-table", "--newform", "19.2.a.a",
                 "--prime", "5"]) == 0
    recs = _records(capsys)
    assert recs[0]["form"] == "19.2.a.a" and recs[0]["prime"] == 5
    rows = {r["b"]: r for r in recs[1:]}
    assert [rows[b]["plus"] for b in (1, 2, 3, 4)] == ["-3", "6", "6", "-3"]
    assert [rows[b]["minus"] for b in (1, 2, 3, 4)] == ["1", "0", "0", "-1"]


def test_modsym_table_twist_builds_each_birch_row_once(capsys, monkeypatch):
    # the scales are fixed by the first rows at the constructor's den p,
    # which are the rows the table prints: one Birch row per sign
    from iwrank import modsym
    calls = []
    birch_row = modsym.TwistedSymbol._birch_row

    def counted(self, den, s):
        calls.append((den, s))
        return birch_row(self, den, s)

    monkeypatch.setattr(modsym.TwistedSymbol, "_birch_row", counted)
    assert main(["modsym-table", "--newform", "11.2.a.a", "--prime", "5",
                 "--char", "quad-23"]) == 0
    assert _records(capsys)[0]["scales"] is not None
    assert calls == [(5, 1), (5, -1)]


def test_padic_l(capsys):
    assert main(["padic-l", "--newform", "52.2.a.a", "--prime", "5",
                 "--branches", "1..4", "--sigma0", "11:1,2,11"]) == 0
    recs = _records(capsys)
    assert [r["j"] for r in recs] == [1, 2, 3, 0]
    by_j = {r["j"]: r for r in recs}
    assert by_j[2]["value_at_trivial"]["exact_zero"] is True
    assert (by_j[2]["mu"], by_j[2]["lambda"]) == (0, 3)
    assert by_j[2]["verdict"] == "(T^3)" and by_j[1]["verdict"] == "(T^3)"
    assert by_j[3]["verdict"] == "(1)" and by_j[0]["verdict"] == "(1)"
    assert by_j[0]["value_at_trivial"]["valuation"] == 0
    for r in recs:
        assert r["sigma0_factors"] == [[11, ["1", "2", "11"]]]
        assert "note" in r


@pytest.mark.parametrize("number, argv", [
    (2, ["--newform", "52.2.a.a", "--prime", "5", "--sigma0", "11:1,2,11"]),
    (1, ["--newform", "11.2.a.a", "--prime", "11", "--char", "quad-23", "--sigma0", "23:1"]),
])
def test_padic_l_agrees_with_the_bundled_run(number, argv, capsys):
    # `padic-l` on the bundled run's form, twist, prime and sigma0
    # factors prints, branch by branch, the bundled run's value at the
    # trivial character, dressed (mu, lambda) and verdict
    assert main(["padic-l"] + argv) == 0
    recs = _records(capsys)
    family = build_example(number)["family"]
    p = EXAMPLES[number]["p"]
    assert [r["j"] for r in recs] == [j % (p - 1) for j in family.values] != []
    for r, (j, value) in zip(recs, family.values.items()):
        bs = family.dressed[j]
        assert r["value_at_trivial"] == \
            branch_report(bs, family.alpha, value)["value_at_trivial"], (number, j)
        assert [r["mu"], r["lambda"]] == list(bs.invariants or (None, None)), (number, j)
        assert r["verdict"] == family.verdicts[j], (number, j)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_padic_l_single_branches_match_full_run(p, capsys, monkeypatch):
    # a record needs only its branch and the partner j % (p - 1) + 1, so
    # a single run builds those two series, from one symbol measure, one
    # projection per sign onto that sign's branches, and prints its line
    # of the full run; nothing is kept between runs, so a repeat builds
    # them again
    import iwrank.padic_l as padic_l

    built, measured = [], []
    branch_series, symbol_measure = padic_l.branch_series, padic_l.symbol_measure

    def counted(balls, p, js, *args):
        built.append(list(js))
        return branch_series(balls, p, js, *args)

    def measure(*args):
        measured.append(args)
        return symbol_measure(*args)

    monkeypatch.setattr(padic_l, "branch_series", counted)
    monkeypatch.setattr(padic_l, "symbol_measure", measure)
    argv = ["padic-l", "--newform", "11.2.a.a", "--prime", str(p),
            "--sigma0", "2:1,2,2"]
    for _ in range(2):
        assert main(argv) == 0
        full = _lines(capsys)
        assert len(full) == p - 1 and built == [list(range(2, p, 2)), list(range(1, p, 2))]
        assert len(measured) == 1
        built.clear()
        measured.clear()
        for j in range(1, p):
            assert main(argv + ["--branches", f"{j}..{j}"]) == 0
            assert _lines(capsys) == [full[j - 1]], j
            partner = padic_l.partner_branch(j, p)
            assert built == [[k] for k in sorted({j, partner}, key=lambda k: k % 2)], j
            assert len(measured) == 1, j
            built.clear()
            measured.clear()


def test_iwasawa(capsys):
    assert main(["iwasawa", "--prime", "5", "--precision", "8,5",
                 "--coeffs", "5,10,3,1"]) == 0
    rec = _records(capsys)[0]
    assert rec["mu"] == 0 and rec["lambda"] == 2
    assert rec["ideal_mod_pi"] == "(T^2)"


def test_iwasawa_undetermined(capsys):
    assert main(["iwasawa", "--prime", "5", "--precision", "8,5",
                 "--coeffs", "0,0,0"]) == 1
    assert "undetermined" in _records(capsys)[0]


def test_verify_examples_exit_codes(capsys):
    assert main(["verify-example", "3"]) == 0
    recs = _records(capsys)
    assert recs[-1]["ok"] is True and recs[-1]["fail"] == 0
    assert main(["verify-example", "2"]) == 1
    recs = _records(capsys)
    summary = recs[-1]
    assert summary["ok"] is False and summary["fail"] == 3
    failed = sorted(r["check_id"] for r in recs[:-1]
                    if r.get("status") == "fail")
    assert failed == ["ex2.series.j2.invariants",
                      "ex2.verdict.j1", "ex2.verdict.j2"]


def test_flags_both_sides_of_subcommand(capsys):
    assert main(["--prime", "5", "iwasawa", "--precision", "8,5",
                 "--coeffs", "0,5,25"]) == 0
    before = _records(capsys)[0]
    assert main(["iwasawa", "--prime", "5", "--precision", "8,5",
                 "--coeffs", "0,5,25"]) == 0
    assert _records(capsys)[0] == before


def test_out_file_deterministic(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    argv = ["verify-example", "3", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")
    for line in a.read_text().splitlines():
        json.loads(line)


def test_cache_dir_and_iwr_cache_are_gone(tmp_path, monkeypatch, capsys):
    # the symbol space is rebuilt on every run: the flag is unknown and
    # the environment variable is ignored
    argv = ["padic-l", "--newform", "11.2.a.a", "--prime", "5"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()
    monkeypatch.delenv("IWR_CACHE", raising=False)
    assert main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("IWR_CACHE", str(tmp_path))
    assert main(argv) == 0
    assert capsys.readouterr().out == plain
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("form,p", [("11.2.a.a", 11), ("19.2.a.a", 19)])
def test_exceptional_zero(form, p, capsys):
    # p | N with a_p = +1: alpha = 1, so 1 - 1/alpha vanishes and the
    # trivial branch has an exact zero at the trivial character
    assert main(["padic-l", "--newform", form, "--prime", str(p)]) == 0
    recs = _records(capsys)
    assert len(recs) == p - 1
    trivial = next(r for r in recs if r["j"] == 0)
    assert trivial["value_at_trivial"]["exact_zero"] is True
    assert trivial["lambda"] == 1


@pytest.mark.parametrize("argv", [
    ["--prime", "4", "iwasawa", "--coeffs", "1"],
    ["--prime", "9", "iwasawa", "--coeffs", "1"],
    ["chars", "--char", "bogus^^"],
    ["padic-l", "--newform", "52.2.a.a", "--prime", "5",
     "--branches", "1..9"],
    ["padic-l", "--newform", "52.2.a.a", "--prime", "5",
     "--branches", "4..1"],
    ["congruence", "--newform", "/nonexistent.json", "--prime", "5"],
    ["iwasawa", "--prime", "5", "--precision", "8,5"],
    ["iwasawa", "--prime", "5", "--precision", "0,5", "--coeffs", "1"],
    ["verify-example", "1", "--prime", "11", "--precision", "8,7"],
    ["eisenstein", "--weight", "1", "--char", "triv1", "--char", "quad-3",
     "--terms", "-3"],
    # moduli above characters.MAX_MODULUS: refused before any factoring
    ["chars", "--char", "triv1000000007"],
    ["chars", "--char", "teich1000000000000000003"],
    ["padic-l", "--newform", "11.2.a.a", "--prime", "5",
     "--char", "mod=1000000000000000003;gens=;ord=1"],
])
def test_config_errors(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


# fields that crashed outside the record check, or that int() would
# misread (11.5 as 11, true as 1): each is a malformed record
_MALFORMED = {
    "nebentypus-null": ("nebentypus", None, "nebentypus None is not a string"),
    "nebentypus-number": ("nebentypus", 11, "nebentypus 11 is not a string"),
    "seeds-null": ("seed_root_mod_p", None, "seed_root_mod_p None is not an object"),
    "seeds-list": ("seed_root_mod_p", [[5, 1]], r"seed_root_mod_p \[\[5, 1\]\] is not an object"),
    "seed-float": ("seed_root_mod_p", {"5": 1.5}, "seed root 1.5 is not an integer"),
    "seed-bool": ("seed_root_mod_p", {"5": True}, "seed root True is not an integer"),
    "level-float": ("level", 11.5, "level 11.5 is not an integer"),
    "level-bool": ("level", True, "level True is not an integer"),
    "weight-float": ("weight", 2.5, "weight 2.5 is not an integer"),
    "weight-bool": ("weight", True, "weight True is not an integer"),
    "poly-float": ("field_poly", [0.5, 1], "field_poly entry 0.5 is not an integer"),
    "poly-bool": ("field_poly", [0, True], "field_poly entry True is not an integer"),
}


@pytest.mark.parametrize("edit", ["short", "null"] + list(_MALFORMED))
def test_unusable_newform_file_exits_2(edit, tmp_path, capsys):
    # fewer coefficients than the Sturm bound (2 at level 11), a null
    # coefficient entry, or a malformed field: a clean error, not a
    # traceback
    from importlib import resources
    from iwrank.newforms import IngestionError, NewformData
    payload = json.loads(resources.files("iwrank.data")
                         .joinpath("11.2.a.a.json").read_text())
    if edit == "short":
        payload["an"] = payload["an"][:1]
    elif edit == "null":
        payload["an"][3] = [None]
    else:
        key, value, message = _MALFORMED[edit]
        payload[key] = value
        with pytest.raises(IngestionError, match=f"malformed newform record: {message}$"):
            NewformData.from_dict(payload)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(payload))
    assert main(["congruence", "--newform", str(path), "--prime", "5"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if edit in _MALFORMED:
        assert err.startswith(f"error: cannot ingest newform file {path}: "
                              "malformed newform record: "), err


@pytest.mark.parametrize("m", [16, 30])
def test_precision_above_default_digits(m, capsys):
    # alpha is computed to the digits the series need, so M > 14 is
    # reached: the same records as at M = 8, with the vanishing branch
    # now known to vanish mod p^M
    argv = ["padic-l", "--newform", "52.2.a.a", "--prime", "5", "--precision"]
    assert main(argv + ["8,25"]) == 0
    base = _records(capsys)
    assert main(argv + [f"{m},25"]) == 0
    recs = _records(capsys)
    assert [r["value_at_trivial"].get("vanishes_to") for r in recs] == \
        [None, m, None, None]
    for r in base + recs:
        r["value_at_trivial"].pop("vanishes_to", None)
    assert recs == base


@pytest.mark.parametrize("specs,msg", [
    (["5:1,2"], "sigma0 factors must avoid p"),
    (["2:1,2", "2:1"], "duplicate sigma0 factor at 2"),
])
def test_bad_sigma0_factors_exit_2(specs, msg, capsys):
    argv = ["padic-l", "--newform", "11.2.a.a", "--prime", "5"]
    for spec in specs:
        argv += ["--sigma0", spec]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {msg}\n"


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert main(["--out", str(out), "chars", "--char", "triv1"]) == 2
    assert "error: cannot write --out" in capsys.readouterr().err


@pytest.fixture
def example_runs(monkeypatch):
    """The (number, wild_level, M) of each verify-example run."""
    from iwrank import cli
    from iwrank.examples import VerificationReport

    calls = []

    def fake(number, wild_level=1, M=8):
        calls.append((number, wild_level, M))
        return VerificationReport(number)

    monkeypatch.setattr(cli, "run_example", fake)
    return calls


@pytest.mark.parametrize("argv,want", [
    (["verify-example", "2"], (2, 1, 8)),
    (["--prime", "5", "verify-example", "2"], (2, 1, 8)),
    (["verify-example", "2", "--precision", "8,25"], (2, 2, 8)),
    (["verify-example", "1", "--precision", "12,11"], (1, 1, 12)),
    (["--prime", "11", "verify-example", "1", "--precision", "8,121"],
     (1, 2, 8)),
])
def test_verify_example_precision(argv, want, example_runs, capsys):
    assert main(argv) == 0
    assert example_runs == [want]


@pytest.mark.parametrize("argv", [
    ["--prime", "7", "verify-example", "2"],
    ["--prime", "7", "--precision", "8,49", "verify-example", "2"],
    ["verify-example", "2", "--precision", "8,49"],
    ["verify-example", "3", "--precision", "8,5,"],
    ["--prime", "5", "verify-example", "3", "--precision", "8,10"],
])
def test_verify_example_rejects_other_primes(argv, example_runs, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert example_runs == []


def _form_file(tmp_path, **edits):
    """11.2.a.a's bundled record with some fields replaced, as a file."""
    from importlib import resources
    payload = json.loads(resources.files("iwrank.data")
                         .joinpath("11.2.a.a.json").read_text())
    payload.update(edits)
    path = tmp_path / f"{payload['label']}.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("command", ["modsym-table", "padic-l"])
def test_newform_file_picks_its_own_probes(command, tmp_path, capsys):
    # a copy of 11.2.a.a under another label is cut out of its symbol
    # space by the same computed probe, so it prints the bundled bytes
    argv = [command, "--prime", "5", "--newform"]
    assert main(argv + ["11.2.a.a"]) == 0
    bundled = capsys.readouterr().out
    assert main(argv + [_form_file(tmp_path, label="copy-of-11a")]) == 0
    copy = capsys.readouterr().out
    assert "copy-of-11a" in copy
    assert copy.replace("copy-of-11a", "11.2.a.a") == bundled


@pytest.mark.parametrize("command", ["modsym-table", "padic-l"])
@pytest.mark.parametrize("edits,msg", [
    # 11.2.a.a's coefficients declared at level 13, where the only symbol
    # is Eisenstein (T_2 eigenvalue 3, not a_2 = -2): the plus eigenspace
    # is 0
    ({"label": "triv13", "level": 13, "nebentypus": "triv13"},
     "triv13: no eigensymbol has the stored a_l at l = 2 (level 13 sign "
     "+1: eigenspace has dimension 0, expected 1)"),
    # at level 22 the form is old, a plane on each sign that T_3 and T_5
    # (the stored primes l not dividing 22) do not split
    ({"label": "old22", "level": 22, "nebentypus": "triv22",
      "an": [["1"], ["-2"], ["-1"], ["4"], ["1"]]},
     "old22: the stored a_l at the primes l <= 5 prime to 22 do not cut "
     "out one eigensymbol per sign"),
    # a weight-4 form has no weight-2 eigensymbol to compare against
    ({"label": "w4", "level": 5, "weight": 4, "nebentypus": "triv5",
      "an": [["1"], ["-4"], ["2"], ["8"], ["-5"]]},
     "w4: the symbols are those of weight 2 on Gamma0(N), so the form "
     "needs weight 2 and a trivial character"),
])
def test_newform_file_without_a_line_exits_2(command, edits, msg, tmp_path,
                                             capsys):
    path = _form_file(tmp_path, **edits)
    assert main([command, "--prime", "5", "--newform", path]) == 2
    assert capsys.readouterr().err == f"error: {msg}\n"


def test_unknown_newform_exits_2_on_every_run(capsys):
    for _ in range(2):
        assert main(["padic-l", "--newform", "bogus", "--prime", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: no bundled newform 'bogus'")


def test_newform_file_is_read_on_every_run(tmp_path, capsys):
    # a bundled form is loaded once per process, a --newform FILE on every
    # run: the same path, rewritten with a(600) = 5 + (1/3) sqrt 5 (not an
    # algebraic integer), is refused the second time
    from importlib import resources
    payload = json.loads(resources.files("iwrank.data")
                         .joinpath("23.2.a.json").read_text())
    path = tmp_path / "form.json"
    path.write_text(json.dumps(payload))
    argv = ["congruence", "--newform", str(path), "--prime", "11"]
    assert main(argv) == 0
    capsys.readouterr()
    payload["an"][-1][-1] = "1/3"
    path.write_text(json.dumps(payload))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot ingest newform file {path}: coefficient 600 is not "
        f"an algebraic integer")


def _fundamental(d):
    """d is a fundamental discriminant other than 1."""
    m = d // 4 if d % 4 == 0 else d
    if d == 1 or d % 4 not in (0, 1) or d % 4 == 0 and m % 4 not in (2, 3):
        return False
    return all(m % (q * q) for q in range(2, abs(m) + 1) if q * q <= abs(m))


def test_padic_l_quadratic_twists_keep_the_functional_equation(tmp_path):
    # f in {11.2.a.a, 19.2.a.a, 52.2.a.a} has root number w(f) = +1, and
    # for a fundamental d prime to N, w(f x chi_d) = w(f) chi_d(-N).  The
    # p-adic functional equation maps branch j to branch -j mod p - 1 by
    # T -> (1 + T)^-1 - 1 up to a unit, so the pair (j, p - 1 - j) has one
    # (mu, lambda), and on branch 0 the roots off T = 0 pair up, so
    # (-1)^lambda is the sign of that equation: w(f x chi_d), times -1 at
    # an exceptional zero (p | N and a_p(f x chi_d) = chi_d(p) a_p(f) = 1)
    from iwrank.characters import kronecker
    from iwrank.newforms import bundled

    out = tmp_path / "out.jsonl"
    parity = pairs = refused = 0
    for label, N in (("11.2.a.a", 11), ("19.2.a.a", 19), ("52.2.a.a", 52)):
        for p in (7, 13, 17, 19):
            for d in range(-59, 60):
                if not _fundamental(d) or gcd(d, N * p) != 1:
                    continue
                code = main(["padic-l", "--newform", label, "--prime", str(p),
                             "--char", f"quad{d}", "--out", str(out)])
                if code == 2:  # not ordinary, or a twist the series refuse
                    refused += 1
                    continue
                assert code == 0, (label, p, d)
                recs = {r["j"]: (r["mu"], r["lambda"])
                        for r in map(json.loads, out.read_text().splitlines())}
                assert sorted(recs) == list(range(p - 1)), (label, p, d)
                lam = recs[0][1]
                if lam is not None:
                    parity += 1
                    exceptional = N % p == 0 and kronecker(d, p) * bundled(label).a(p) == 1
                    sign = kronecker(d, -N) * (-1 if exceptional else 1)
                    assert (-1) ** lam == sign, (label, p, d)
                for j in range(1, (p - 1) // 2):
                    pairs += 1
                    assert recs[j] == recs[p - 1 - j], (label, p, d, j)
    assert (parity, pairs, refused) == (297, 1618, 40)


def test_commands_leave_only_the_spaces_kept_runs_hold(tmp_path, monkeypatch):
    # a symbol space lives as long as whatever holds it: padic-l and
    # modsym-table leave none behind once they return, and verify-example
    # leaves the three that its kept bundled runs hold
    built = []
    init = ModularSymbolSpace.__init__

    def tracked(self, N):
        init(self, N)
        built.append(weakref.ref(self))

    monkeypatch.setattr(ModularSymbolSpace, "__init__", tracked)
    out = str(tmp_path / "out.jsonl")
    for cmd in ("padic-l", "modsym-table"):
        for extra in (["--newform", "11.2.a.a"], ["--newform", "19.2.a.a"],
                      ["--newform", "52.2.a.a"],
                      ["--newform", "11.2.a.a", "--char", "quad-23"]):
            assert main([cmd, "--prime", "5", "--out", out] + extra) == 0, (cmd, extra)
    assert len(built) == 8
    gc.collect()
    assert [ref() for ref in built if ref() is not None] == []
    built.clear()
    kept_example.cache_clear()
    assert [main(["verify-example", str(k), "--out", out]) for k in (1, 2, 3)] == [0, 1, 0]
    gc.collect()
    alive = [ref() for ref in built if ref() is not None]
    syms = [build_example(k)["sym"] for k in (1, 2, 3)]
    held = [syms[0].pair.plus.space] + [sym.plus.space for sym in syms[1:]]
    assert len(alive) == 3 and {id(sp) for sp in alive} == {id(sp) for sp in held}
