import copy
import json

import pytest

from iwrank.cli import main


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


def test_congruence_partner_not_integral_is_clean_error(capsys):
    # at p = 3 the partner E_2(z) - 3 E_2(3z) has a(0) = 1/12, which has
    # no reduction mod 3
    assert main(["congruence", "--newform", "19.2.a.a", "--prime", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a(0) = 1/12 ")
    assert "Traceback" not in err


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


def test_cache_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IWR_CACHE", str(tmp_path))
    assert main(["modsym-table", "--newform", "19.2.a.a",
                 "--prime", "5"]) == 0
    capsys.readouterr()
    cached = list(tmp_path.glob("*.json"))
    assert cached, "no cache file written under IWR_CACHE"
    assert main(["modsym-table", "--newform", "19.2.a.a",
                 "--prime", "5"]) == 0
    capsys.readouterr()


def _corrupted_payloads(good):
    """Payloads that parse but are wrong: one vector an entry short, and
    two entries altered outside the basis columns (only the Manin
    relations show it)."""
    short = copy.deepcopy(good)
    short["vectors"][1].pop()
    altered = copy.deepcopy(good)
    assert not {0, 3} & set(good["basis_cols"])
    altered["vectors"][0][0] = 2
    altered["vectors"][3][1] = 3
    return [json.dumps(short), json.dumps(altered)]


def test_truncated_cache_is_rebuilt(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("IWR_CACHE", raising=False)
    argv = ["padic-l", "--newform", "11.2.a.a", "--prime", "5"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    cache = tmp_path / "modsym_11_v2.json"
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == fresh
    good = json.loads(cache.read_text())
    junks = ['{"trunc', "[]", '{"version": 2, "N": 11}']
    for junk in junks + _corrupted_payloads(good):
        cache.write_text(junk)
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == fresh
        # overwritten with a valid payload, which the next run reads back
        assert json.loads(cache.read_text()) == good
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == fresh
    assert [p.name for p in tmp_path.iterdir()] == [cache.name]


def test_cached_space_gives_uncached_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("IWR_CACHE", raising=False)
    for form in ("11.2.a.a", "19.2.a.a", "52.2.a.a"):
        argv = ["padic-l", "--newform", form, "--prime", "5"]
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        for _ in range(2):  # the first run writes the cache, the second reads it
            assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
            assert capsys.readouterr().out == fresh
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "modsym_11_v2.json", "modsym_19_v2.json", "modsym_52_v2.json"]


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
    ["--prime", "4", "chars", "--char", "triv1"],
    ["--prime", "9", "chars", "--char", "triv1"],
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
])
def test_config_errors(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["short", "null"])
def test_unusable_newform_file_exits_2(edit, tmp_path, capsys):
    # fewer coefficients than the Sturm bound (2 at level 11), or a null
    # coefficient entry: a clean error, not a traceback
    from importlib import resources
    payload = json.loads(resources.files("iwrank.data")
                         .joinpath("11.2.a.a.json").read_text())
    if edit == "short":
        payload["an"] = payload["an"][:1]
    else:
        payload["an"][3] = [None]
    path = tmp_path / "form.json"
    path.write_text(json.dumps(payload))
    assert main(["congruence", "--newform", str(path), "--prime", "5"]) == 2
    assert "error:" in capsys.readouterr().err


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
