import json

import pytest

from iwrank import examples, modsym
from iwrank.characters import DirichletCharacter
from iwrank.examples import (
    EXAMPLES, VerificationReport, build_example, eisenstein_partner, mazur_check,
    run_example,
)
from iwrank.newforms import IngestionError, NewformData, bundled
from iwrank.padic_l import format_report


@pytest.fixture(scope="module")
def rep1():
    return run_example(1)


@pytest.fixture(scope="module")
def rep2():
    return run_example(2)


@pytest.fixture(scope="module")
def rep3():
    return run_example(3)


def test_report_bookkeeping():
    rep = VerificationReport("demo")
    rep.add("a", "claim a", True, 1, 1, "exact")
    rep.add("b", "claim b", False, 2, 3, "exact")
    rep.skip("c", "claim c", "not applicable here")
    assert rep.counts() == (1, 1, 1)
    assert not rep.ok
    assert [r["check_id"] for r in rep.failures()] == ["b"]
    lines = [format_report(r) for r in rep.records]
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        assert set(rec) >= {"check_id", "claim", "status"}


def test_example_catalog():
    assert sorted(EXAMPLES) == [1, 2, 3]
    with pytest.raises(ValueError):
        run_example(4)
    with pytest.raises(ValueError):
        build_example(0)


def test_example1_all_pass(rep1):
    npass, nfail, nskip = rep1.counts()
    assert (npass, nfail, nskip) == (37, 0, 0)
    assert rep1.ok


def test_example3_all_pass(rep3):
    npass, nfail, nskip = rep3.counts()
    assert (npass, nfail, nskip) == (17, 0, 0)
    assert rep3.ok


def test_example2_known_failures(rep2):
    npass, nfail, nskip = rep2.counts()
    assert nskip == 0 and nfail == 3 and npass == 14
    failed = {r["check_id"]: r for r in rep2.failures()}
    assert set(failed) == {"ex2.series.j2.invariants",
                           "ex2.verdict.j1", "ex2.verdict.j2"}
    # the vanishing branch carries a cubic, not a simple zero
    assert failed["ex2.series.j2.invariants"]["computed"] == \
        "(mu, lambda) = (0, 3)"
    assert failed["ex2.verdict.j1"]["computed"] == "(T^3)"
    assert failed["ex2.verdict.j2"]["computed"] == "(T^3)"


def test_example1_walks_the_pair_once(monkeypatch):
    # the whole run reads the twist's rows at 121, off the pair's row at
    # 121 * 23; the scales and every row at 11 are slices of those, so the
    # pair is walked once, over the numerators a <= 2783 / 2.  From an
    # empty registry: earlier runs would have left the pair kept
    monkeypatch.setattr(modsym, "_kept", {})
    walks = []
    walk = modsym._walk

    def counted(space, vp, vm, den, numerators):
        walks.append((den, len(numerators)))
        return walk(space, vp, vm, den, numerators)

    # the rows at 121 need the scales, fixed by the first rows at the
    # constructor's den 11: one Birch row per sign and den
    birch = []
    birch_row = modsym.TwistedSymbol._birch_row

    def counted_birch(self, den, s):
        birch.append((den, s))
        return birch_row(self, den, s)

    monkeypatch.setattr(modsym, "_walk", counted)
    monkeypatch.setattr(modsym.TwistedSymbol, "_birch_row", counted_birch)
    assert run_example(1).ok
    assert walks == [(2783, 1392)]
    assert birch == [(121, 1), (121, -1), (11, 1), (11, -1)]
    # a second run reads the twist and its rows kept on the level-11
    # space: no walk and no Birch row more
    assert run_example(1).ok
    sym = build_example(1)["sym"]
    for s in (1, -1):
        assert sym.evaluate_row(11, s) == sym.evaluate_row(121, s)[::11]
        assert all(type(x) is int for x in sym.evaluate_row(121, s))
    assert walks == [(2783, 1392)]
    assert birch == [(121, 1), (121, -1), (11, 1), (11, -1)]


def test_eisenstein_checks_are_kept_on_the_form(monkeypatch):
    # examples 2 and 3 check the same h = 11.2.a.a at p = 5 and t = 11:
    # the partner and the Mazur report are built once and kept on h
    h = bundled("11.2.a.a")
    monkeypatch.setattr(h, "_partners", {})
    monkeypatch.setattr(h, "_mazur", {})
    built = []
    mazur = examples.mazur_eisenstein

    def counted(t, n_max):
        built.append(t)
        return mazur(t, n_max)

    monkeypatch.setattr(examples, "mazur_eisenstein", counted)
    first = run_example(2).records
    ideal = h.congruence_ideal(5)
    partner = eisenstein_partner(h, 5, ideal)
    report = mazur_check(h, 5, ideal, 11)
    assert list(h._partners) == [(5, ideal)] and list(h._mazur) == [(5, ideal, 11)]
    assert eisenstein_partner(h, 5, h.congruence_ideal(5)) is partner
    assert mazur_check(h, 5, h.congruence_ideal(5), 11) is report
    run_example(3)
    assert run_example(2).records == first
    assert built == [11]
    assert list(h._partners) == [(5, ideal)] and list(h._mazur) == [(5, ideal, 11)]
    assert h._partners[5, ideal] is partner and h._mazur[5, ideal, 11] is report


def test_a_failed_eisenstein_partner_keeps_nothing():
    # one stored coefficient, short of the Sturm bound 2 at level 11
    h = NewformData("short", 11, 2, DirichletCharacter.trivial(11), (0, 1), [1])
    messages = []
    for _ in range(2):
        with pytest.raises(IngestionError) as exc:
            eisenstein_partner(h, 5, h.congruence_ideal(5))
        messages.append(str(exc.value))
        assert h._partners == {}
    with pytest.raises(IngestionError):
        mazur_check(h, 5, h.congruence_ideal(5), 11)
    assert h._partners == h._mazur == {}
    assert messages[0] == messages[1]


def test_reports_deterministic(rep3):
    again = run_example(3)
    assert rep3.records == again.records


def test_build_example_shapes():
    ex = build_example(3)
    assert ex["p"] == 5
    assert sorted(ex["raw"]) == sorted(ex["dressed"]) == [1, 2, 3, 4]
    assert ex["sym"].level == 19
    assert ex["alpha"].ints[0] % 5 == 3
    assert ex["sigma0"] == ((11, (1, -3, 11)),)
