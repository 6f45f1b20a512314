import json

import pytest

from iwrank import examples, modsym, newforms
from iwrank.characters import DirichletCharacter
from iwrank.examples import (
    EXAMPLES, VerificationReport, build_example, eisenstein_partner, kept_example,
    run_example,
)
from iwrank.newforms import IngestionError, NewformData
from iwrank.padic_l import format_report

from reference import example_state


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
    # empty cache: an earlier run would have left the run kept
    kept_example.cache_clear()
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
    # a second run reads the kept run, whose twist holds its rows: no
    # walk and no Birch row more
    assert run_example(1).ok
    sym = build_example(1)["sym"]
    for s in (1, -1):
        assert sym.evaluate_row(11, s) == sym.evaluate_row(121, s)[::11]
        assert all(type(x) is int for x in sym.evaluate_row(121, s))
    assert walks == [(2783, 1392)]
    assert birch == [(121, 1), (121, -1), (11, 1), (11, -1)]


def test_eisenstein_checks_are_kept_with_the_bundled_run(monkeypatch):
    # examples 2 and 3 check the same h = 11.2.a.a at p = 5 and t = 11:
    # each run builds its partner and Mazur series once, on one
    # q-expansion of h, and a repeat run reads them kept with the run
    kept_example.cache_clear()
    built = []
    mazur = examples.mazur_eisenstein
    partner = examples.residual_eisenstein_partner
    q_expansion = newforms.NewformData.q_expansion

    def counted_mazur(t, n_max):
        built.append(("mazur", t, n_max))
        return mazur(t, n_max)

    def counted_partner(p, *args):
        built.append(("partner", p, args[-1]))
        return partner(p, *args)

    def counted_q(h, n_max=None):
        built.append(("hq", h.label, n_max))
        return q_expansion(h, n_max)

    monkeypatch.setattr(examples, "mazur_eisenstein", counted_mazur)
    monkeypatch.setattr(examples, "residual_eisenstein_partner", counted_partner)
    monkeypatch.setattr(newforms.NewformData, "q_expansion", counted_q)
    first = run_example(2).records
    once = [("partner", 5, 2), ("hq", "11.2.a.a", 2), ("mazur", 11, 2)]
    assert built == once
    run_example(3)
    assert built == once * 2
    assert run_example(2).records == first and run_example(3).ok
    assert built == once * 2


def test_build_example_is_kept_read_only():
    # the kept run is what a build anew holds, and no caller can change it
    for number in EXAMPLES:
        kept = build_example(number)
        assert build_example(number) is kept
        assert example_state(kept) == example_state(kept_example.__wrapped__(number, 1, 8))
        with pytest.raises(TypeError):
            kept["p"] = 7
        for key in ("raw", "dressed"):
            with pytest.raises(TypeError):
                kept[key][1] = kept[key][2]


def test_build_example_keeps_one_run_however_it_is_called():
    # the defaults, written out or as keywords, name the same kept run
    kept_example.cache_clear()
    kept = build_example(1)
    assert build_example(1, 1, 8) is kept
    assert build_example(1, wild_level=1, M=8) is kept
    assert build_example(number=1, M=8) is kept
    assert run_example(1).ok and build_example(1) is kept
    assert kept_example.cache_info().currsize == 1


def test_a_failed_eisenstein_partner_keeps_nothing():
    # one stored coefficient, short of the Sturm bound 2 at level 11: the
    # same error on every call
    h = NewformData("short", 11, 2, DirichletCharacter.trivial(11), (0, 1), [1])
    state = dict(vars(h))
    messages = []
    for _ in range(2):
        with pytest.raises(IngestionError) as exc:
            eisenstein_partner(h, 5, h.congruence_ideal(5))
        messages.append(str(exc.value))
        assert vars(h) == state
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
