"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion verdict
lines, or `-s` to see the bracketed summaries as they are produced.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

import iwrank
import iwrank.padic_l as padic_l_module
from iwrank.characters import DirichletCharacter, all_characters, kronecker
from iwrank.examples import EXAMPLES, build_example, omega_twist_sum
from iwrank.iwasawa import PadicSeries, mu_lambda
from iwrank.newforms import bundled, residual_eisenstein_partner
from iwrank.padic_l import (
    PRODUCT_NOTE,
    apply_sigma0,
    branch_report,
    branch_series,
    branch_value_trivial,
    product_congruence_verdict,
    symbol_measure,
)
from iwrank.padics import padic_valuation
from iwrank.qseries import check_congruence, eisenstein_series, \
    mazur_eisenstein, sturm_bound
from reference import t_series

F = Fraction

BUILD_TIMES = {}
PROPERTY_BUDGET_SECONDS = 300.0


def _line(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")


@pytest.fixture(scope="module")
def ex_all():
    out = {}
    t0 = time.perf_counter()
    out[1] = build_example(1)
    BUILD_TIMES[1] = time.perf_counter() - t0
    out[2] = build_example(2)
    out[3] = build_example(3)
    return out


@pytest.fixture(scope="module")
def series_all(ex_all):
    out = {}
    for n, ex in ex_all.items():
        span = ex["p"] - 1
        # a_p of the example's symbol: the twist by d multiplies it by (d/p)
        disc = EXAMPLES[n]["twist_disc"]
        ap = ex["f"].a(ex["p"]) * (1 if disc is None else kronecker(disc, ex["p"]))
        series = {}
        for _, sgn, balls in symbol_measure(ex["sym"], ap, ex["p"], 1, 8):
            series.update(branch_series(balls, ex["p"], range(2 if sgn > 0 else 1, span + 1, 2),
                                        8, ex["sym"].label))
        out[n] = {j: series[j] for j in range(1, span + 1)}
    return out


@pytest.fixture(scope="module")
def dressed_all(ex_all, series_all):
    out = {}
    for n, ex in ex_all.items():
        out[n] = {j: apply_sigma0(bs, list(ex["sigma0"]))
                  for j, bs in series_all[n].items()}
    return out


def _table_matches(got, want, p):
    """One global scale of p-adic valuation zero; ratios otherwise exact."""
    pivot = next(i for i, w in enumerate(want) if w)
    if got[pivot] == 0:
        return False, "pivot entry vanishes"
    c = F(got[pivot]) / F(want[pivot])
    if padic_valuation(c, p) != 0:
        return False, f"scale {c} is not a {p}-adic unit"
    for i, w in enumerate(want):
        if F(got[i]) != c * F(w):
            return False, f"entry {i}: {got[i]} != {c} * {w}"
    return True, f"scale {c}"


def test_criterion_1_twisted_symbol_tables(ex_all):
    sym = ex_all[1]["sym"]
    plus, minus = ([row[b] - row[0] for b in range(1, 11)]
                   for row in (sym.evaluate_row(11, s) for s in (1, -1)))
    okp, dp = _table_matches(plus, [2, 0, 5, 5, 0, 0, 5, 5, 0, 2], 11)
    okm, dm = _table_matches(minus, [0, 0, -5, 5, 0, 0, -5, 5, 0, 0], 11)
    fast = BUILD_TIMES[1] < 60.0
    ok = okp and okm and fast
    _line("criterion 1: quadratic-twist symbol tables at the 11-division "
          "points", ok,
          f"plus {dp}; minus {dm}; build {BUILD_TIMES[1]:.1f}s < 60s")
    assert okp, f"plus table: {dp}; computed {plus}"
    assert okm, f"minus table: {dm}; computed {minus}"
    assert fast, f"level-11 build took {BUILD_TIMES[1]:.1f}s"


def test_criterion_2_untwisted_symbol_tables(ex_all):
    cases = {
        2: ([1, 1, 1, 1], [1, 1, -1, -1]),
        3: ([F(-1, 2), 1, 1, F(-1, 2)], [F(1, 2), 0, 0, F(-1, 2)]),
    }
    problems = []
    for n, (wp, wm) in cases.items():
        sym = ex_all[n]["sym"]
        plus, minus = ([row[b] - row[0] for b in range(1, 5)]
                       for row in (sym.evaluate_row(5, s) for s in (1, -1)))
        okp, dp = _table_matches(plus, wp, 5)
        okm, dm = _table_matches(minus, wm, 5)
        if not okp:
            problems.append(f"example {n} plus: {dp}")
        if not okm:
            problems.append(f"example {n} minus: {dm}")
    _line("criterion 2: symbol tables at the 5-division points", not problems,
          "; ".join(problems) or "both examples proportional, unit scales")
    assert not problems, problems


def test_criterion_3_branch_values(ex_all):
    ex = ex_all[1]
    sym, alpha = ex["sym"], ex["family"].alpha
    vals = {j: branch_value_trivial(sym, 11, alpha, j) for j in range(0, 10)}
    problems = []
    if not vals[5].is_zero():
        problems.append(f"branch 5 value {vals[5].ints} is not exactly zero")
    for j in range(0, 10):
        if j != 5 and mu_lambda(vals[j])[0] != 0:
            problems.append(f"branch {j} valuation "
                            f"{mu_lambda(vals[j])[0]} != 0")
    # the central pair agrees on the nose: same cyclotomic sum, ratio one
    if omega_twist_sum(sym, 11, 4) != omega_twist_sum(sym, 11, 6):
        problems.append("branch sums at j = 4 and j = 6 differ")
    if vals[4] != vals[6]:
        problems.append(f"value(4)/value(6) != 1: {vals[4].ints} vs "
                        f"{vals[6].ints} mod 11^{alpha.M}")
    prod = PadicSeries(11, alpha.M, 1, [1])
    for j in range(0, 10):
        if j == 5:
            continue
        prod = prod * vals[j]
    if mu_lambda(prod)[0] != 0:
        problems.append(f"product over non-vanishing branches has "
                        f"valuation {mu_lambda(prod)[0]}")
    _line(f"criterion 3: branch values at working precision {alpha.M}",
          not problems,
          "; ".join(problems) or
          "j=5 exact zero, nine units, ratio(4,6)=1, unit product")
    assert not problems, problems


def test_criterion_4_branch_series_invariants(series_all):
    # The contract's (0, 1) for example 2 branch 2 is disproved by
    # tests/test_padic_l.py::test_period_integrals_52a: float period
    # integrals of the 52.2.a.a q-expansion confirm the symbols, and the
    # omega^2-branch masses (-4, -8, 8, 4, 0) give lambda = 3.
    expected = {1: {5: (0, 1)}, 2: {2: (0, 3)}, 3: {}}
    problems = []
    for n, branch_map in series_all.items():
        for j, bs in branch_map.items():
            got = mu_lambda(t_series(bs))
            want = expected[n].get(j, (0, 0))
            if bs.invariants != got:
                problems.append(
                    f"example {n} branch {j}: masses give {bs.invariants}, "
                    f"the T-basis series {got}")
            if got != want:
                problems.append(
                    f"example {n} branch {j}: computed (mu, lambda) = "
                    f"{got}, criterion expects {want}")
    _line("criterion 4: one-level branch series invariants", not problems,
          "; ".join(problems) or "all branches match")
    assert not problems, problems


def test_criterion_5_congruence_verdicts(ex_all, dressed_all):
    # Example 2: the contract's (T) is replaced by (T^3), since branch 2
    # has lambda = 3 (tests/test_padic_l.py::test_period_integrals_52a)
    # and the sigma0 factor 1 + 2X + 11X^2 is 14 = 4 mod (5, T), a unit.
    expected_ideal = {1: {4: "(T)", 5: "(T)"},
                      2: {1: "(T^3)", 2: "(T^3)"},
                      3: {}}
    problems = []
    for n, dressed in dressed_all.items():
        span = ex_all[n]["p"] - 1
        for j in range(1, span + 1):
            v = product_congruence_verdict(dressed[j],
                                           dressed[j % span + 1])
            want = expected_ideal[n].get(j, "(1)")  # else the unit ideal
            if v != want:
                problems.append(
                    f"example {n} branch {j}: computed {v}, "
                    f"criterion expects {want}")
    _line("criterion 5: product congruence verdicts", not problems,
          "; ".join(problems) or "all verdicts match")
    assert not problems, problems


def test_criterion_6_eisenstein_congruences():
    problems = []
    for label, p, t in (("23.2.a", 11, 23), ("11.2.a.a", 5, 11)):
        h = bundled(label)
        g, m = residual_eisenstein_partner(
            p, DirichletCharacter.teichmuller(p), DirichletCharacter.trivial(1),
            h.level, 2, h.n_max)
        ideal = h.congruence_ideal(p)
        bound = sturm_bound(2, h.level)
        full = check_congruence(h.q_expansion(), mazur_eisenstein(t, h.n_max),
                                ideal, bound, coprime_to=p)
        away = check_congruence(h.q_expansion().deplete(p), g.deplete(p),
                                ideal, bound)
        if m != h.level:
            problems.append(f"{label}: multiplier {m} != {h.level}")
        if not full.ok:
            problems.append(f"{label}: {len(full.mismatches)} mismatches "
                            f"against the weight-2 combination")
        if not away.ok:
            problems.append(f"{label}: {len(away.mismatches)} mismatches "
                            f"against the residual partner away from {p}")
    _line("criterion 6: Eisenstein congruences through the Sturm bound",
          not problems, "; ".join(problems) or
          "both pairs congruent, constant term included")
    assert not problems, problems


def _suite_eisenstein_hecke(target=500):
    pool = []
    for m in (1, 3, 4, 5, 7, 8, 9, 12):
        pool += [c for c in all_characters(m) if c.is_primitive()]
    cache = {}

    def series(th, ph, l):
        key = (th.to_descriptor(), ph.to_descriptor(), l)
        if key not in cache:
            cache[key] = eisenstein_series(th, ph, l, 200)
        return cache[key]

    rng = random.Random(1463)
    cases = fails = 0
    while cases < target:
        th, ph = rng.choice(pool), rng.choice(pool)
        ls = [l for l in range(1, 7)
              if (-1) ** l == th.parity() * ph.parity()]
        if not ls:
            continue
        l = rng.choice(ls)
        if l == 2 and th.conductor() == 1 and ph.conductor() == 1:
            continue
        E = series(th, ph, l)
        if rng.random() < 0.5:
            while True:
                a = rng.randrange(2, 15)
                b = rng.randrange(2, 200 // a + 1)
                if gcd(a, b) == 1:
                    break
            ok = E.a(a) * E.a(b) == E.a(a * b)
        else:
            ell = rng.choice([2, 3, 5, 7])
            n = rng.randrange(1, 200 // ell + 1)
            rhs = E.a(ell * n)
            if n % ell == 0:
                rhs = rhs + th(ell) * ph(ell) * ell ** (l - 1) * E.a(n // ell)
            ok = E.a(ell) * E.a(n) == rhs
        fails += 0 if ok else 1
        cases += 1
    return cases, fails


def _suite_gauss_all_primitive(top=60):
    cases = fails = 0
    for m in range(1, top + 1):
        prim = [c for c in all_characters(m) if c.is_primitive()]
        sums = {c.to_descriptor(): c.gauss_sum() for c in prim}
        for c in prim:
            lhs = sums[c.to_descriptor()] * sums[c.conjugate().to_descriptor()]
            if lhs != c(-1) * m:
                fails += 1
            cases += 1
    return cases, fails


def _suite_gauss_factorization(target=100):
    pool = {m: [c for c in all_characters(m) if c.is_primitive()]
            for m in (3, 4, 5, 7, 8, 9, 11, 13)}
    mods = list(pool)
    rng = random.Random(4001)
    cases = fails = 0
    while cases < target:
        m, q = rng.choice(mods), rng.choice(mods)
        if gcd(m, q) != 1:
            continue
        chi, psi = rng.choice(pool[m]), rng.choice(pool[q])
        lhs = (chi * psi).gauss_sum()
        rhs = chi(q) * psi(m) * chi.gauss_sum() * psi.gauss_sum()
        if lhs != rhs:
            fails += 1
        cases += 1
    return cases, fails


def _suite_invariant_additivity(target=200):
    rng = random.Random(20260823)
    cases = fails = 0
    while cases < target:
        parts = []
        for _ in range(2):
            mu = rng.randrange(0, 2)
            lam = rng.randrange(0, 4)
            cs = [11 * rng.randrange(1, 120) for _ in range(lam)]
            cs.append(rng.choice([1, 2, 3, 5, 7, 13, 24]))
            cs += [rng.randrange(0, 120) for _ in range(rng.randrange(0, 4))]
            parts.append((mu, lam, PadicSeries(11, 12, 8,
                                               [11 ** mu * c for c in cs])))
        (m1, l1, s1), (m2, l2, s2) = parts
        if mu_lambda(s1 * s2) != (m1 + m2, l1 + l2):
            fails += 1
        cases += 1
    return cases, fails


def _suite_twist_untwist(target=50):
    qpool = []
    for m in (3, 4, 5, 7, 9):
        qpool += [c for c in all_characters(m) if c.is_primitive()]
    triv = next(iter(all_characters(1)))
    forms = [bundled("11.2.a.a").q_expansion(),
             bundled("19.2.a.a").q_expansion(),
             bundled("52.2.a.a").q_expansion(),
             eisenstein_series(triv, triv, 4, 120)]
    rng = random.Random(555)
    cases = fails = 0
    while cases < target:
        f = rng.choice(forms)
        chi = rng.choice(qpool)
        tt = f.twist(chi).twist(chi.conjugate())
        dep = f.deplete(chi.modulus)
        n_top = min(tt.n_max, dep.n_max, 120)
        if not all(tt.a(n) == dep.a(n) for n in range(n_top + 1)):
            fails += 1
        cases += 1
    return cases, fails


def _suite_path_independence(pairs, target=100):
    rng = random.Random(88)
    cases = fails = 0
    while cases < target:
        pair, nf = rng.choice(pairs)
        ell = rng.choice([l for l in (2, 3, 5, 7) if nf.level % l])
        r = F(rng.randrange(-60, 60), rng.randrange(1, 48))
        sign = rng.choice([1, -1])
        lhs = nf.a(ell) * pair.evaluate(r, sign)
        rhs = pair.evaluate(ell * r, sign) + sum(
            pair.evaluate((r + k) / ell, sign) for k in range(ell))
        if lhs != rhs:
            fails += 1
        cases += 1
    return cases, fails


def test_criterion_7_property_suites(pair11, pair19, pair52):
    t0 = time.perf_counter()
    pairs = [(pair11, bundled("11.2.a.a")),
             (pair19, bundled("19.2.a.a")),
             (pair52, bundled("52.2.a.a"))]
    results = {
        "eisenstein-hecke": _suite_eisenstein_hecke(500),
        "gauss-conjugate": _suite_gauss_all_primitive(60),
        "gauss-factorization": _suite_gauss_factorization(100),
        "invariant-additivity": _suite_invariant_additivity(200),
        "twist-untwist": _suite_twist_untwist(50),
        "path-independence": _suite_path_independence(pairs, 100),
    }
    elapsed = time.perf_counter() - t0
    counts = {k: c for k, (c, f) in results.items()}
    failures = {k: f for k, (c, f) in results.items() if f}
    want = {"eisenstein-hecke": 500, "gauss-factorization": 100,
            "invariant-additivity": 200, "twist-untwist": 50,
            "path-independence": 100}
    sized = all(counts[k] == v for k, v in want.items())
    ok = not failures and sized and elapsed < PROPERTY_BUDGET_SECONDS
    detail = ", ".join(f"{k}={c}" for k, c in counts.items())
    _line("criterion 7: randomized property suites", ok,
          f"{detail}; failures {failures or 'none'}; {elapsed:.0f}s")
    assert not failures, failures
    assert sized, counts
    assert elapsed < PROPERTY_BUDGET_SECONDS, f"{elapsed:.0f}s"


def test_criterion_8_product_scope(ex_all, dressed_all):
    problems = []
    for n, dressed in dressed_all.items():
        span = ex_all[n]["p"] - 1
        for j, bs in dressed.items():
            verdict = product_congruence_verdict(dressed[j],
                                                 dressed[j % span + 1])
            rec = branch_report(bs, ex_all[n]["family"].alpha, value=None,
                                verdict=verdict)
            if rec.get("note") != PRODUCT_NOTE:
                problems.append(f"example {n} branch {j} report lacks the "
                                f"product-scope note")
    banned = ("rankin", "selberg", "convolution")
    for space in (padic_l_module, iwrank):
        for name in dir(space):
            low = name.lower()
            if any(b in low for b in banned):
                problems.append(f"{space.__name__}.{name} exposes a "
                                f"convolution-style constructor")
    _line("criterion 8: product-scope note present, no convolution "
          "constructor", not problems,
          "; ".join(problems) or "all reports annotated, namespace clean")
    assert not problems, problems
