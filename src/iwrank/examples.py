"""Bundled verification runs for the three reference congruence pairs.

Each run builds the cuspidal symbol, the residual Eisenstein partner of the
congruent form, all branch L-values and power series at the configured
prime, and checks every recorded expectation.  Failures do not abort the
run; every check ends up in the report with a pass/fail/skipped status.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .characters import DirichletCharacter, ResidualCharacter, kronecker
from .iwasawa import UndeterminedInvariants, mu_lambda
from .modsym import SymbolPair, build_space, eigen_functional, twist_symbol
from .newforms import ResidualPair, bundled, residual_eisenstein_partner
from .padics import padic_valuation
from .padic_l import (
    DEFAULT_DIGITS,
    _value_record,
    apply_sigma0,
    branch_report,
    branch_series,
    branch_value_trivial,
    choose_alpha,
    omega_twist_sum,
    product_congruence_verdict,
    working_precision,
)
from .qseries import check_congruence, mazur_eisenstein, sturm_bound

__all__ = [
    "EXAMPLES",
    "VerificationReport",
    "build_example",
    "run_example",
]

class VerificationReport:
    """Ordered list of check records; serializes one JSON object per line."""

    def __init__(self, example: int):
        self.example = example
        self.records = []

    def add(self, check_id, claim, ok, computed, expected, tolerance_kind):
        self.records.append({
            "check_id": check_id,
            "claim": claim,
            "status": "pass" if ok else "fail",
            "computed": str(computed),
            "expected": str(expected),
            "tolerance_kind": tolerance_kind,
        })

    def skip(self, check_id, claim, reason):
        self.records.append({
            "check_id": check_id,
            "claim": claim,
            "status": "skipped",
            "computed": str(reason),
            "expected": "",
            "tolerance_kind": "exact",
        })

    @property
    def ok(self) -> bool:
        return all(r["status"] == "pass" for r in self.records)

    def counts(self):
        c = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.records:
            c[r["status"]] += 1
        return c["pass"], c["fail"], c["skipped"]

    def to_lines(self):
        return [json.dumps(r, sort_keys=True, separators=(", ", ": "))
                for r in self.records]

    def failures(self):
        return [r for r in self.records if r["status"] == "fail"]


# --- configuration ----------------------------------------------------

# Hecke probes that cut the bundled forms out of their symbol spaces.
_TARGET_PRIMES = {
    "11.2.a.a": (2,),
    "19.2.a.a": (2,),
    "52.2.a.a": (5,),
}

EXAMPLES = {
    1: {
        "p": 11,
        "f": "11.2.a.a",
        "twist_disc": -23,
        "h": "23.2.a",
        "branches": (1, 10),
        # Euler factor of the twisted form at 23 is trivial
        "sigma0": ((23, (1,)),),
        "mazur_t": 23,
    },
    2: {
        "p": 5,
        "f": "52.2.a.a",
        "twist_disc": None,
        "h": "11.2.a.a",
        "branches": (1, 4),
        # 1 - a_11 X + 11 X^2 with a_11 = -2
        "sigma0": ((11, (1, 2, 11)),),
        "mazur_t": 11,
    },
    3: {
        "p": 5,
        "f": "19.2.a.a",
        "twist_disc": None,
        "h": "11.2.a.a",
        "branches": (1, 4),
        "sigma0": None,  # filled from the stored a_11 of the form
        "mazur_t": 11,
    },
}

# expected value tables (from-zero convention, up to one unit scalar per sign)
_TABLES = {
    1: ((2, 0, 5, 5, 0, 0, 5, 5, 0, 2), (0, 0, -5, 5, 0, 0, -5, 5, 0, 0)),
    2: ((1, 1, 1, 1), (1, 1, -1, -1)),
    3: ((Fraction(-1, 2), 1, 1, Fraction(-1, 2)),
        (Fraction(1, 2), 0, 0, Fraction(-1, 2))),
}

# branches whose trivial-character value vanishes identically
_ZERO_BRANCHES = {1: (5,), 2: (2,), 3: ()}

# The next two tables are the acceptance contract's claims, checked as
# stated.  Its example-2 branch-2 claim, (0, 1) and hence (T) for the
# verdicts of branches 1 and 2, is disproved by
# tests/test_padic_l.py::test_period_integrals_52a (the branch has
# lambda = 3, so both verdicts are (T^3)).  It is kept so that
# `verify-example 2` reports those three claims as failing.

# claimed (mu, lambda) when not (0, 0)
_NONTRIVIAL_INVARIANTS = {1: {5: (0, 1)}, 2: {2: (0, 1)}, 3: {}}

# branches whose product verdict is claimed to be (T) rather than (1)
_T_VERDICTS = {1: (4, 5), 2: (1, 2), 3: ()}


def _symbol_pair(nf):
    space = build_space(nf.level)
    targets = [(ell, Fraction(nf.a(ell))) for ell in _TARGET_PRIMES[nf.label]]
    plus = eigen_functional(space, targets, +1)
    minus = eigen_functional(space, targets, -1)
    return SymbolPair(plus, minus, nf.level, label=nf.label)


def build_example(number, wild_level=1, M=8):
    """Assemble the working objects for one bundled run.

    Returns a dict with the cuspidal symbol (twisted and renormalized when
    the configuration says so), the unit root alpha (to the digits the
    branch series at this wild level and M need, and at least
    DEFAULT_DIGITS), the congruent form, and the sigma0 Euler factors.
    """
    if number not in EXAMPLES:
        raise ValueError(f"no bundled example {number!r}")
    cfg = EXAMPLES[number]
    p = cfg["p"]
    f = bundled(cfg["f"])
    h = bundled(cfg["h"])
    pair = _symbol_pair(f)
    disc = cfg["twist_disc"]
    if disc is not None:
        chi = DirichletCharacter.quadratic_by_discriminant(disc)
        sym = twist_symbol(pair, chi, p, label=f"{f.label}x{disc}")
        ap = kronecker(disc, p) * f.a(p)
    else:
        sym = pair
        ap = f.a(p)
    digits = max(DEFAULT_DIGITS, working_precision(sym, p, wild_level, M))
    alpha = choose_alpha(ap, p, sym.level, prec=digits)
    sigma0 = cfg["sigma0"]
    if sigma0 is None:
        a11 = f.a(11)
        sigma0 = ((11, (1, -a11, 11)),)
    return {
        "number": number,
        "p": p,
        "f": f,
        "h": h,
        "sym": sym,
        "alpha": alpha,
        "sigma0": sigma0,
        "branches": cfg["branches"],
        "mazur_t": cfg["mazur_t"],
    }


def _match_table(computed, pattern, p):
    """computed == c * pattern for a single rational c with v_p(c) = 0."""
    pivot = None
    for got, want in zip(computed, pattern):
        if want != 0:
            pivot = (got, Fraction(want))
            break
    if pivot is None:
        return all(x == 0 for x in computed), Fraction(1)
    got0, want0 = pivot
    if got0 == 0:
        return False, Fraction(0)
    c = Fraction(got0) / want0
    if padic_valuation(c, p) != 0:
        return False, c
    ok = all(Fraction(x) == c * Fraction(w)
             for x, w in zip(computed, pattern))
    return ok, c


def _fmt_vals(vals):
    return "[" + ", ".join(str(v) for v in vals) + "]"


def _fmt_value(v):
    if v.is_zero():
        return f"0 (to p^{v.M})"
    rec = _value_record(v)
    return f"val={rec['valuation']} unit={rec['unit_digits']}"


def _is_unit(v):
    return not v.is_zero() and mu_lambda(v)[0] == 0


def run_example(number, wild_level=1, M=8):
    """Run one bundled configuration and check every expectation.

    Returns a VerificationReport; the run always continues through
    failures so the report covers the full list of checks.
    """
    if number not in EXAMPLES:
        raise ValueError(f"no bundled example {number}; choose from 1, 2, 3")
    ex = build_example(number, wild_level, M)
    p, sym, alpha = ex["p"], ex["sym"], ex["alpha"]
    tag = f"ex{number}"
    rep = VerificationReport(number)

    # --- value tables at the p-division points (from-zero convention) ---
    plus_tab, minus_tab = ([row[b] - row[0] for b in range(1, p)]
                           for row in (sym.evaluate_row(p, s) for s in (1, -1)))
    want_plus, want_minus = _TABLES[number]
    for name, got, want in (("plus", plus_tab, want_plus),
                            ("minus", minus_tab, want_minus)):
        ok, _ = _match_table(got, want, p)
        rep.add(f"{tag}.table.{name}",
                f"{name}-sign values at b/{p} proportional to "
                f"{_fmt_vals(want)} with a unit ratio",
                ok, _fmt_vals(got), _fmt_vals(want), "up-to-unit")

    # --- branch values at the trivial character ---
    lo, hi = ex["branches"]
    zero_js = set(_ZERO_BRANCHES[number])
    values = {}
    for j in range(lo, hi + 1):
        values[j] = branch_value_trivial(sym, p, alpha, j)
    for j in range(lo, hi + 1):
        v = values[j]
        if j in zero_js:
            rep.add(f"{tag}.value.j{j}",
                    f"branch {j} value at the trivial character vanishes",
                    v.is_zero(), _fmt_value(v), "0 (exactly)", "exact")
        else:
            rep.add(f"{tag}.value.j{j}",
                    f"branch {j} value at the trivial character is a p-adic "
                    f"unit",
                    _is_unit(v), _fmt_value(v), "val=0",
                    "valuation")

    if number == 1:
        s4 = omega_twist_sum(sym, p, 4)
        s6 = omega_twist_sum(sym, p, 6)
        rep.add(f"{tag}.ratio.j4j6",
                "branch 4 and branch 6 values agree exactly",
                (s4 - s6).is_zero(), "difference of twisted sums "
                + ("0" if (s4 - s6).is_zero() else "nonzero"), "0", "exact")
        prod = None
        for j in range(lo, hi + 1):
            if j in zero_js:
                continue
            prod = values[j] if prod is None else prod * values[j]
        rep.add(f"{tag}.product.nonzero-branches",
                "product of the nonvanishing branch values is a p-adic unit",
                _is_unit(prod), _fmt_value(prod), "val=0",
                "valuation")

    # --- branch power series, invariants, and product verdicts ---
    raw = {}
    for j in range(lo, hi + 1):
        raw[j] = branch_series(sym, p, alpha, j, n=wild_level, M=M,
                               twist_label=sym.label)
    dressed = {j: apply_sigma0(raw[j], ex["sigma0"]) for j in raw}

    expect_inv = _NONTRIVIAL_INVARIANTS[number]
    for j in range(lo, hi + 1):
        want_mu, want_lam = expect_inv.get(j, (0, 0))
        try:
            got = mu_lambda(raw[j].series)
            got_s = f"(mu, lambda) = {got}"
        except UndeterminedInvariants as exc:
            got = None
            got_s = f"undetermined: {exc}"
        rep.add(f"{tag}.series.j{j}.invariants",
                f"branch {j} series has (mu, lambda) = "
                f"({want_mu}, {want_lam})",
                got == (want_mu, want_lam), got_s,
                f"(mu, lambda) = ({want_mu}, {want_lam})", "exact")

    span = p - 1
    t_js = set(_T_VERDICTS[number])
    verdicts = {}
    for j in range(lo, hi + 1):
        partner = j % span + 1
        verdict = verdicts[j] = product_congruence_verdict(dressed[j],
                                                           dressed[partner])
        want = "(T)" if j in t_js else "(1)"
        rep.add(f"{tag}.verdict.j{j}",
                f"product of branches {j} and {partner} generates {want} "
                f"modulo the maximal ideal",
                str(verdict.ideal) == want, str(verdict.ideal), want,
                "up-to-unit")

    # --- Eisenstein congruence of the companion form ---
    # (Sturm: agreement through the bound is agreement, so the series
    # are built only that far)
    h = ex["h"]
    bound = sturm_bound(2, h.level)
    hq = h.q_expansion(bound)
    hbar = ResidualPair(p, ResidualCharacter.teichmuller(p),
                        ResidualCharacter.trivial(1, p), h.level)
    _, _, g, m = residual_eisenstein_partner(hbar, 2, bound)
    rep.add(f"{tag}.congruence.m",
            f"residual partner of {h.label} has multiplier m = {h.level}",
            m == h.level, m, h.level, "exact")
    ideal = h.congruence_ideal(p)
    dep = check_congruence(hq.deplete(p), g.deplete(p), ideal, bound)
    rep.add(f"{tag}.congruence.partner",
            f"{h.label} matches its residual Eisenstein partner through the "
            f"Sturm bound away from {p}",
            dep.ok, f"checked={dep.checked} mismatches={len(dep.mismatches)}",
            "0 mismatches", "exact")
    t = ex["mazur_t"]
    mz = check_congruence(hq, mazur_eisenstein(t, bound), ideal, bound,
                          coprime_to=p)
    rep.add(f"{tag}.congruence.mazur",
            f"{h.label} matches E2(z) - {t} E2({t}z) through the Sturm "
            f"bound including the constant term",
            mz.ok, f"checked={mz.checked} mismatches={len(mz.mismatches)}",
            "0 mismatches", "exact")

    rep.branch_reports = [
        branch_report(dressed[j], value=values[j],
                      exact_zero=values[j].is_zero(), verdict=verdicts[j])
        for j in range(lo, hi + 1)
    ]
    return rep
