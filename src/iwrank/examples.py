"""Bundled verification runs for the three reference congruence pairs,
and the symbol pair of a rational form.

`symbol_pair` cuts a rational form's plus and minus eigensymbols out of
its symbol space with Hecke probes it picks from the form's stored
coefficients; the symbol commands of the CLI use it too.  Each run
builds the (twisted) symbol, its branch family (`padic_l.branch_family`,
as `padic-l` does), the branch values at the trivial character and the
residual Eisenstein partner of the congruent form, and checks every
recorded expectation.  Failures do not abort the run; every check ends
up in the report with a pass/fail/skipped status.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import is_prime
from .characters import DirichletCharacter, kronecker
from .cyclotomic import CyclotomicNumber
from .iwasawa import mu_lambda, undetermined_text
from .modsym import (
    EigenspaceError, SymbolPair, build_space, eigen_functional, twist_symbol,
)
from .newforms import bundled, residual_eisenstein_partner
from .padics import padic_valuation
from .padic_l import (
    _value_record,
    branch_family,
    branch_value_trivial,
    format_report,
    product_congruence_verdict,
)
from .qseries import check_congruence, mazur_eisenstein, sturm_bound

__all__ = [
    "EXAMPLES",
    "VerificationReport",
    "build_example",
    "omega_twist_sum",
    "run_example",
    "symbol_pair",
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
        return [format_report(r) for r in self.records]

    def failures(self):
        return [r for r in self.records if r["status"] == "fail"]


# --- configuration ----------------------------------------------------

EXAMPLES = {
    1: {
        "p": 11,
        "f": "11.2.a.a",
        "twist_disc": -23,
        "h": "23.2.a",
        # Euler factor of the twisted form at 23 is trivial
        "sigma0": ((23, (1,)),),
        "mazur_t": 23,
    },
    2: {
        "p": 5,
        "f": "52.2.a.a",
        "twist_disc": None,
        "h": "11.2.a.a",
        # 1 - a_11 X + 11 X^2 with a_11 = -2
        "sigma0": ((11, (1, 2, 11)),),
        "mazur_t": 11,
    },
    3: {
        "p": 5,
        "f": "19.2.a.a",
        "twist_disc": None,
        "h": "11.2.a.a",
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


def _poly_text(poly):
    """A monic polynomial from its ascending coefficients: x^2 - 5 for
    (-5, 0, 1)."""
    terms = [(c, "" if k == 0 else "x" if k == 1 else f"x^{k}")
             for k, c in enumerate(poly) if c][::-1]
    return " ".join(f"{'-' if c < 0 else '+'} {abs(c) if abs(c) != 1 or not x else ''}{x}"
                    for c, x in terms)[2:]


def symbol_pair(nf):
    """The plus and minus eigensymbols of a rational form, cut out of its
    symbol space by the stored a_l at the primes l prime to the level,
    taken in increasing order until each sign's eigenspace is a line.

    Raises ValueError when an eigenspace is 0 (no eigensymbol has these
    eigenvalues) or the stored primes run out first.
    """
    if not nf.is_rational:
        # a Hecke field first needs its embedding into Z_p
        raise ValueError(
            f"{nf.label} has Hecke field Q[x]/({_poly_text(nf.field_poly)}); "
            f"the p-adic layer reads rational symbols only")
    if nf.weight != 2 or not nf.nebentypus.is_trivial():
        raise ValueError(f"{nf.label}: the symbols are those of weight 2 on "
                         f"Gamma0(N), so the form needs weight 2 and a "
                         f"trivial character")
    space = build_space(nf.level)
    targets = []
    for ell in range(2, nf.n_max + 1):
        if nf.level % ell == 0 or not is_prime(ell):
            continue
        targets.append((ell, nf.a(ell)))
        found = []
        for sign in (1, -1):
            try:
                found.append(eigen_functional(space, targets, sign))
            except EigenspaceError as exc:
                if not exc.dim:
                    ells = ", ".join(str(q) for q, _ in targets)
                    raise ValueError(f"{nf.label}: no eigensymbol has the "
                                     f"stored a_l at l = {ells} ({exc})") from None
        if len(found) == 2:
            return SymbolPair(*found, nf.level, label=nf.label)
    raise ValueError(
        f"{nf.label}: the stored a_l at the primes l <= {nf.n_max} prime to "
        f"{nf.level} do not cut out one eigensymbol per sign")


def build_example(number, wild_level=1, M=8):
    """Assemble the working objects for one bundled run.

    Returns a dict with the cuspidal symbol (twisted and renormalized when
    the configuration says so), the congruent form, the sigma0 Euler
    factors, and the branch family at this wild level and M: alpha, the
    raw branch series and the series dressed with the sigma0 factors.
    """
    if number not in EXAMPLES:
        raise ValueError(f"no bundled example {number!r}")
    cfg = EXAMPLES[number]
    p = cfg["p"]
    f = bundled(cfg["f"])
    sym = symbol_pair(f)
    ap = f.a(p)
    disc = cfg["twist_disc"]
    if disc is not None:
        chi = DirichletCharacter.quadratic_by_discriminant(disc)
        sym = twist_symbol(sym, chi, p, label=f"{f.label}x{disc}")
        ap *= kronecker(disc, p)
    sigma0 = cfg["sigma0"] or ((11, (1, -f.a(11), 11)),)
    alpha, raw, dressed = branch_family(sym, ap, p, wild_level, M, sigma0)
    return {
        "number": number,
        "p": p,
        "f": f,
        "h": bundled(cfg["h"]),
        "sym": sym,
        "alpha": alpha,
        "sigma0": sigma0,
        "raw": raw,
        "dressed": dressed,
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


def omega_twist_sum(sym, p: int, j: int) -> CyclotomicNumber:
    """Sum over b of omegabar^j(b) x^{sgn}(b/p), exact in Q(zeta_{p-1}).

    sgn = (-1)^j: summing against the opposite eigencomponent cancels
    pairwise under b -> -b, so only this parity carries content.
    """
    jj = j % (p - 1)
    exps = DirichletCharacter.teichmuller(p).exponent_table()
    row = sym.evaluate_row(p, 1 if jj % 2 == 0 else -1)
    return CyclotomicNumber.from_monomials(
        p - 1, [(-jj * exps[b], row[b]) for b in range(1, p)])


def run_example(number, wild_level=1, M=8):
    """Run one bundled configuration and check every expectation.

    Returns a VerificationReport; the run always continues through
    failures so the report covers the full list of checks.
    """
    ex = build_example(number, wild_level, M)
    p, sym, alpha = ex["p"], ex["sym"], ex["alpha"]
    branches = range(1, p)
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
    zero_js = set(_ZERO_BRANCHES[number])
    values = {j: branch_value_trivial(sym, p, alpha, j) for j in branches}
    for j, v in values.items():
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
        for j in branches:
            if j not in zero_js:
                prod = values[j] if prod is None else prod * values[j]
        rep.add(f"{tag}.product.nonzero-branches",
                "product of the nonvanishing branch values is a p-adic unit",
                _is_unit(prod), _fmt_value(prod), "val=0",
                "valuation")

    # --- branch power series, invariants, and product verdicts ---
    expect_inv = _NONTRIVIAL_INVARIANTS[number]
    for j in branches:
        want_mu, want_lam = expect_inv.get(j, (0, 0))
        bs = ex["raw"][j]
        got = bs.invariants
        got_s = (f"(mu, lambda) = {got}" if got else
                 f"undetermined: {undetermined_text(bs.M, len(bs.masses))}")
        rep.add(f"{tag}.series.j{j}.invariants",
                f"branch {j} series has (mu, lambda) = "
                f"({want_mu}, {want_lam})",
                got == (want_mu, want_lam), got_s,
                f"(mu, lambda) = ({want_mu}, {want_lam})", "exact")

    t_js = set(_T_VERDICTS[number])
    dressed = ex["dressed"]
    for j in branches:
        partner = j % (p - 1) + 1
        verdict = product_congruence_verdict(dressed[j], dressed[partner])
        want = "(T)" if j in t_js else "(1)"
        rep.add(f"{tag}.verdict.j{j}",
                f"product of branches {j} and {partner} generates {want} "
                f"modulo the maximal ideal",
                verdict == want, verdict, want, "up-to-unit")

    # --- Eisenstein congruence of the companion form ---
    # (Sturm: agreement through the bound is agreement, so the series
    # are built only that far)
    h = ex["h"]
    bound = sturm_bound(2, h.level)
    hq = h.q_expansion(bound)
    g, m = residual_eisenstein_partner(p, DirichletCharacter.teichmuller(p),
                                       DirichletCharacter.trivial(1), h.level,
                                       2, bound)
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
    return rep
