"""Bundled verification runs for the three reference congruence pairs,
and the symbol pair of a rational form.

`symbol_pair` cuts a rational form's plus and minus eigensymbols out of
its symbol space with Hecke probes it picks from the form's stored
coefficients; the symbol commands of the CLI use it too.  Each run
builds the (twisted) symbol, its branch family (`padic_l.branch_family`,
as `padic-l` does: the branch series, their values at the trivial
character and their verdicts) and the residual Eisenstein partner of
the congruent form, and checks every recorded expectation.  Failures do
not abort the run; every check ends up in the report with a
pass/fail/skipped status.
`eisenstein_partner` builds that partner for `congruence` too, and
`add_partner_check` writes the record of its check for both.  What a
run builds is kept in one place: the bundled run whole per (number,
wild_level, M) (`build_example`), so a repeat run builds no space, no
symbol, no q-series and no branch family.  A symbol space lives as long
as the pair `symbol_pair` cuts out of it, and a pair keeps its own rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .arith import is_prime
from .characters import DirichletCharacter, kronecker
from .cyclotomic import CyclotomicNumber
from .iwasawa import undetermined_text
from .modsym import (
    EigenspaceError, ModularSymbolSpace, SymbolPair, line_functional, restrict_kernel,
    sign_kernel, twist_symbol,
)
from .newforms import bundled, residual_eisenstein_partner
from .padics import padic_valuation
from .padic_l import branch_family, partner_branch, value_record
from .qseries import check_congruence, mazur_eisenstein, sturm_bound

__all__ = [
    "EXAMPLES",
    "VerificationReport",
    "add_partner_check",
    "build_example",
    "eisenstein_partner",
    "omega_twist_sum",
    "run_example",
    "symbol_pair",
]

class VerificationReport:
    """Ordered list of check records, one dict each."""

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

    def add_match(self, check_id, claim, cmp):
        """A check that two q-series agree; `cmp` is their
        `qseries.check_congruence` report."""
        self.add(check_id, claim, cmp.ok,
                 f"checked={cmp.checked} mismatches={len(cmp.mismatches)}",
                 "0 mismatches", "exact")

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
    The loop holds both signs' kernels (`modsym.sign_kernel`): for each
    prime it builds the T_l images once and restricts both kernels by
    them (`modsym.restrict_kernel`), then reads each sign's line
    (`modsym.line_functional`).  The space keeps only its quotient and
    its P^1 tables; it, the eigenfunctionals and the pair are new on each
    call and live as long as the pair.

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
    space = ModularSymbolSpace(nf.level)
    kernels = [sign_kernel(space, sign, None) for sign in (1, -1)]
    ells = []
    for ell in range(2, nf.n_max + 1):
        if nf.level % ell == 0 or not is_prime(ell):
            continue
        ells.append(str(ell))
        images = space.hecke_images(ell)
        kernels = [restrict_kernel(kern, images, nf.a(ell)) for kern in kernels]
        found = []
        for kern in kernels:
            try:
                found.append(line_functional(kern))
            except EigenspaceError as exc:
                if not exc.dim:
                    raise ValueError(f"{nf.label}: no eigensymbol has the "
                                     f"stored a_l at l = {', '.join(ells)} ({exc})") from None
        if len(found) == 2:
            return SymbolPair(*found, nf.level, nf.label)
    raise ValueError(
        f"{nf.label}: the stored a_l at the primes l <= {nf.n_max} prime to "
        f"{nf.level} do not cut out one eigensymbol per sign")


def eisenstein_partner(h, p, ideal):
    """The residual Eisenstein partner of h at p, for the residual pair
    (omega_bar, 1), and its check: (bound, hq, g, m, dep).

    bound is h's Sturm bound (agreement that far is agreement), so h's
    q-expansion hq and the partner g with multiplier m are built only
    that far; dep compares hq and g with their coefficients at multiples
    of p dropped, modulo `ideal`, h's congruence ideal above p.
    """
    bound = sturm_bound(h.weight, h.level)
    g, m = residual_eisenstein_partner(
        p, DirichletCharacter.teichmuller(p), DirichletCharacter.trivial(1),
        h.level, h.weight, bound)
    hq = h.q_expansion(bound)
    return bound, hq, g, m, check_congruence(hq.deplete(p), g.deplete(p), ideal, bound)


def add_partner_check(rep, check_id, h, p, dep):
    """The record of `eisenstein_partner`'s check dep."""
    rep.add_match(check_id, f"{h.label} matches its residual Eisenstein "
                  f"partner through the Sturm bound away from {p}", dep)


def build_example(number, wild_level=1, M=8):
    """The working objects of one bundled run in a read-only mapping, kept
    per (number, wild_level, M) however the arguments are spelled
    (`kept_example`): the symbol (twisted and renormalized when the
    configuration says so), both forms, the sigma0 Euler factors, the
    branch family (`padic_l.BranchFamily`: alpha, the raw and dressed
    series, the values at the trivial character and the verdicts of
    every branch) and h's Eisenstein checks on one q-expansion through
    its Sturm bound: the partner's m and check, and h against
    E2(z) - t E2(tz), at indices prime to p and 0."""
    return kept_example(number, wild_level, M)


@lru_cache(maxsize=len(EXAMPLES))
def kept_example(number, wild_level, M):
    """`build_example` with every argument given, the key of its cache."""
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
    family = branch_family(sym, ap, p, wild_level, M, sigma0)
    h, t = bundled(cfg["h"]), cfg["mazur_t"]
    ideal = h.congruence_ideal(p)
    bound, hq, _, m, partner = eisenstein_partner(h, p, ideal)
    return MappingProxyType({
        "number": number,
        "p": p,
        "f": f,
        "h": h,
        "sym": sym,
        "sigma0": sigma0,
        "family": family,
        "mazur_t": t,
        "m": m,
        "partner": partner,
        "mazur": check_congruence(hq, mazur_eisenstein(t, bound), ideal, bound,
                                  coprime_to=p),
    })


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


def _read_value(v):
    """(valuation, text) of a one-term value, read once: the valuation is
    None when v vanishes to its precision."""
    rec = value_record(v)
    if rec["valuation"] is None:
        return None, f"0 (to p^{rec['vanishes_to']})"
    return rec["valuation"], f"val={rec['valuation']} unit={rec['unit_digits']}"


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
    p, sym, family = ex["p"], ex["sym"], ex["family"]
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
    for j, v in family.values.items():
        val, text = _read_value(v)
        if j in zero_js:
            rep.add(f"{tag}.value.j{j}",
                    f"branch {j} value at the trivial character vanishes",
                    val is None, text, "0 (exactly)", "exact")
        else:
            rep.add(f"{tag}.value.j{j}",
                    f"branch {j} value at the trivial character is a p-adic "
                    f"unit",
                    val == 0, text, "val=0", "valuation")

    if number == 1:
        same = (omega_twist_sum(sym, p, 4) - omega_twist_sum(sym, p, 6)).is_zero()
        rep.add(f"{tag}.ratio.j4j6",
                "branch 4 and branch 6 values agree exactly",
                same, "difference of twisted sums " + ("0" if same else "nonzero"),
                "0", "exact")
        prod = None
        for j, v in family.values.items():
            if j not in zero_js:
                prod = v if prod is None else prod * v
        val, text = _read_value(prod)
        rep.add(f"{tag}.product.nonzero-branches",
                "product of the nonvanishing branch values is a p-adic unit",
                val == 0, text, "val=0", "valuation")

    # --- branch power series, invariants, and product verdicts ---
    expect_inv = _NONTRIVIAL_INVARIANTS[number]
    for j, bs in family.raw.items():
        want_mu, want_lam = expect_inv.get(j, (0, 0))
        got = bs.invariants
        got_s = (f"(mu, lambda) = {got}" if got else
                 f"undetermined: {undetermined_text(bs.M, len(bs.masses))}")
        rep.add(f"{tag}.series.j{j}.invariants",
                f"branch {j} series has (mu, lambda) = "
                f"({want_mu}, {want_lam})",
                got == (want_mu, want_lam), got_s,
                f"(mu, lambda) = ({want_mu}, {want_lam})", "exact")

    t_js = set(_T_VERDICTS[number])
    for j, verdict in family.verdicts.items():
        partner = partner_branch(j, p)
        want = "(T)" if j in t_js else "(1)"
        rep.add(f"{tag}.verdict.j{j}",
                f"product of branches {j} and {partner} generates {want} "
                f"modulo the maximal ideal",
                verdict == want, verdict, want, "up-to-unit")

    # --- Eisenstein congruence of the companion form ---
    h, m, t = ex["h"], ex["m"], ex["mazur_t"]
    rep.add(f"{tag}.congruence.m",
            f"residual partner of {h.label} has multiplier m = {h.level}",
            m == h.level, m, h.level, "exact")
    add_partner_check(rep, f"{tag}.congruence.partner", h, p, ex["partner"])
    rep.add_match(f"{tag}.congruence.mazur",
                  f"{h.label} matches E2(z) - {t} E2({t}z) through the Sturm "
                  f"bound including the constant term", ex["mazur"])
    return rep
