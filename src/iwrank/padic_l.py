"""Branch values and branch power series of weight-2 eigensymbols.

For a p-ordinary eigensymbol pair this module computes the single values
of each tame branch at the trivial wild character and the Riemann-sum
branch series in Z/p^M[Z/p^n], with integers mod p-powers only: every
symbol value is read off a row (`evaluate_row`), and the tame twist
omega^-j(g^i) = omega(g)^(-ij) is p - 1 geometric weights.  A branch
series is built in two steps.  `symbol_measure`, the one step that picks
alpha and knows the one-root case p | N, gives each sign's masses of the
balls a + p^(n+1)Z_p, one sign at a time; `branch_series` projects ball
masses of any measure onto all requested branches in one pass.  A
branch series is kept in one basis, the masses of the group elements
gamma^c that the sum adds up, and never converted to the T-basis
(gamma = 1 + T): mu and lambda are read off the masses, a sigma0 Euler
factor multiplies them by its few nonzero masses, and the verdict for
the product of two branches comes from the factors' (mu, lambda) alone,
as mod p the ring is F_p[T]/(T^(p^n)).  `branch_family` is the one owner of a symbol's
per-branch results, for both `padic-l` and the bundled runs: it composes
the two steps, one projection per sign, into a `BranchFamily` of alpha,
the raw and dressed (sigma0) series of the requested branches and their
partners (`partner_branch`), and each requested branch's value at the
trivial character and verdict.  It keeps nothing, as the rows it reads
are kept on the symbol and a bundled run is kept whole
(`examples.build_example`).  `format_report` is the one JSON line format
of every report the CLI writes.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from types import MappingProxyType
from typing import NamedTuple

from .iwasawa import (
    PadicSeries,
    ideal_text,
    mass_mu_lambda,
    mu_lambda,
    padic_ints,
    reduce_ints,
    refuse_lost_digits,
)
from .padics import hensel_root, padic_valuation, smallest_primitive_root, teichmuller_lift

__all__ = [
    "OrdinarityError",
    "DEFAULT_DIGITS",
    "choose_alpha",
    "branch_value_trivial",
    "BranchSeries",
    "symbol_measure",
    "branch_series",
    "apply_sigma0",
    "BranchFamily",
    "branch_family",
    "partner_branch",
    "product_congruence_verdict",
    "branch_report",
    "value_record",
    "format_report",
]

# every report repeats this so nobody mistakes the verdict for an
# independent construction of the convolution measure
PRODUCT_NOTE = (
    "verdict taken from the product of the two congruent branch "
    "constituents; the convolution measure itself is not constructed"
)


# digits of alpha when the series need no more; the bundled reports
# print vanishing values as "0 (to p^14)"
DEFAULT_DIGITS = 14


class OrdinarityError(ArithmeticError):
    """a_p is not a p-adic unit, so there is no unit root."""


def choose_alpha(ap, p: int, level: int, prec: int = DEFAULT_DIGITS) -> PadicSeries:
    """The distinguished p-adic period root, a unit mod p^prec: a_p itself
    (the U_p eigenvalue) when p divides the level, else the unit root of
    the Hecke polynomial X^2 - a_p X + p, the Hensel lift of a_p."""
    shift, (a,) = padic_ints([ap], p, prec)
    if shift or a % p == 0:
        raise OrdinarityError(
            "U_p eigenvalue is not a unit" if level % p == 0 else
            "a_p vanishes mod p; Hecke polynomial has no unit root")
    if level % p:
        a = hensel_root([p, -a, 1], a, p, prec)
    return PadicSeries.from_ints(p, prec, 1, [a])


# -- branch values -----------------------------------------------------


@lru_cache(maxsize=32)
def _ball_rows(p: int, n: int) -> tuple:
    """The units a mod p^(n+1) by tame and wild coordinate: row i holds
    a = omega(g^i) u^c mod p^(n+1) at column c < p^n, for i < p - 1, g the
    least primitive root mod p and u = 1 + p, so <a> = a / omega(a) = u^c."""
    mod = p ** (n + 1)
    wild = _powers(1 + p, p**n, mod)
    # omega(g^i) is the weight of row i in the twist by omega^-j, j = -1
    return tuple(tuple(t * w % mod for w in wild) for t in _twist(p, n + 1, -1))


def _twist(p: int, W: int, j: int) -> list:
    """omega^-j(g^i) = omega(g)^(-ij) mod p^W, row i's weight, i < p - 1."""
    z = teichmuller_lift(smallest_primitive_root(p), p, W)
    return _powers(pow(z, -j % (p - 1), p**W), p - 1, p**W)


def _powers(x: int, count: int, m: int) -> list:
    """x^k mod m for k < count."""
    return list(accumulate(repeat(x, count - 1), lambda y, _: y * x % m, initial=1))


def branch_value_trivial(sym, p: int, alpha: PadicSeries, j: int) -> PadicSeries:
    """Value of branch j at the trivial wild character, a one-term series
    known mod p^W, W the digits of the unit alpha, read off the symbol row
    x^sgn(b/p), b = 0..p-1, sgn = (-1)^j (summing against the opposite
    sign cancels pairwise under b -> -b).

    Nontrivial tame branch: (1/2 alpha) sum_b omega^-j(b) x^sgn(b/p), half
    the sum of the branch masses.  Trivial branch: (1 - 1/alpha)^2 x^+(0).
    Values are meaningful up to the unit ambiguity of the symbol
    normalization, so callers compare valuations, vanishing and ratios.
    """
    W = alpha.M
    m = p**W
    ainv = pow(alpha.ints[0], -1, m)
    jj = j % (p - 1)
    row = sym.evaluate_row(p, 1 if jj % 2 == 0 else -1)
    if jj:
        # x(b/p) = p^shift * xs[b - 1] mod p^W
        shift, xs = padic_ints(row[1:], p, W)
        s = sum(w * xs[g - 1] for w, (g,) in zip(_twist(p, W, jj), _ball_rows(p, 0)))
        return PadicSeries.from_ints(p, W + shift, 1,
                                     [s * ainv * pow(2, -1, m)], shift)
    x0 = row[0]
    e = (1 - ainv) % m
    if e == 0 or x0 == 0:
        # a factor vanishing mod p^W is O(p^W) (alpha = 1 exactly at an
        # exceptional zero), so the product vanishes to the sum of the
        # factors' valuations or bounds
        v0 = padic_valuation(x0, p) if x0 else W
        return PadicSeries.from_ints(
            p, 2 * (padic_valuation(e, p) if e else W) + v0, 1, [0])
    # e^2 is known mod p^(W + v(e))
    M = W + padic_valuation(e, p) + padic_valuation(x0, p)
    shift, (x,) = padic_ints([x0], p, M)
    return PadicSeries.from_ints(p, M, 1, [e * e * x], shift)


# -- branch series -----------------------------------------------------


class BranchSeries:
    """A tame-branch series in Z_p[Z/p^n] mod p^M with its provenance.

    p^shift * masses[c] is the mass of gamma^c, known mod p^M, with
    shift = min(0, least valuation); `invariants` is its (mu, lambda),
    or None when the masses vanish mod p^M.
    """

    __slots__ = ("p", "M", "shift", "masses", "invariants", "j", "form",
                 "sigma0_factors")

    def __init__(self, p, M, masses, shift, j, form, sigma0_factors=()):
        self.p, self.M = p, M
        self.shift, self.masses = reduce_ints(p, M, shift, masses)
        self.invariants = mass_mu_lambda(p, self.shift, self.masses)
        self.j = j
        self.form = form
        self.sigma0_factors = tuple(sigma0_factors)


def symbol_measure(sym, ap, p: int, n: int, M: int):
    """(alpha, sgn, balls) for sgn = 1, then -1, the measure of `sym` at
    wild level n, mod p^M, one sign at a time.  alpha is the unit root for
    a_p = ap (`choose_alpha`) to the digits the balls so far need, at
    least DEFAULT_DIGITS, so the last has them for both signs.
    balls = (shift, masses): p^shift * masses[a] is the mass of the ball
    a + p^(n+1)Z_p, alpha^-(n+1) x(a/p^(n+1)) - alpha^-(n+2) x(a/p^n),
    known mod p^M, for a mod p^(n+1) (0 where p | a), with the second
    term dropped when p divides the level (one-root case).  The masses are
    reduced mod p^(M - shift), -shift the p-power in the symbol values'
    denominators.  Of the symbol it reads `evaluate_row` and `level`; the
    symbol keeps its row at p^(n+1), so the row at p^n, and the one at p
    that `branch_value_trivial` reads, are slices of it."""
    if n < 1:
        raise ValueError("wild level n >= 1 required")
    hi_len, order = p ** (n + 1), p**n
    steinberg = sym.level % p == 0
    alpha = None
    for sgn in (1, -1):
        hi = sym.evaluate_row(hi_len, sgn)
        shift, xs = padic_ints(hi if steinberg else hi + sym.evaluate_row(order, sgn), p, M)
        if alpha is None or alpha.M < M - shift:
            alpha = choose_alpha(ap, p, sym.level, prec=max(DEFAULT_DIGITS, M - shift))
        m = p ** (M - shift)
        ainv = pow(alpha.ints[0], -1, m)
        a_hi = pow(ainv, n + 1, m)
        a_lo = a_hi * ainv % m
        lo = [0] * order if steinberg else xs[hi_len:]
        masses = [(a_hi * x - a_lo * y) % m for x, y in zip(xs, lo * p)]
        masses[::p] = [0] * order
        del xs, lo  # one sign's row-sized lists at a time
        yield alpha, sgn, (shift, masses)
        del masses


def branch_series(balls, p: int, js, M: int, form=None) -> dict:
    """{j: branch j of a measure} for j in js, as the masses of elements of
    Z_p[Z/p^n] mod p^M.  balls = (shift, masses) holds, as
    `symbol_measure` gives them, the masses p^shift * masses[a] of the
    balls a + p^(n+1)Z_p for a mod p^(n+1), reduced mod p^(M - shift).
    Row i of `_ball_rows` is packed once into an int, ball c's mass in
    byte slot c, and branch j is read slot by slot off the sum of the rows
    times omega(g)^(-ij) (`_twist`); as p - 1 products of residues, no
    slot carries.  `form` names the series' source."""
    shift, xs = balls
    order = len(xs) // p
    m = p ** (M - shift)
    width = ((p - 1) * (m - 1) ** 2).bit_length() // 8 + 1
    packed = [int.from_bytes(b"".join([xs[a].to_bytes(width, "little") for a in row]), "little")
              for row in _ball_rows(p, padic_valuation(order, p))]
    out = {}
    for j in js:
        total = sum(w * row for w, row in zip(_twist(p, M - shift, j), packed))
        slots = total.to_bytes(order * width, "little")
        masses = [int.from_bytes(slots[k:k + width], "little")
                  for k in range(0, order * width, width)]
        out[j] = BranchSeries(p, M, masses, shift, j % (p - 1), form)
    return out


def apply_sigma0(bs: BranchSeries, factors) -> BranchSeries:
    """Multiply a branch series by the Euler factor of each (ell, poly) in
    factors, recording them; refuses duplicates, ell = p and a factor of
    negative valuation.  X -> ell^(-j-1) gamma^c, with c the wild
    coordinate of ell (an honest integer, so no binomial tail is cut),
    makes the factor sum_k poly[k] ell^(-k(j+1)) gamma^(k c): at most
    len(poly) group masses, each a cyclic shift-add of the masses."""
    p, M, order = bs.p, bs.M, len(bs.masses)
    n = padic_valuation(order, p)
    shift, masses = bs.shift, bs.masses
    applied = {ell for ell, _ in bs.sigma0_factors}
    new_factors = list(bs.sigma0_factors)
    for ell, poly in factors:
        if ell % p == 0:
            raise ValueError("sigma0 factors must avoid p")
        if ell in applied:
            raise ValueError(f"duplicate sigma0 factor at {ell}")
        applied.add(ell)
        c = next(r.index(ell % p ** (n + 1)) for r in _ball_rows(p, n) if r[0] % p == ell % p)
        terms = {}
        for k, a in enumerate(poly):
            e = k * c % order
            terms[e] = terms.get(e, 0) + Fraction(a, ell ** (k * (bs.j + 1)))
        f_shift, fs = padic_ints(list(terms.values()), p, M)
        refuse_lost_digits(M, shift, f_shift)
        out = [0] * order
        for e, f in zip(terms, fs):
            # gamma^e moves the mass of gamma^c' to gamma^(c' + e)
            rot = masses[order - e:] + masses[:order - e]
            out = [y + f * x for y, x in zip(out, rot)]
        shift, masses = reduce_ints(p, M, 0, out)
        new_factors.append((ell, tuple(poly)))
    return BranchSeries(p, M, masses, shift, bs.j, bs.form, new_factors)


class BranchFamily(NamedTuple):
    """The per-branch results of one symbol at wild level n, mod p^M, as
    `branch_family` hands them to its caller: alpha; raw[j], branch j's
    series, and dressed[j], that series times the sigma0 Euler factors
    (raw itself when there are none), for each requested branch j and its
    partner; and, for each requested branch in the order requested,
    values[j], its value at the trivial character, and verdicts[j], the
    residual ideal of the product of its dressed series and its
    partner's.  The mappings are read-only."""

    alpha: PadicSeries
    raw: MappingProxyType  # j -> BranchSeries
    dressed: MappingProxyType  # j -> BranchSeries
    values: MappingProxyType  # j -> PadicSeries
    verdicts: MappingProxyType  # j -> str


def branch_family(sym, ap, p: int, n: int, M: int, sigma0=(), branches=None) -> BranchFamily:
    """The `BranchFamily` of `sym` for the branches j in `branches`
    (default 1..p-1, each in 1..p-1) at wild level n, mod p^M: alpha and
    each sign's balls (`symbol_measure`), dropped once one `branch_series`
    projects them; raw[j], branch j of sign (-1)^j, and dressed[j] for j
    and `partner_branch(j, p)`, in increasing j; values[j]
    (`branch_value_trivial`) and verdicts[j] (`product_congruence_verdict`
    of j and its partner, dressed).  Of the symbol it reads
    `evaluate_row`, `level` and `label` only."""
    wanted = list(range(1, p) if branches is None else branches)
    needed = sorted({*wanted, *(partner_branch(j, p) for j in wanted)})
    raw = {}
    for alpha, sgn, balls in symbol_measure(sym, ap, p, n, M):
        raw.update(branch_series(balls, p, [j for j in needed if (-1) ** j == sgn], M, sym.label))
        del balls  # before the other sign's are built
    raw = MappingProxyType({j: raw[j] for j in needed})
    dressed = raw if not sigma0 else MappingProxyType(
        {j: apply_sigma0(bs, sigma0) for j, bs in raw.items()})
    return BranchFamily(
        alpha, raw, dressed,
        MappingProxyType({j: branch_value_trivial(sym, p, alpha, j) for j in wanted}),
        MappingProxyType({j: product_congruence_verdict(dressed[j], dressed[partner_branch(j, p)])
                          for j in wanted}))


# -- verdicts and reports ----------------------------------------------


def partner_branch(j: int, p: int) -> int:
    """The branch whose series the verdict of branch j multiplies by
    branch j's: j + 1, with p - 1 followed by 1."""
    return j % (p - 1) + 1


def product_congruence_verdict(bs1: BranchSeries, bs2: BranchSeries) -> str:
    """Residual ideal of the product of two branch series in
    F_p[T]/(T^(p^n)), as printed by `iwasawa.ideal_text`, read off the
    factors' (mu, lambda) with no product built: "(0)" when a factor
    vanishes, when mu1 + mu2 > 0 or when lambda1 + lambda2 >= p^n, else
    (T^(lambda1 + lambda2)).  Refuses a factor of negative valuation, as
    the product would not be known mod p^M."""
    order = len(bs1.masses)
    if (bs1.p, bs1.M, order) != (bs2.p, bs2.M, len(bs2.masses)):
        raise ValueError("branch series layouts differ")
    refuse_lost_digits(bs1.M, bs1.shift, bs2.shift)
    if bs1.invariants is None or bs2.invariants is None:
        return "(0)"
    (mu1, lam1), (mu2, lam2) = bs1.invariants, bs2.invariants
    if lam1 + lam2 >= order:
        return "(0)"  # T^(p^n) = 0 mod p
    return ideal_text(mu1 + mu2, lam1 + lam2)


def value_record(value: PadicSeries | None):
    """Valuation and six leading unit digits of a one-term series, or the
    bound it vanishes to."""
    if value is None:
        return None
    if value.is_zero():
        return {
            "valuation": None,
            "unit_digits": 0,
            "vanishes_to": value.M,
            "exact_zero": True,
        }
    mu = mu_lambda(value)[0]
    p = value.p
    return {
        "valuation": mu,
        "unit_digits": value.ints[0] // p ** (mu - value.shift) % p ** min(6, value.M - mu),
    }


def branch_report(bs: BranchSeries, alpha: PadicSeries, value: PadicSeries | None = None,
                  verdict: str | None = None) -> dict:
    mu, lam = bs.invariants or (None, None)
    return {
        "form": bs.form,
        "twist": bs.form,  # the symbol's label, twisted or not
        "j": bs.j,
        "alpha": value_record(alpha),
        "value_at_trivial": value_record(value),
        "mu": mu,
        "lambda": lam,
        "sigma0_factors": [[ell, [str(c) for c in poly]] for ell, poly in bs.sigma0_factors],
        "verdict": verdict,
        "note": PRODUCT_NOTE,
    }


# json.dumps would build an encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(", ", ": "))


def format_report(rec: dict) -> str:
    """One report line: the record's keys sorted, ", " and ": " between."""
    return _ENCODER.encode(rec)
