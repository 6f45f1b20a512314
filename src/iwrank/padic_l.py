"""Branch values and branch power series of weight-2 eigensymbols.

For a p-ordinary eigensymbol pair this module computes the single values
of each tame branch at the trivial wild character and the Riemann-sum
branch series in Z/p^M[Z/p^n], with integers mod p-powers only: every
symbol value is read off a row (`evaluate_row`), and the tame twist
omega^-j comes from one cached table per (p, digits, j), built from the
cached Teichmuller lifts.  A branch series is built in two steps.
`symbol_measure`, the one step that knows alpha and the one-root case
p | N, gives each sign's masses of the balls a + p^(n+1)Z_p;
`branch_series` projects ball masses of any measure onto branch j,
through omega^-j and the wild coordinates.  A branch series is kept in
one basis, the masses of the group elements gamma^c that the sum adds
up, and never converted to the T-basis (gamma = 1 + T): mu and lambda
are read off the masses, a sigma0 Euler factor multiplies them by its
few nonzero masses, and the verdict for the product of two branches
comes from the factors' (mu, lambda) alone, as mod p the ring is
F_p[T]/(T^(p^n)).  `branch_family` composes the two steps, the balls
once per sign, into alpha and the requested branch series of one symbol,
raw and with the sigma0 factors, for both `padic-l` and the bundled
runs; it keeps nothing, as the rows it reads are kept on the symbol and
a bundled run is kept whole (`examples.build_example`).
`partner_branch` names the branch each verdict pairs with.
`format_report` is the one JSON line format of every report the CLI
writes.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import cycle
from types import MappingProxyType

from .iwasawa import (
    PadicSeries,
    ideal_text,
    mass_mu_lambda,
    mu_lambda,
    padic_ints,
    reduce_ints,
    refuse_lost_digits,
)
from .padics import (
    PadicPrecisionError,
    hensel_root,
    padic_valuation,
    teichmuller_lift,
)

__all__ = [
    "OrdinarityError",
    "DEFAULT_DIGITS",
    "choose_alpha",
    "branch_value_trivial",
    "BranchSeries",
    "symbol_measure",
    "branch_series",
    "apply_sigma0",
    "branch_family",
    "partner_branch",
    "product_congruence_verdict",
    "branch_report",
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
def _teichmuller_table(p: int, W: int) -> tuple:
    """omega(b) mod p^W for b mod p, the Teichmuller lifts (0 at b = 0)."""
    return (0,) + tuple(teichmuller_lift(b, p, W) for b in range(1, p))


@lru_cache(maxsize=128)
def _omega_table(p: int, W: int, j: int) -> tuple:
    """omega^-j(b) mod p^W for b mod p (0 at b = 0)."""
    m = p**W
    return tuple(pow(t, -j, m) if t else 0 for t in _teichmuller_table(p, W))


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
        s = sum(w * x for w, x in zip(_omega_table(p, W, jj)[1:], xs))
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


@lru_cache(maxsize=32)
def _wild_coordinates(p: int, n: int) -> tuple:
    """c(a) mod p^n with <a> = u^c(a), u = 1 + p, for every a mod p^(n+1)
    (-1 where p | a).  <a> = a / omega(a) is the 1-unit part, and
    omega(a) = a^(p^n) mod p^(n+1) depends on a mod p alone, so its
    inverse is read off one list of the p - 1 inverses."""
    mod, q, u = p ** (n + 1), p ** n, 1 + p
    log = {}
    x = 1
    for c in range(q):
        log[x] = c
        x = x * u % mod
    inv = [0] + [pow(b, -q, mod) for b in range(1, p)]
    return tuple(log[a * inv[a % p] % mod] if a % p else -1
                 for a in range(mod))


def symbol_measure(sym, ap, p: int, n: int, M: int, alpha: PadicSeries | None = None):
    """(alpha, balls): the measure of `sym` at wild level n, mod p^M.

    alpha is the unit root for a_p = ap to the digits the balls need, at
    least DEFAULT_DIGITS, unless a root is given (a non-unit one costs
    (n+2) v(alpha) digits more).  balls[sgn], for sgn = +-1, is (shift,
    masses): p^shift * masses[a] is the mass of the ball a + p^(n+1)Z_p,
        alpha^-(n+1) x(a/p^(n+1)) - alpha^-(n+2) x(a/p^n),
    known mod p^M, for a mod p^(n+1) (0 where p | a), with the second
    term dropped when p divides the level (one-root case).  The masses are
    reduced mod p^W, W = M - shift: M plus the p-power in the symbol
    values' denominators plus (n+2) v(alpha).  Of the symbol it reads
    `evaluate_row` and `level`; the symbol keeps its row at p^(n+1), so
    the row at p^n, and the one at p that `branch_value_trivial` reads,
    are slices of it."""
    if n < 1:
        raise ValueError("wild level n >= 1 required")
    hi_len, order = p ** (n + 1), p**n
    steinberg = sym.level % p == 0
    v = 0 if alpha is None else mu_lambda(alpha)[0]
    loss = (n + 2) * v  # the powers of 1/alpha
    rows = {}
    for sgn in (1, -1):
        hi = sym.evaluate_row(hi_len, sgn)
        rows[sgn] = padic_ints(hi if steinberg else hi + sym.evaluate_row(order, sgn),
                               p, M + loss)
    if alpha is None:
        alpha = choose_alpha(ap, p, sym.level, prec=max(
            DEFAULT_DIGITS, M - min(shift for shift, _ in rows.values())))
    balls = {}
    for sgn in (1, -1):
        shift, xs = rows.pop(sgn)  # each sign's rows go once its balls are built
        W = M + loss - shift
        if alpha.M - v < W:
            raise PadicPrecisionError(
                f"alpha carries {alpha.M - v} digits, the series needs {W}")
        m = p**W
        ainv = pow(alpha.ints[0] // p ** (v - alpha.shift), -1, m)
        a_hi = p**v * pow(ainv, n + 1, m) % m
        a_lo = pow(ainv, n + 2, m)
        lo = [0] * order if steinberg else xs[hi_len:]
        masses = [(a_hi * x - a_lo * y) % m for x, y in zip(xs, lo * p)]
        masses[::p] = [0] * order
        balls[sgn] = M - W, masses
    return alpha, balls


def branch_series(balls, p: int, j: int, M: int, form=None) -> BranchSeries:
    """Branch j of a measure at wild level n, as the masses of an element
    of Z_p[Z/p^n] mod p^M.  balls = (shift, masses) holds, as
    `symbol_measure` gives them, the masses p^shift * masses[a] of the
    balls a + p^(n+1)Z_p for a mod p^(n+1), reduced mod p^(M - shift);
    they are twisted by omega^-j and summed by wild coordinate.  `form`
    names the series' source in its report."""
    shift, xs = balls
    order = len(xs) // p
    jj = j % (p - 1)
    masses = [0] * order
    # the twist vanishes where p | a, whose coordinate is -1
    for c, w, x in zip(_wild_coordinates(p, padic_valuation(order, p)),
                       cycle(_omega_table(p, M - shift, jj)), xs):
        masses[c] += w * x
    return BranchSeries(p, M, masses, shift, jj, form)


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
        c = _wild_coordinates(p, n)[ell % p ** (n + 1)]
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


def branch_family(sym, ap, p: int, n: int, M: int, sigma0=(), branches=None):
    """(alpha, raw, dressed) for the branches j in `branches` (default
    1..p-1) of `sym` at wild level n, mod p^M: alpha and the balls of
    `symbol_measure`, each sign's built once for all its branches, raw[j]
    the projection of sign (-1)^j onto branch j (`branch_series`) and
    dressed[j] that series times the sigma0 Euler factors (raw when there
    are none), both read-only mappings.  Of the symbol it reads
    `evaluate_row`, `level` and `label` only."""
    alpha, balls = symbol_measure(sym, ap, p, n, M)
    raw = MappingProxyType({j: branch_series(balls[(-1) ** (j % 2)], p, j, M, sym.label)
                            for j in sorted(range(1, p) if branches is None else branches)})
    if not sigma0:
        return alpha, raw, raw
    return alpha, raw, MappingProxyType({j: apply_sigma0(bs, sigma0) for j, bs in raw.items()})


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


def _value_record(value: PadicSeries | None, exact_zero: bool = False, digits: int = 6):
    """Valuation and leading unit digits of a one-term series, or the
    bound it vanishes to."""
    if value is None:
        return None
    if value.is_zero():
        return {
            "valuation": None,
            "unit_digits": 0,
            "vanishes_to": value.M,
            "exact_zero": bool(exact_zero),
        }
    mu = mu_lambda(value)[0]
    p = value.p
    return {
        "valuation": mu,
        "unit_digits": value.ints[0] // p ** (mu - value.shift) % p ** min(digits, value.M - mu),
    }


def branch_report(bs: BranchSeries, alpha: PadicSeries, value: PadicSeries | None = None,
                  exact_zero: bool = False, verdict: str | None = None) -> dict:
    mu, lam = bs.invariants or (None, None)
    return {
        "form": bs.form,
        "twist": bs.form,  # the symbol's label, twisted or not
        "j": bs.j,
        "alpha": _value_record(alpha),
        "value_at_trivial": _value_record(value, exact_zero),
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
