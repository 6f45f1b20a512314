"""Branch values and branch power series of weight-2 eigensymbols.

For a p-ordinary eigensymbol pair this module computes the single
values of each tame branch at the trivial wild character, the
Riemann-sum branch series in Z_p[T] mod ((1+T)^(p^n) - 1, p^M), the
Euler-factor restoration at auxiliary primes, and the residual-ideal
verdict for the product of two branches.
"""

import json
from collections import namedtuple
from fractions import Fraction
from math import comb

from .characters import DirichletCharacter
from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial, zeta
from .iwasawa import (
    IdealClass,
    IwasawaContext,
    PadicSeries,
    ideal_mod_pi,
    invariants,
)
from .padics import (
    PadicEmbedding,
    PadicNumber,
    padic_log,
    smallest_primitive_root,
    teichmuller_lift,
)

__all__ = [
    "OrdinarityError",
    "unit_root",
    "choose_alpha",
    "MttMultiplier",
    "mtt_multiplier",
    "teichmuller_embedding",
    "omega_twist_sum",
    "branch_value_trivial",
    "BranchSeries",
    "branch_series",
    "group_ring_mul",
    "apply_sigma0",
    "Verdict",
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


class OrdinarityError(ArithmeticError):
    """a_p is not a p-adic unit, so there is no unit root."""


def _as_padic(x, p: int, prec: int) -> PadicNumber:
    if isinstance(x, PadicNumber):
        if x.p != p:
            raise ValueError("mixed primes")
        return x
    return PadicNumber.from_rational(Fraction(x), p, prec)


def unit_root(ap, p: int | None = None, prec: int = 14) -> PadicNumber:
    """Unit root of X^2 - a_p X + p by Newton iteration from a_p."""
    if isinstance(ap, PadicNumber):
        p = ap.p
    else:
        if p is None:
            raise ValueError("prime required for rational a_p")
        ap = PadicNumber.from_rational(Fraction(ap), p, prec)
    if ap.zero or ap.val != 0:
        raise OrdinarityError("a_p vanishes mod p; Hecke polynomial has no unit root")
    x = ap
    for _ in range(max(prec, 4).bit_length() + 3):
        x = x - (x * x - ap * x + p) / (2 * x - ap)
    if not (x * x - ap * x + p).zero:
        raise ArithmeticError("unit-root iteration failed to converge")
    return x


def choose_alpha(ap, p: int, level: int, prec: int = 14) -> PadicNumber:
    """The distinguished p-adic period root: the unit root of the Hecke
    polynomial when p does not divide the level, a_p itself (the U_p
    eigenvalue) when it does."""
    if level % p == 0:
        a = _as_padic(ap, p, prec)
        if a.zero or a.val != 0:
            raise OrdinarityError("U_p eigenvalue is not a unit")
        return a
    return unit_root(ap, p, prec)


# -- interpolation multiplier ------------------------------------------


class MttMultiplier:
    """The pair of Euler-type factors scaling a single interpolated
    L-value: (1 - phi0(p) eta(p) p^(k-2-j)/u) (1 - phibar0(p) p^j/u)."""

    __slots__ = ("factor1", "factor2")

    def __init__(self, factor1: PadicNumber, factor2: PadicNumber):
        self.factor1 = factor1
        self.factor2 = factor2

    @property
    def value(self) -> PadicNumber:
        return self.factor1 * self.factor2

    def __repr__(self):
        return f"MttMultiplier({self.factor1!r}, {self.factor2!r})"


def _is_zero_scalar(x) -> bool:
    if isinstance(x, PadicNumber):
        return x.zero
    if isinstance(x, CyclotomicNumber):
        return x.is_zero()
    return Fraction(x) == 0


def mtt_multiplier(u_F: PadicNumber, eta_p=1, phi0_p=1, k: int = 2, j: int = 0) -> MttMultiplier:
    """Interpolation multiplier for the branch x^j twist of a weight-k
    form with unit root u_F, nebentypus value eta_p at p and twist value
    phi0_p at p (zero when the twist ramifies at p, which collapses both
    factors to 1).  Character values must already be embedded."""
    if not isinstance(u_F, PadicNumber) or u_F.zero or u_F.val != 0:
        raise ValueError("u_F must be a p-adic unit")
    p = u_F.p
    W = u_F.prec
    one = PadicNumber(p, 0, 1, W)
    uinv = u_F.inverse()
    if _is_zero_scalar(phi0_p):
        return MttMultiplier(one, one)
    phi0 = _as_padic(phi0_p, p, W)
    phibar = phi0.inverse()
    if _is_zero_scalar(eta_p):
        f1 = one
    else:
        eta = _as_padic(eta_p, p, W)
        f1 = one - phi0 * eta * PadicNumber(p, k - 2 - j, 1, W) * uinv
    f2 = one - phibar * PadicNumber(p, j, 1, W) * uinv
    return MttMultiplier(f1, f2)


# -- tame twists of symbol values --------------------------------------


def teichmuller_embedding(p: int, prec: int) -> PadicEmbedding:
    """Embedding of Q(zeta_{p-1}) sending the standard root to the
    Teichmuller lift of the least primitive root, so character values
    built from discrete logs land on their Teichmuller counterparts."""
    g = smallest_primitive_root(p)
    return PadicEmbedding(
        p, prec, cyclotomic_polynomial(p - 1), teichmuller_lift(g, p, prec), order=p - 1
    )


def omega_twist_sum(sym, p: int, j: int) -> CyclotomicNumber:
    """Sum over b of omegabar^j(b) x^{sgn}(b/p), exact in Q(zeta_{p-1}).

    sgn = (-1)^j: summing against the opposite eigencomponent cancels
    pairwise under b -> -b, so only this parity carries content.
    """
    jj = j % (p - 1)
    omega = DirichletCharacter.teichmuller(p)
    sgn = 1 if jj % 2 == 0 else -1
    total = CyclotomicNumber(p - 1, [0])
    for b in range(1, p):
        e = omega.value_exponent(b)
        x = sym.evaluate(Fraction(b, p), sgn)
        total = total + zeta(p - 1, (-jj * e) % (p - 1)) * Fraction(x)
    return total


def branch_value_trivial(sym, p: int, alpha: PadicNumber, j: int, prec: int | None = None) -> PadicNumber:
    """Value of branch j at the trivial wild character.

    Nontrivial tame branch: (1/2 alpha) * omega_twist_sum embedded.
    Trivial branch: (1 - 1/alpha)^2 * x^+(0).  Values are meaningful up
    to the unit ambiguity of the symbol normalization, so callers
    compare valuations, vanishing and ratios.
    """
    W = prec if prec is not None else alpha.prec
    jj = j % (p - 1)
    if jj == 0:
        one = PadicNumber(p, 0, 1, W)
        mult = (one - alpha.inverse()) ** 2
        return mult * _as_padic(sym.evaluate(Fraction(0), 1), p, W)
    total = omega_twist_sum(sym, p, jj)
    if total.is_zero():
        return PadicNumber.zero_to(p, W)
    emb = teichmuller_embedding(p, W)
    half = PadicNumber.from_rational(Fraction(1, 2), p, W)
    return half * alpha.inverse() * emb(total)


# -- branch series -----------------------------------------------------


class BranchSeries:
    """A tame-branch power series together with its provenance."""

    __slots__ = ("series", "j", "twist", "form", "alpha", "sigma0_factors", "level", "zero_ratio")

    def __init__(self, series, j, twist, form, alpha, sigma0_factors=(), level=1, zero_ratio=None):
        self.series = series
        self.j = j
        self.twist = twist
        self.form = form
        self.alpha = alpha
        self.sigma0_factors = tuple(sigma0_factors)
        self.level = level
        self.zero_ratio = zero_ratio

    def invariants(self):
        return invariants(self.series)

    def ideal_mod_pi(self) -> IdealClass:
        return ideal_mod_pi(self.series)

    def __repr__(self):
        return (
            f"BranchSeries(form={self.form!r}, j={self.j}, level={self.level}, "
            f"sigma0={[ell for ell, _ in self.sigma0_factors]})"
        )


def _wild_coordinate(a: int, p: int, n: int, u: int) -> int:
    """Discrete log of the 1-unit part of a in base u, mod p^n."""
    mod_hi = p ** (n + 1)
    t = teichmuller_lift(a % p, p, n + 1)
    one_unit = a * pow(t, -1, mod_hi) % mod_hi
    la = padic_log(one_unit, p, n + 1)
    if la.zero:
        return 0
    lu = padic_log(u % mod_hi, p, n + 1)
    return (la / lu).residue(n)


def branch_series(sym, p: int, alpha: PadicNumber, j: int, n: int = 1,
                  ctx: IwasawaContext | None = None, twist_label=None) -> BranchSeries:
    """Riemann sum of branch j at wild level n, as a polynomial of
    degree < p^n representing an element of Z_p[T]/((1+T)^(p^n)-1, p^M).

    The measure of the ball a + p^(n+1)Z_p is
    alpha^-(n+1) x(a/p^(n+1)) - alpha^-(n+2) x(a/p^n), with the second
    term dropped when p divides the level (one-root case).
    """
    if n < 1:
        raise ValueError("wild level n >= 1 required")
    if ctx is None:
        ctx = IwasawaContext(p, M=8, D=p**n)
    if ctx.p != p:
        raise ValueError("context prime mismatch")
    order = p**n
    if ctx.D != order:
        raise ValueError(f"context truncation {ctx.D} must equal p^n = {order}")
    M = ctx.M
    W = M + 4
    level = getattr(sym, "level")
    steinberg = level % p == 0
    jj = j % (p - 1)
    sgn = 1 if jj % 2 == 0 else -1
    ainv = alpha.inverse()
    c_hi = ainv ** (n + 1)
    c_lo = ainv ** (n + 2)
    pk = p**W
    omega_pow = {}
    for b in range(1, p):
        t = teichmuller_lift(b, p, W)
        omega_pow[b] = PadicNumber(p, 0, pow(t, -jj, pk) if jj else 1, W)
    mod_hi = p ** (n + 1)
    out = [PadicNumber.zero_to(p, W) for _ in range(order)]
    for a in range(1, mod_hi):
        if a % p == 0:
            continue
        m_a = c_hi * _as_padic(sym.evaluate(Fraction(a, mod_hi), sgn), p, W)
        if not steinberg:
            lo = Fraction(a % (p**n), p**n)
            m_a = m_a - c_lo * _as_padic(sym.evaluate(lo, sgn), p, W)
        coeff = omega_pow[a % p] * m_a
        if coeff.zero:
            continue
        c_a = _wild_coordinate(a, p, n, ctx.u)
        for t2 in range(c_a + 1):
            out[t2] = out[t2] + coeff * comb(c_a, t2)
    one = PadicNumber(p, 0, 1, W)
    if jj != 0:
        ratio = _as_padic(2, p, W)
    elif steinberg:
        # a_p = +1 makes 1 - 1/alpha vanish (an exceptional zero): no ratio
        e = one - ainv
        ratio = None if e.zero else e.inverse()
    else:
        ratio = one
    series = PadicSeries(p, M, order, out, meta={
        "branch": jj,
        "wild_level": n,
        "series_over_value_at_zero": "2" if jj else ("1/(1 - 1/alpha)" if steinberg else "1"),
    })
    return BranchSeries(
        series, jj, twist_label, getattr(sym, "label", None), alpha,
        sigma0_factors=(), level=n, zero_ratio=ratio,
    )


def group_ring_mul(a: PadicSeries, b: PadicSeries, order: int | None = None) -> PadicSeries:
    """Product of two degree-<order representatives modulo
    ((1+T)^order - 1, p^M)."""
    if order is None:
        order = a.D
    if a.D != order or b.D != order:
        raise ValueError("operands must be reduced representatives")
    wide = 2 * order - 1
    big = PadicSeries(a.p, a.M, wide, list(a.coeffs)) * PadicSeries(b.p, b.M, wide, list(b.coeffs))
    return big.reduce_gamma(order)


def _euler_factor_finite(poly, ell: int, j: int, p: int, M: int, order: int, u: int) -> PadicSeries:
    """Euler substitution X -> ell^(-j-1) (1+T)^(c_ell mod p^n) inside
    the cyclic group ring of order p^n: the wild exponent is an honest
    integer here, so no binomial tails are truncated."""
    if ell % p == 0:
        raise ValueError("Euler substitution is only defined away from p")
    n = 0
    o = order
    while o > 1:
        o //= p
        n += 1
    if p**n != order:
        raise ValueError("order must be a power of p")
    W = M + 4
    c = _wild_coordinate(ell % (p ** (n + 1)), p, n, u)
    s = PadicNumber.from_rational(Fraction(1, ell ** (j + 1)), p, W)
    xsub = PadicSeries(p, M, order, [s * comb(c, t) for t in range(c + 1)])
    coeffs = [a if isinstance(a, PadicNumber) else _as_padic(a, p, W) for a in poly]
    if not coeffs:
        raise ValueError("empty polynomial")
    acc = PadicSeries(p, M, order, [coeffs[-1]])
    for a in reversed(coeffs[:-1]):
        acc = group_ring_mul(acc, xsub, order) + a
    return acc


def apply_sigma0(bs: BranchSeries, factors, ctx: IwasawaContext | None = None) -> BranchSeries:
    """Multiply a branch series by the Euler-factor series of each
    (ell, poly) in factors, recording them; refuses duplicates and
    ell = p."""
    series = bs.series
    p, M, order = series.p, series.M, series.D
    u = ctx.u if ctx is not None else 1 + p
    applied = {ell for ell, _ in bs.sigma0_factors}
    new_factors = list(bs.sigma0_factors)
    for ell, poly in factors:
        if ell == p or ell % p == 0:
            raise ValueError("sigma0 factors must avoid p")
        if ell in applied:
            raise ValueError(f"duplicate sigma0 factor at {ell}")
        applied.add(ell)
        fac = _euler_factor_finite(poly, ell, bs.j, p, M, order, u)
        series = group_ring_mul(series, fac, order)
        new_factors.append((ell, tuple(poly)))
    return BranchSeries(
        series, bs.j, bs.twist, bs.form, bs.alpha,
        sigma0_factors=tuple(new_factors), level=bs.level, zero_ratio=bs.zero_ratio,
    )


# -- verdicts and reports ----------------------------------------------


Verdict = namedtuple("Verdict", ["ideal", "is_unit", "lambda_total"])


def product_congruence_verdict(bs1: BranchSeries, bs2: BranchSeries) -> Verdict:
    """Residual ideal of the product of two branch series.  A vanishing
    mod-p reduction (mu > 0) yields the zero class, not an error."""
    s1, s2 = bs1.series, bs2.series
    if (s1.p, s1.M, s1.D) != (s2.p, s2.M, s2.D):
        raise ValueError("branch series layouts differ")
    prod = group_ring_mul(s1, s2)
    cls = ideal_mod_pi(prod)
    lam = None if cls.is_zero else cls.exponent
    return Verdict(cls, cls.is_unit, lam)


def _value_record(value: PadicNumber | None, exact_zero: bool = False, digits: int = 6):
    if value is None:
        return None
    if value.zero:
        return {
            "valuation": None,
            "unit_digits": 0,
            "vanishes_to": value.val,
            "exact_zero": bool(exact_zero),
        }
    return {
        "valuation": value.val,
        "unit_digits": value.unit % value.p ** min(digits, value.prec),
    }


def branch_report(bs: BranchSeries, value: PadicNumber | None = None,
                  exact_zero: bool = False, verdict: Verdict | None = None) -> dict:
    w = None
    try:
        w = bs.invariants()
    except ArithmeticError:
        pass
    alpha = bs.alpha
    rec = {
        "form": bs.form,
        "twist": bs.twist,
        "j": bs.j,
        "alpha": {
            "valuation": alpha.val,
            "unit_digits": alpha.unit % alpha.p ** min(6, alpha.prec),
        },
        "value_at_trivial": _value_record(value, exact_zero),
        "mu": None if w is None else w.mu,
        "lambda": None if w is None else w.lam,
        "sigma0_factors": [[ell, [str(c) for c in poly]] for ell, poly in bs.sigma0_factors],
        "verdict": None if verdict is None else str(verdict.ideal),
        "note": PRODUCT_NOTE,
    }
    return rec


def format_report(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(", ", ": "))
