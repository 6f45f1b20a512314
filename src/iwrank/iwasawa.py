"""Truncated power series over Z_p and their structure invariants.

Series live in Z_p[[T]] modulo (p^M, T^D).  Beyond ring arithmetic the
module computes Weierstrass data (mu, lambda, distinguished polynomial,
unit cofactor) for a truncated series, the ideal it generates modulo p,
and the substitution X -> l^(-j-1) * (1+T)^(c_l) that restores an Euler
factor at a prime l != p.
"""

from fractions import Fraction

from .padics import (
    PadicNumber,
    PadicPrecisionError,
    padic_log,
    padic_valuation,
    teichmuller_lift,
)

__all__ = [
    "IwasawaContext",
    "PadicSeries",
    "WeierstrassData",
    "IdealClass",
    "series_mul",
    "invariants",
    "ideal_mod_pi",
    "euler_factor_series",
    "UndeterminedInvariants",
]


class UndeterminedInvariants(ArithmeticError):
    """The working precision cannot certify mu/lambda."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _canon(c, p: int, M: int) -> PadicNumber:
    """Coefficient reduced to its canonical representative mod p^M.

    Nonzero output carries exactly M - val digits; anything only known
    to less absolute precision than M is rejected rather than silently
    widening the modulus.
    """
    if isinstance(c, PadicNumber):
        if c.p != p:
            raise ValueError("mixed primes in series coefficient")
        if c.zero:
            if c.val < M:
                raise PadicPrecisionError(
                    f"coefficient known to be 0 only mod p^{c.val} < p^{M}"
                )
            return PadicNumber.zero_to(p, M)
        if c.val >= M:
            return PadicNumber.zero_to(p, M)
        if c.abs_prec < M:
            raise PadicPrecisionError(
                f"coefficient has {c.abs_prec} digits, series needs {M}"
            )
        u = c.unit % p ** (M - c.val)
        return PadicNumber(p, c.val, u, M - c.val)
    if isinstance(c, (int, Fraction)):
        x = Fraction(c)
        if x == 0:
            return PadicNumber.zero_to(p, M)
        v = padic_valuation(x, p)
        if v >= M:
            return PadicNumber.zero_to(p, M)
        return PadicNumber.from_rational(x, p, M - v)
    raise TypeError(f"cannot use {type(c).__name__} as a series coefficient")


class PadicSeries:
    """Element of Z_p[[T]] / (p^M, T^D) with canonical coefficients.

    Coefficients of negative valuation are tolerated (the modulus is
    absolute: each is stored mod p^M), so quotients by p-powers stay in
    the same shape.  Binary operations insist on matching (p, M, D).
    """

    __slots__ = ("p", "M", "D", "coeffs", "meta")

    def __init__(self, p, M, D, coeffs, meta=None):
        if M < 1 or D < 1:
            raise ValueError("need M >= 1 and D >= 1")
        cs = list(coeffs)
        if len(cs) > D:
            raise ValueError(f"{len(cs)} coefficients for T-degree bound {D}")
        cs += [0] * (D - len(cs))
        self.p = p
        self.M = M
        self.D = D
        self.coeffs = tuple(_canon(c, p, M) for c in cs)
        self.meta = meta

    # -- ring structure ------------------------------------------------

    def _check_match(self, other: "PadicSeries"):
        if (self.p, self.M, self.D) != (other.p, other.M, other.D):
            raise ValueError(
                f"mismatched series moduli: ({self.p},{self.M},{self.D}) "
                f"vs ({other.p},{other.M},{other.D})"
            )

    def __add__(self, other):
        if isinstance(other, PadicSeries):
            self._check_match(other)
            return PadicSeries(
                self.p, self.M, self.D,
                [a + b for a, b in zip(self.coeffs, other.coeffs)],
            )
        if isinstance(other, (int, Fraction, PadicNumber)):
            cs = list(self.coeffs)
            cs[0] = cs[0] + _canon(other, self.p, self.M)
            return PadicSeries(self.p, self.M, self.D, cs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PadicSeries(self.p, self.M, self.D, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, PadicSeries):
            self._check_match(other)
            return PadicSeries(
                self.p, self.M, self.D,
                [a - b for a, b in zip(self.coeffs, other.coeffs)],
            )
        if isinstance(other, (int, Fraction, PadicNumber)):
            return self + (-_canon(other, self.p, self.M))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PadicSeries):
            self._check_match(other)
            out = [PadicNumber.zero_to(self.p, self.M) for _ in range(self.D)]
            for i, a in enumerate(self.coeffs):
                if a.zero:
                    continue
                for j in range(self.D - i):
                    b = other.coeffs[j]
                    if b.zero:
                        continue
                    out[i + j] = out[i + j] + a * b
            return PadicSeries(self.p, self.M, self.D, out)
        if isinstance(other, (int, Fraction, PadicNumber)):
            s = other
            return PadicSeries(
                self.p, self.M, self.D, [c * s for c in self.coeffs]
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative series powers not supported")
        out = PadicSeries(self.p, self.M, self.D, [1])
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, PadicSeries):
            return NotImplemented
        if (self.p, self.M, self.D) != (other.p, other.M, other.D):
            return False
        for a, b in zip(self.coeffs, other.coeffs):
            if a.zero != b.zero:
                return False
            if not a.zero and (a.val, a.unit) != (b.val, b.unit):
                return False
        return True

    def __hash__(self):
        return hash((self.p, self.M, self.D) + tuple(
            (c.val, 0 if c.zero else c.unit) for c in self.coeffs
        ))

    # -- queries -------------------------------------------------------

    def coefficient(self, i: int) -> PadicNumber:
        return self.coeffs[i]

    def is_zero(self) -> bool:
        return all(c.zero for c in self.coeffs)

    def evaluate(self, t) -> PadicNumber:
        """Horner evaluation at a p-adic point t."""
        if not isinstance(t, PadicNumber):
            t = _canon(t, self.p, self.M)
        acc = PadicNumber.zero_to(self.p, self.M)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def shifted(self, k: int) -> "PadicSeries":
        """Multiplication by T^k."""
        return PadicSeries(self.p, self.M, self.D, [0] * k + list(self.coeffs))

    def reduce_gamma(self, order: int) -> "PadicSeries":
        """Remainder modulo (1+T)^order - 1, returned with T-bound = order.

        This is the projection from the length-D truncation onto the
        group ring of a cyclic quotient of order `order`.
        """
        cs = list(self.coeffs)
        if self.D <= order:
            return PadicSeries(self.p, self.M, order, cs)
        # (1+T)^order - 1 is monic of degree `order` with integer
        # coefficients binom(order, t); reduce top-down.
        from math import comb

        mod = [comb(order, t) for t in range(order)]
        mod[0] = 0
        for i in range(self.D - 1, order - 1, -1):
            c = cs[i]
            if c.zero:
                continue
            cs[i] = PadicNumber.zero_to(self.p, self.M)
            for t in range(order):
                if mod[t]:
                    cs[i - order + t] = cs[i - order + t] - c * mod[t]
        return PadicSeries(self.p, self.M, order, cs[:order])

    # -- serialization -------------------------------------------------

    def serialize(self) -> str:
        parts = []
        for c in self.coeffs:
            if c.zero:
                parts.append(f"{self.M}:0")
            else:
                parts.append(f"{c.val}:{c.unit}")
        return f"{self.p}, {self.M}, {self.D}, [{', '.join(parts)}]"

    @classmethod
    def deserialize(cls, text: str) -> "PadicSeries":
        head, _, body = text.partition("[")
        if not body.rstrip().endswith("]"):
            raise ValueError(f"malformed series literal: {text!r}")
        p, M, D = (int(tok) for tok in head.strip().rstrip(",").split(","))
        body = body.rstrip().rstrip("]").strip()
        coeffs = []
        if body:
            for entry in body.split(","):
                v, _, u = entry.strip().partition(":")
                v, u = int(v), int(u)
                if u == 0:
                    coeffs.append(PadicNumber.zero_to(p, M))
                else:
                    coeffs.append(PadicNumber(p, v, u, M - v))
        if len(coeffs) != D:
            raise ValueError(f"expected {D} coefficients, found {len(coeffs)}")
        return cls(p, M, D, coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.zero:
                continue
            val = c.unit * self.p**c.val if c.val >= 0 else f"{c.unit}/{self.p**-c.val}"
            terms.append(f"{val}*T^{i}" if i else f"{val}")
            if len(terms) >= 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<series mod ({self.p}^{self.M}, T^{self.D}): {body}>"


class IwasawaContext:
    """Working parameters: the prime p, the 1-unit u generating the
    principal units modulo torsion, the coefficient modulus p^M and the
    T-adic truncation degree D."""

    def __init__(self, p: int, u: int | None = None, M: int = 8, D: int | None = None):
        if not _is_prime(p) or p == 2:
            raise ValueError(f"p = {p} must be an odd prime")
        if u is None:
            u = 1 + p
        if u % p != 1 % p or u % (p * p) == 1:
            raise ValueError("u must be = 1 mod p and != 1 mod p^2")
        if M < 1:
            raise ValueError("M >= 1 required")
        self.p = p
        self.u = u
        self.M = M
        self.D = D if D is not None else p

    def series(self, coeffs, meta=None) -> PadicSeries:
        return PadicSeries(self.p, self.M, self.D, coeffs, meta=meta)

    def zero(self) -> PadicSeries:
        return self.series([])

    def one(self) -> PadicSeries:
        return self.series([1])

    def __repr__(self):
        return f"IwasawaContext(p={self.p}, u={self.u}, M={self.M}, D={self.D})"


def series_mul(f: PadicSeries, g: PadicSeries) -> PadicSeries:
    return f * g


# -- Weierstrass data --------------------------------------------------


class IdealClass:
    """Ideal of F_p[[T]] generated by a series reduced mod p: either the
    zero ideal or (T^k)."""

    __slots__ = ("exponent",)

    def __init__(self, exponent):
        self.exponent = exponent  # None encodes the zero ideal

    @classmethod
    def zero(cls) -> "IdealClass":
        return cls(None)

    @classmethod
    def power(cls, k: int) -> "IdealClass":
        if k < 0:
            raise ValueError("negative T-power")
        return cls(k)

    @classmethod
    def unit(cls) -> "IdealClass":
        return cls(0)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    @property
    def is_unit(self) -> bool:
        return self.exponent == 0

    def __eq__(self, other):
        if not isinstance(other, IdealClass):
            return NotImplemented
        return self.exponent == other.exponent

    def __hash__(self):
        return hash(("IdealClass", self.exponent))

    def __mul__(self, other):
        if not isinstance(other, IdealClass):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IdealClass.zero()
        return IdealClass.power(self.exponent + other.exponent)

    def __str__(self):
        if self.is_zero:
            return "(0)"
        if self.exponent == 0:
            return "(1)"
        if self.exponent == 1:
            return "(T)"
        return f"(T^{self.exponent})"

    __repr__ = __str__


class WeierstrassData:
    """Certified factorisation f = p^mu * dist * unit mod (p^M, T^D).

    `dist` is monic of degree lam with lower coefficients divisible by
    p; `unit` is invertible.  Both are known mod p^(M - mu).
    """

    __slots__ = ("mu", "lam", "dist", "unit", "precision")

    def __init__(self, mu, lam, dist, unit, precision):
        self.mu = mu
        self.lam = lam
        self.dist = dist
        self.unit = unit
        self.precision = precision

    @property
    def unit_head(self) -> PadicNumber:
        return self.unit.coefficient(0)

    def residual_ideal(self) -> IdealClass:
        if self.mu > 0:
            return IdealClass.zero()
        return IdealClass.power(self.lam)

    def __repr__(self):
        return (
            f"WeierstrassData(mu={self.mu}, lam={self.lam}, "
            f"dist={self.dist!r}, unit_head={self.unit_head!r})"
        )


def _series_inverse(f: PadicSeries) -> PadicSeries:
    """Inverse of a series with unit constant term, same (p, M, D)."""
    c0 = f.coefficient(0)
    if c0.zero or c0.val != 0:
        raise ZeroDivisionError("series has no unit constant term")
    p, M, D = f.p, f.M, f.D
    inv0 = c0.inverse()
    out = [inv0] + [PadicNumber.zero_to(p, M)] * (D - 1)
    for k in range(1, D):
        acc = PadicNumber.zero_to(p, M)
        for i in range(1, k + 1):
            a = f.coefficient(i)
            if a.zero or out[k - i].zero:
                continue
            acc = acc + a * out[k - i]
        out[k] = -inv0 * acc
    return PadicSeries(p, M, D, out)


def invariants(f: PadicSeries) -> WeierstrassData:
    """Weierstrass data of f, or a loud failure when precision cannot
    certify it (f = 0 to working precision, or lambda >= D)."""
    vals = [None if c.zero else c.val for c in f.coeffs]
    live = [v for v in vals if v is not None]
    if not live:
        raise UndeterminedInvariants(
            f"series vanishes mod (p^{f.M}, T^{f.D}); mu/lambda undetermined"
        )
    mu = min(live)
    lam = vals.index(mu)
    if lam >= f.D:
        raise UndeterminedInvariants(f"lambda >= T-adic truncation {f.D}")

    p, D = f.p, f.D
    Mp = f.M - mu  # digits surviving division by p^mu
    if Mp < 1:
        raise UndeterminedInvariants("no digits left after removing p^mu")
    scale = PadicNumber(p, -mu, 1, f.M + abs(mu) + 1)
    g = PadicSeries(p, Mp, D, [c * scale for c in f.coeffs])

    # divide T^lam by g: T^lam = q*g + r with deg r < lam; then
    # q*g = T^lam - r is the distinguished polynomial and unit = q^(-1).
    w = PadicSeries(p, Mp, D, list(g.coeffs[lam:]))
    winv = _series_inverse(w)
    glow = g.coeffs[:lam]
    target = [PadicNumber.zero_to(p, Mp)] * D
    if lam < D:
        target[lam] = _canon(1, p, Mp)
    f_full = PadicSeries(p, Mp, D, target)
    q = PadicSeries(p, Mp, D, [])
    for _ in range(Mp + 1):
        low = [PadicNumber.zero_to(p, Mp) for _ in range(D)]
        for i, a in enumerate(glow):
            if a.zero:
                continue
            for j in range(D - i):
                b = q.coeffs[j]
                if not b.zero:
                    low[i + j] = low[i + j] + a * b
        resid = [t - l for t, l in zip(target, low)]
        q = winv * PadicSeries(p, Mp, D, resid[lam:])
    r = f_full - q * g
    for i in range(lam, D):
        if not r.coeffs[i].zero:
            raise ArithmeticError("Weierstrass division failed to converge")
    dist_coeffs = [-r.coeffs[i] for i in range(lam)] + [_canon(1, p, Mp)]
    for c in dist_coeffs[:-1]:
        if not c.zero and c.val < 1:
            raise ArithmeticError("division produced a non-distinguished factor")
    dist = PadicSeries(p, Mp, lam + 1, dist_coeffs)
    unit = _series_inverse(q)
    return WeierstrassData(mu, lam, dist, unit, Mp)


def ideal_mod_pi(f: PadicSeries) -> IdealClass:
    """Ideal generated by f in F_p[[T]] after reducing mod p."""
    if f.is_zero():
        return IdealClass.zero()
    return invariants(f).residual_ideal()


# -- Euler factor substitution -----------------------------------------


def _binomial_column(c: PadicNumber, D: int):
    """binom(c, i) for i < D; c a p-adic integer, so all entries are
    p-adic integers even when i! meets p."""
    out = [PadicNumber(c.p, 0, 1, c.abs_prec if not c.zero else c.val)]
    for i in range(1, D):
        out.append(out[-1] * (c - (i - 1)) / i)
    return out


def gamma_power(c, ctx: IwasawaContext, extra_digits: int = 0) -> PadicSeries:
    """(1+T)^c as a truncated series, for c an integer or p-adic integer."""
    W = ctx.M + extra_digits
    if isinstance(c, int):
        c = PadicNumber.from_rational(c, ctx.p, W + 2) if c else PadicNumber.zero_to(ctx.p, W + 2)
    col = _binomial_column(c, ctx.D)
    return ctx.series(col)


def euler_factor_series(poly, ell: int, j: int, ctx: IwasawaContext) -> PadicSeries:
    """Substitute X -> ell^(-j-1) * (1+T)^(c_ell) into the polynomial
    `poly` (coefficients low-degree-first).

    Here <ell> = ell / omega_p(ell) is the 1-unit part, c_ell =
    log<ell> / log(u), and the Teichmuller part omega_p(ell)^(-j-1) is
    a scalar folded into the substituted constant (it carries no
    (1+T)-power).  Requires ell prime to p.
    """
    p, M, D = ctx.p, ctx.M, ctx.D
    if ell % p == 0:
        raise ValueError("Euler substitution is only defined away from p")
    # working digits: binom(c, i) costs up to v_p(i!) nominal digits
    loss = 0
    q = p
    while q < D:
        loss += (D - 1) // q
        q *= p
    W = M + loss + 3
    pk = p**W
    t = teichmuller_lift(ell % p, p, W)
    one_unit = ell * pow(t, -1, pk) % pk
    c = padic_log(one_unit, p, W) / padic_log(ctx.u % pk, p, W)
    col = _binomial_column(c, D)
    scalar = PadicNumber.from_rational(Fraction(1, ell ** (j + 1)), p, W)
    x_sub = [scalar * b for b in col]  # ell^(-j-1) * (1+T)^(c_ell)

    coeffs = [a if isinstance(a, PadicNumber) else PadicNumber.from_rational(Fraction(a), p, W)
              for a in poly]
    if not coeffs:
        raise ValueError("empty polynomial")
    acc = [coeffs[-1]] + [PadicNumber.zero_to(p, W)] * (D - 1)
    for a in reversed(coeffs[:-1]):
        nxt = [PadicNumber.zero_to(p, W) for _ in range(D)]
        for i, ai in enumerate(acc):
            if ai.zero:
                continue
            for k in range(D - i):
                b = x_sub[k]
                if not b.zero:
                    nxt[i + k] = nxt[i + k] + ai * b
        nxt[0] = nxt[0] + a
        acc = nxt
    meta = {
        "ell": ell,
        "j": j,
        "poly": [str(a) for a in poly],
        "c_ell": c.residue(min(M, c.abs_prec)) if not c.zero else 0,
        "teichmuller_part": f"omega({ell})^{-(j + 1)} folded into the constant",
    }
    return ctx.series(acc, meta=meta)
