"""Fixed-precision p-adic numbers and the standard lifting toolbox.

A nonzero value is stored as p^val * unit with unit known modulo p^prec
(prec = number of significant digits).  A value whose digits all vanish is
kept as "zero to precision A": val = A is then a lower bound for the
valuation.  Operations track precision and never fabricate digits; asking
for the exact valuation of such a zero raises PadicPrecisionError.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import prime_divisors


class PadicPrecisionError(ArithmeticError):
    pass


def padic_valuation(x, p: int) -> int:
    """Exact valuation of a nonzero int or Fraction."""
    if isinstance(x, Fraction):
        return padic_valuation(x.numerator, p) - padic_valuation(x.denominator, p)
    x = int(x)
    if x == 0:
        raise ValueError("zero has infinite valuation")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class PadicNumber:
    __slots__ = ("p", "val", "unit", "prec", "zero")

    def __init__(self, p: int, val: int, unit: int, prec: int, zero: bool = False):
        self.p = p
        self.zero = zero
        if zero:
            self.val = val  # valuation lower bound
            self.unit = 0
            self.prec = 0
            return
        if prec < 1:
            raise PadicPrecisionError("no significant digits left")
        pk = p**prec
        unit %= pk
        if unit % p == 0:
            raise ValueError("unit part must be a p-adic unit")
        self.val = val
        self.unit = unit
        self.prec = prec

    # constructors -----------------------------------------------------

    @classmethod
    def zero_to(cls, p: int, abs_prec: int) -> "PadicNumber":
        return cls(p, abs_prec, 0, 0, zero=True)

    @classmethod
    def from_rational(cls, x, p: int, prec: int) -> "PadicNumber":
        x = Fraction(x)
        if x == 0:
            return cls.zero_to(p, prec)
        vn = padic_valuation(x.numerator, p)
        vd = padic_valuation(x.denominator, p)
        pk = p**prec
        num = x.numerator // p**vn
        den = x.denominator // p**vd
        unit = num * pow(den, -1, pk) % pk
        return cls(p, vn - vd, unit, prec)

    # basic state ------------------------------------------------------

    @property
    def abs_prec(self) -> int:
        return self.val if self.zero else self.val + self.prec

    def valuation(self) -> int:
        if self.zero:
            raise PadicPrecisionError(f"zero to precision {self.val}: valuation >= {self.val}")
        return self.val

    def lift(self):
        """Exact representative p^val * unit (Fraction if val < 0)."""
        if self.zero:
            return 0
        if self.val >= 0:
            return self.unit * self.p**self.val
        return Fraction(self.unit, self.p ** (-self.val))

    def residue(self, k: int = 1) -> int:
        """Value modulo p^k; needs val >= 0 and enough known digits."""
        if self.zero:
            if self.val < k:
                raise PadicPrecisionError("not enough precision for residue")
            return 0
        if self.val < 0:
            raise ValueError("negative valuation has no residue")
        if self.abs_prec < k:
            raise PadicPrecisionError("not enough precision for residue")
        return self.unit * self.p**self.val % self.p**k

    # arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber.from_rational(other, self.p, max(self.prec, 1) if not self.zero else self.val)
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        a, p = self, self.p
        A = min(a.abs_prec, b.abs_prec)
        if a.zero and b.zero:
            return PadicNumber.zero_to(p, A)
        if a.zero or b.zero:
            nz = b if a.zero else a
            if nz.val >= A:
                return PadicNumber.zero_to(p, A)
            return PadicNumber(p, nz.val, nz.unit, A - nz.val)
        v0 = min(a.val, b.val)
        if A - v0 <= 0:
            return PadicNumber.zero_to(p, A)
        m = p ** (A - v0)
        s = (a.unit * p ** (a.val - v0) + b.unit * p ** (b.val - v0)) % m
        if s == 0:
            return PadicNumber.zero_to(p, A)
        w = 0
        while s % p == 0:
            s //= p
            w += 1
        if v0 + w >= A:
            return PadicNumber.zero_to(p, A)
        return PadicNumber(p, v0 + w, s, A - v0 - w)

    __radd__ = __add__

    def __neg__(self):
        if self.zero:
            return self
        return PadicNumber(self.p, self.val, -self.unit, self.prec)

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        p = self.p
        if self.zero or b.zero:
            # v(xy) >= bound(x) + val-or-bound(y)
            va = self.val
            vb = b.val
            return PadicNumber.zero_to(p, va + vb)
        prec = min(self.prec, b.prec)
        return PadicNumber(p, self.val + b.val, self.unit * b.unit, prec)

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        if self.zero:
            raise ZeroDivisionError("inverse of (indistinguishable-from-)zero")
        pk = self.p**self.prec
        return PadicNumber(self.p, -self.val, pow(self.unit, -1, pk), self.prec)

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = PadicNumber(self.p, 0, 1, self.prec if not self.zero else 1)
        base = self
        for _ in range(e):
            out = out * base
        return out

    def eq_to(self, other, digits: int) -> bool:
        """True when self - other vanishes to absolute precision `digits`."""
        b = self._coerce(other)
        d = self - b
        return d.zero and d.val >= digits

    def __repr__(self):
        if self.zero:
            return f"O({self.p}^{self.val})"
        return f"{self.p}^{self.val}*{self.unit} + O({self.p}^{self.abs_prec})"


# lifting toolbox ------------------------------------------------------


def teichmuller_lift(a: int, p: int, prec: int) -> int:
    """The (p-1)st root of unity congruent to a mod p, as an int mod p^prec."""
    if a % p == 0:
        raise ValueError("Teichmuller lift needs a unit")
    pk = p**prec
    x = a % pk
    for _ in range(prec + 2):
        y = pow(x, p, pk)
        if y == x:
            return x
        x = y
    raise ArithmeticError("Teichmuller iteration failed to stabilize")


def _poly_ints(coeffs) -> tuple[list[int], int]:
    from math import gcd

    cs = [Fraction(c) for c in coeffs]
    den = 1
    for c in cs:
        den = den // gcd(den, c.denominator) * c.denominator
    return [int(c * den) for c in cs], den


def hensel_root(coeffs, seed: int, p: int, prec: int) -> int:
    """Root of the polynomial in Z_p lifting `seed`, via Newton iteration.

    `coeffs` low-degree-first; rational coefficients allowed if their
    denominators are p-units.  Requires f(seed) = 0 mod p and f'(seed) a
    unit mod p.
    """
    ints, den = _poly_ints(coeffs)
    if den % p == 0:
        raise ValueError("coefficient denominators must be p-units")
    der = [k * c for k, c in enumerate(ints)][1:]

    def ev(poly, x, m):
        out = 0
        for c in reversed(poly):
            out = (out * x + c) % m
        return out

    x = seed % p
    if ev(ints, x, p) != 0:
        raise ValueError("seed is not a root mod p")
    if ev(der, x, p) == 0:
        raise ValueError("derivative vanishes mod p: not a simple root")
    m = p
    target = p**prec
    while m < target:
        m = min(m * m, target)
        fx = ev(ints, x, m)
        dx = ev(der, x, m)
        x = (x - fx * pow(dx, -1, m)) % m
    return x % target


def smallest_primitive_root(p: int) -> int:
    """Least primitive root mod an odd prime."""
    n = p - 1
    fac = prime_divisors(n)
    g = 2
    while True:
        if all(pow(g, n // q, p) != 1 for q in fac):
            return g
        g += 1


class PadicEmbedding:
    """Ring map from a cyclotomic or number field into Q_p, sending the
    field generator to `root`.

    An embedding of Q(zeta_n) (`order` n) also embeds Q(zeta_m) for m | n,
    through root^(n/m); `padic_l.teichmuller_embedding` builds the one of
    Q(zeta_{p-1}) that matches the Teichmuller character identification.
    """

    def __init__(self, p: int, prec: int, poly: list[int], root: int, order: int | None = None):
        self.p = p
        self.prec = prec
        self.poly = list(poly)
        self.root = root % p**prec
        self.order = order

    @classmethod
    def from_poly(cls, poly, seed: int, p: int, prec: int) -> "PadicEmbedding":
        root = hensel_root(poly, seed, p, prec)
        return cls(p, prec, [int(c) for c in poly], root)

    def _eval_coeffs(self, coeffs, root: int) -> PadicNumber:
        pk = self.p**self.prec
        num_acc = 0
        den_lcm = 1
        from math import gcd

        for c in coeffs:
            c = Fraction(c)
            den_lcm = den_lcm // gcd(den_lcm, c.denominator) * c.denominator
        vshift = 0
        d = den_lcm
        while d % self.p == 0:
            d //= self.p
            vshift += 1
        rp = 1
        for c in coeffs:
            c = Fraction(c)
            num_acc = (num_acc + int(c * den_lcm) * rp) % pk
            rp = rp * root % pk
        num_acc = num_acc * pow(d, -1, pk) % pk
        if num_acc == 0:
            out = PadicNumber.zero_to(self.p, self.prec)
        else:
            w = 0
            while num_acc % self.p == 0:
                num_acc //= self.p
                w += 1
            out = PadicNumber(self.p, w, num_acc, self.prec - w)
        if vshift:
            out = out * PadicNumber(self.p, -vshift, 1, max(self.prec, 1))
        return out

    def __call__(self, x) -> PadicNumber:
        from iwrank.cyclotomic import CyclotomicNumber

        if isinstance(x, (int, Fraction)):
            return PadicNumber.from_rational(x, self.p, self.prec)
        if isinstance(x, CyclotomicNumber):
            if self.order is None:
                raise ValueError("embedding was not built for a cyclotomic field")
            if x.order == self.order:
                root = self.root
            elif self.order % x.order == 0:
                root = pow(self.root, self.order // x.order, self.p**self.prec)
            else:
                raise ValueError(f"order {x.order} does not divide embedding order {self.order}")
            return self._eval_coeffs(x.coeffs, root)
        coeffs = getattr(x, "coeffs", None)
        if coeffs is not None:
            return self._eval_coeffs(coeffs, self.root)
        raise TypeError(f"cannot embed {type(x).__name__}")
