"""Exact arithmetic in cyclotomic fields Q(zeta_n), power-basis representation.

Elements are vectors of rationals on the basis 1, x, ..., x^(phi(n)-1) of
Q[x]/Phi_n(x).  Products run through the integer convolution kernel after
clearing denominators, and reduce modulo Phi_n through two more products
with Phi_n and Psi_n = (x^n - 1)/Phi_n, both cached per order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from iwrank import kernels

_ZERO = Fraction(0)
_ONE = Fraction(1)

_cyclo_poly_cache: dict[int, list[int]] = {}
_ring_cache: dict[int, dict] = {}


def prime_divisors(n: int) -> list[int]:
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    for p in prime_divisors(n):
        n = n // p * (p - 1)
    return n


def cyclotomic_polynomial(n: int) -> list[int]:
    """Integer coefficients of Phi_n, low degree first.

    For n > 1, Phi_n is the product of (1 - x^d)^mu(n/d) over the
    divisors d of n, which only the squarefree n/d contribute to.  Each
    factor multiplies or divides a power series by a binomial in O(phi(n))
    steps, and the product is a polynomial of degree phi(n).
    """
    if n in _cyclo_poly_cache:
        return list(_cyclo_poly_cache[n])
    if n == 1:
        poly = [-1, 1]
    else:
        deg = euler_phi(n)
        poly = [1] + [0] * deg
        terms = [(n, 1)]        # (d, mu(n/d))
        for p in prime_divisors(n):
            terms += [(d // p, -mu) for d, mu in terms]
        for d, mu in terms:
            if mu > 0:
                for k in range(deg, d - 1, -1):
                    poly[k] -= poly[k - d]
            else:
                for k in range(d, deg + 1):
                    poly[k] += poly[k - d]
    _cyclo_poly_cache[n] = list(poly)
    return poly


def _ring(n: int) -> dict:
    ring = _ring_cache.get(n)
    if ring is not None:
        return ring
    phi = cyclotomic_polynomial(n)
    # Psi_n = (x^n - 1) / Phi_n, the product of Phi_e over proper divisors e
    psi = [1]
    for e in range(1, n):
        if n % e == 0:
            psi = kernels.convolve(psi, cyclotomic_polynomial(e))
    ring = {"n": n, "deg": len(phi) - 1, "phi": phi, "psi": psi}
    _ring_cache[n] = ring
    return ring


def _reduce(vec: list[int], ring: dict) -> list[int]:
    """An integer vector modulo Phi_n, as its deg low coefficients.

    Phi_n divides x^n - 1, so the vector is first folded below degree n.
    Then v = q Phi_n + r with q the coefficients n.. of v Psi_n: the
    degree of r Psi_n is below n, and q (x^n - 1) = q x^n - q.
    """
    n, deg = ring["n"], ring["deg"]
    if len(vec) > n:
        folded = vec[:n]
        for k in range(n, len(vec)):
            folded[k % n] += vec[k]
        vec = folded
    if len(vec) <= deg:
        return vec + [0] * (deg - len(vec))
    # only coefficients deg.. of v reach degree n in v Psi_n
    q = kernels.convolve(vec[deg:], ring["psi"])[n - deg:]
    return [v - w for v, w in zip(vec[:deg], kernels.convolve(q, ring["phi"]))]


class CyclotomicNumber:
    """Element of Q(zeta_order) in the power basis."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        ring = _ring(order)
        deg = ring["deg"]
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(cs) > deg:
            raise ValueError(f"expected at most {deg} coefficients for order {order}")
        cs += [_ZERO] * (deg - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    # construction -----------------------------------------------------

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        return cls.from_monomials(order, [(power, _ONE)])

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        return cls(order, [Fraction(value)])

    @classmethod
    def from_monomials(cls, order: int, items) -> "CyclotomicNumber":
        """Sum of coeff * zeta_order^exp for (exp, coeff) pairs."""
        items = list(items)
        den = lcm(*(coeff.denominator for _, coeff in items))
        vec = [0] * order
        for exp, coeff in items:
            vec[exp % order] += coeff.numerator * (den // coeff.denominator)
        return cls(order, [Fraction(v, den) for v in _reduce(vec, _ring(order))])

    # helpers ----------------------------------------------------------

    def _as_int_vector(self) -> tuple[list[int], int]:
        den = lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

    def lift_to(self, order: int) -> "CyclotomicNumber":
        """Image under Q(zeta_n) -> Q(zeta_m), zeta_n = zeta_m^(m/n)."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"no embedding of order {self.order} into order {order}")
        step = order // self.order
        return CyclotomicNumber.from_monomials(
            order, ((j * step, c) for j, c in enumerate(self.coeffs) if c)
        )

    def _pair(self, other) -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber(self.order, [Fraction(other)])
        elif not isinstance(other, CyclotomicNumber):
            return NotImplemented, NotImplemented
        if self.order == other.order:
            return self, other
        m = lcm(self.order, other.order)
        return self.lift_to(m), other.lift_to(m)

    # arithmetic -------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicNumber(self.order, [c * f for c in self.coeffs])
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        av, ad = a._as_int_vector()
        bv, bd = b._as_int_vector()
        prod = _reduce(kernels.convolve(av, bv), _ring(a.order))
        den = ad * bd
        return CyclotomicNumber(a.order, [Fraction(v, den) for v in prod])

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = CyclotomicNumber(self.order, [_ONE])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def inverse(self) -> "CyclotomicNumber":
        """Inverse via extended gcd with Phi_n in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        ring = _ring(self.order)
        phi = [Fraction(c) for c in ring["phi"]]
        a = list(self.coeffs)
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        # extended Euclid: u*a + v*phi = gcd (constant, since Phi_n irreducible)
        r0, r1 = phi, a
        s0, s1 = [_ZERO], [_ONE]
        while True:
            while len(r1) > 1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                break
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul_frac(q, s1))
        c = r1[0]
        if c == 0:
            raise ZeroDivisionError("element not invertible (zero divisor?)")
        inv = [x / c for x in s1]
        folded = CyclotomicNumber.from_monomials(
            self.order, ((j, v) for j, v in enumerate(inv) if v)
        )
        return folded

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicNumber(self.order, [c / f for c in self.coeffs])
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # galois -----------------------------------------------------------

    def galois(self, t: int) -> "CyclotomicNumber":
        """Action of zeta -> zeta^t, gcd(t, order) = 1."""
        if gcd(t, self.order) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        return CyclotomicNumber.from_monomials(
            self.order, ((j * t % self.order, c) for j, c in enumerate(self.coeffs) if c)
        )

    def conjugate(self) -> "CyclotomicNumber":
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    # predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                z = f"z{self.order}" + (f"^{j}" if j > 1 else "")
                terms.append(f"{c}*{z}" if c != 1 else z)
        return " + ".join(terms) if terms else "0"


def zeta(order: int, power: int = 1) -> CyclotomicNumber:
    return CyclotomicNumber.zeta(order, power)


# rational-coefficient polynomial helpers (used by inverse) ------------


def _poly_divmod_frac(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        return [_ZERO], num
    q = [_ZERO] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / lead
        q[k - dd] = c
        if c:
            for t in range(dd + 1):
                num[k - dd + t] -= c * den[t]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _poly_mul_frac(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [_ZERO] * (n - len(a))
    b = b + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]
