"""Exact arithmetic in cyclotomic fields Q(zeta_n), power-basis representation.

Q(zeta_n) is the number field Q[x]/Phi_n(x), and `CyclotomicNumber` is the
`NFElement` of that field: integer numerators over one denominator on the
basis 1, x, ..., x^(phi(n)-1).  This module adds what is particular to
the Phi_n case: the order n, roots of unity and sums of them, the
embeddings Q(zeta_n) -> Q(zeta_m) for n | m, and the Galois action.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from iwrank.arith import euler_phi, prime_divisors
from iwrank.numfield import NFElement, NumberField, _reduce

_ONE = Fraction(1)

_cyclo_poly_cache: dict[int, list[int]] = {}
_ring_cache: dict[int, NumberField] = {}


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


def _ring(n: int) -> NumberField:
    """Q(zeta_n) as the number field of Phi_n, folded by x^n = 1, or for
    even n by x^(n/2) = -1 (true of every primitive n-th root of unity)."""
    ring = _ring_cache.get(n)
    if ring is None:
        binomial = (n // 2, -1) if n % 2 == 0 else (n, 1)
        ring = _ring_cache[n] = NumberField(cyclotomic_polynomial(n), *binomial)
    return ring


class CyclotomicNumber(NFElement):
    """Element of Q(zeta_order) in the power basis."""

    __slots__ = ("order",)

    def __init__(self, order: int, coeffs, den: int | None = None):
        super().__init__(_ring(order), coeffs, den)
        self.order = order

    def _new(self, nums, den: int) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, nums, den)

    def _pair(self, other):
        # elements of different orders meet in Q(zeta_lcm)
        if isinstance(other, CyclotomicNumber) and other.field is not self.field:
            m = lcm(self.order, other.order)
            return self.lift_to(m), other.lift_to(m)
        return super()._pair(other)

    # construction -----------------------------------------------------

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        return cls.from_monomials(order, [(power, _ONE)])

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        return cls(order, [Fraction(value)])

    @classmethod
    def from_monomials(cls, order: int, items) -> "CyclotomicNumber":
        """Sum of coeff * zeta_order^exp for (exp, coeff) pairs, coeff an
        int or a Fraction."""
        items = list(items)
        den = lcm(*(coeff.denominator for _, coeff in items))
        vec = [0] * order
        for exp, coeff in items:
            vec[exp % order] += coeff.numerator * (den // coeff.denominator)
        return cls(order, _reduce(vec, _ring(order)), den)

    def lift_to(self, order: int) -> "CyclotomicNumber":
        """Image under Q(zeta_n) -> Q(zeta_m), zeta_n = zeta_m^(m/n)."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"no embedding of order {self.order} into order {order}")
        step = order // self.order
        vec = [0] * ((len(self.nums) - 1) * step + 1)
        vec[::step] = self.nums
        return CyclotomicNumber(order, _reduce(vec, _ring(order)), self.den)

    # galois -----------------------------------------------------------

    def galois(self, t: int) -> "CyclotomicNumber":
        """Action of zeta -> zeta^t, gcd(t, order) = 1."""
        n = self.order
        if gcd(t, n) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        vec = [0] * n
        for j, c in enumerate(self.nums):
            vec[j * t % n] = c
        return CyclotomicNumber(n, _reduce(vec, self.field), self.den)

    def conjugate(self) -> "CyclotomicNumber":
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    def __repr__(self):
        # each coefficient as str(Fraction(v, den)) would print it
        den = self.den
        terms = []
        for j, v in enumerate(self.nums):
            if not v:
                continue
            g = gcd(v, den)
            c = str(v // g) if g == den else f"{v // g}/{den // g}"
            if j == 0:
                terms.append(c)
            else:
                z = f"z{self.order}" + (f"^{j}" if j > 1 else "")
                terms.append(z if v == den else f"{c}*{z}")
        return " + ".join(terms) if terms else "0"


def zeta(order: int, power: int = 1) -> CyclotomicNumber:
    return CyclotomicNumber.zeta(order, power)
