"""Exact arithmetic in cyclotomic fields Q(zeta_n), as sums of roots of unity.

Q(zeta_n) is the `NumberField` of Phi_n with the period of every
primitive n-th root of unity x: x^h = e, with h = n and e = 1 for odd
n, h = n/2 and e = -1 for even n (`_ring(n)`).  A `CyclotomicNumber` is
the `NFElement` of that field, so it keeps its one storage there: a
vector of at most h slots in the group ring Z[x]/(x^h - e), reduced
modulo Phi_n only when its power-basis coefficients are read.  What
this module adds is the order n: the constructors from roots of unity,
the Galois action and the embeddings Q(zeta_n) -> Q(zeta_m), n | m,
which map exponents, and the lift of two elements of different orders
into Q(zeta_lcm) before they meet.  A sum of roots of unity goes
straight into the group ring over denominator 1: `from_exponents` counts
its exponents (a Gauss sum, a root of unity), and `from_monomials` adds
integer coefficients as they are, clearing denominators only when some
coefficient is a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm

from iwrank.arith import euler_phi, prime_divisors
from iwrank.numfield import NFElement, NumberField

_ring_cache: dict[int, NumberField] = {}


def cyclotomic_polynomial(n: int) -> list[int]:
    """Integer coefficients of Phi_n, low degree first.

    For n > 1, Phi_n is the product of (1 - x^d)^mu(n/d) over the
    divisors d of n, which only the squarefree n/d contribute to.  Each
    factor multiplies or divides a power series by a binomial in O(phi(n))
    steps, and the product is a polynomial of degree phi(n).
    """
    if n == 1:
        return [-1, 1]
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
    return poly


def _ring(n: int) -> NumberField:
    """Q(zeta_n) as the number field of Phi_n, folded by x^n = 1, or for
    even n by x^(n/2) = -1 (true of every primitive n-th root of unity)."""
    ring = _ring_cache.get(n)
    if ring is None:
        binomial = (n // 2, -1) if n % 2 == 0 else (n, 1)
        ring = _ring_cache[n] = NumberField(cyclotomic_polynomial(n), *binomial)
    return ring


def _group_vector(order: int, terms) -> list[int]:
    """sum c x^k over the (k, c) in terms, as the vector of h slots of
    Z[x]/(x^h - e) for Q(zeta_order): k mod order, then x^h = e."""
    field = _ring(order)
    h, sign = field.period, field.sign
    vec = [0] * h
    for k, c in terms:
        k %= order
        if k < h:
            vec[k] += c
        else:
            vec[k - h] += sign * c
    return vec


class CyclotomicNumber(NFElement):
    """Element of Q(zeta_order): sum vec[j] zeta^j / vden in the group
    ring (see the module docstring)."""

    __slots__ = ("order",)

    def __init__(self, order: int, coeffs, den: int | None = None):
        """sum coeffs[j] zeta^j, or with `den` given, sum coeffs[j] zeta^j
        / den for integers coeffs and den > 0; coeffs beyond h are folded
        by zeta^h = e."""
        super().__init__(_ring(order), coeffs, den)
        self.order = order

    def _new(self, vec, den: int) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, vec, den)

    def _pair(self, other):
        if isinstance(other, CyclotomicNumber) and other.order != self.order:
            # elements of different orders meet in Q(zeta_lcm)
            m = lcm(self.order, other.order)
            return self.lift_to(m), other.lift_to(m)
        return super()._pair(other)

    # construction -----------------------------------------------------

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        return cls.from_exponents(order, (power,))

    @classmethod
    def from_exponents(cls, order: int, exps) -> "CyclotomicNumber":
        """Sum of zeta_order^e over the ints e of exps, repeats counted."""
        return cls(order, _group_vector(order, zip(exps, repeat(1))), 1)

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        return cls(order, [Fraction(value)])

    @classmethod
    def from_monomials(cls, order: int, items) -> "CyclotomicNumber":
        """Sum of coeff * zeta_order^exp for (exp, coeff) pairs, coeff an
        int or a Fraction; with int coeffs only, over denominator 1."""
        items = list(items)
        if all(type(coeff) is int for _, coeff in items):
            return cls(order, _group_vector(order, items), 1)
        den = lcm(*(coeff.denominator for _, coeff in items))
        return cls(order, _group_vector(order, [
            (exp, coeff.numerator * (den // coeff.denominator)) for exp, coeff in items]),
            den)

    def _mapped(self, order: int, t: int) -> "CyclotomicNumber":
        """sum vec[j] zeta_order^(j t) / vden."""
        terms = compress(enumerate(self.vec), self.vec)
        return CyclotomicNumber(order, _group_vector(order, ((j * t, c) for j, c in terms)),
                                self.vden)

    def lift_to(self, order: int) -> "CyclotomicNumber":
        """Image under Q(zeta_n) -> Q(zeta_m), zeta_n = zeta_m^(m/n)."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"no embedding of order {self.order} into order {order}")
        return self._mapped(order, order // self.order)

    # galois -----------------------------------------------------------

    def galois(self, t: int) -> "CyclotomicNumber":
        """Action of zeta -> zeta^t, gcd(t, order) = 1."""
        if gcd(t, self.order) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        return self._mapped(self.order, t)

    def conjugate(self) -> "CyclotomicNumber":
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    def __repr__(self):
        # each coefficient as str(Fraction(v, den)) would print it
        nums, den = self._power_basis()
        terms = []
        for j in compress(range(len(nums)), nums):
            v = nums[j]
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
