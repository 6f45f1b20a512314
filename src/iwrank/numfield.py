"""Exact number fields Q[x]/(f) on one integer-vector core.

An element is a tuple of integer numerators over one positive common
denominator, in lowest terms, on the power basis 1, x, ..., x^(d-1).
Products multiply the numerators (`kernels.convolve`) and reduce modulo
f by Barrett division with m = x^k div f, cached per field (von zur
Gathen & Gerhard, *Modern Computer Algebra*, 9.1).  When f divides
x^h - e the field has a period h and sign e: a vector is first folded
below x^h by x^h = e (`_fold`), and k = h.  Q(zeta_n) is f = Phi_n,
h = n/2, e = -1 for even n, else h = n, e = 1; `cyclotomic` keeps its
elements folded in Z[x]/(x^h - e) and reduces one modulo Phi_n only
when its power-basis coefficients are read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from iwrank import kernels

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _xk_div(poly, k: int) -> list[int]:
    """x^k div poly, for poly monic with integer coefficients."""
    d = len(poly) - 1
    rem = [0] * k + [1]
    q = [0] * (k - d + 1)
    terms = [(t, c) for t, c in enumerate(poly[:d]) if c]
    for j in range(k, d - 1, -1):
        c = rem[j]
        if c:
            q[j - d] = c
            for t, ct in terms:
                rem[j - d + t] -= c * ct
    return q


class NumberField:
    """Q[x]/(poly), poly monic with integer coefficients, low degree first.

    A `period` h with `sign` e says that poly divides x^h - e: vectors are
    then folded below x^h before the division, and k = h.  Otherwise
    k = 2d - 2, the degree of a product of two reduced vectors.
    """

    def __init__(self, poly, period: int | None = None, sign: int = 1):
        self.poly = tuple(int(c) for c in poly)
        if len(self.poly) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        if self.poly[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        self.degree = len(self.poly) - 1
        self.period, self.sign = period, sign
        self.k = period if period is not None else 2 * self.degree - 2
        self.barrett = _xk_div(self.poly, self.k)

    def element(self, coeffs) -> "NFElement":
        return NFElement(self, coeffs)

    def zero(self) -> "NFElement":
        return NFElement(self, [])

    def one(self) -> "NFElement":
        return NFElement(self, [_ONE])

    def gen(self) -> "NFElement":
        if self.degree == 1:
            return NFElement(self, [Fraction(-self.poly[0])])
        return NFElement(self, [_ZERO, _ONE])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.poly == other.poly

    def __repr__(self):
        return f"NumberField({list(self.poly)})"


def _fold(vec: list[int], field: NumberField) -> list[int]:
    """vec folded below x^h by x^h = e, for a field with a period h and
    sign e; any other vector as it is."""
    h = field.period
    if h is None or len(vec) <= h:
        return vec
    out = list(vec[:h])
    for start in range(h, len(vec), h):
        tail = vec[start:start + h]
        # x^(qh + r) = e^q x^r
        op = sub if field.sign == -1 and start // h % 2 else add
        out[:len(tail)] = map(op, out, tail)
    return out


def _reduce(vec: list[int], field: NumberField) -> list[int]:
    """An integer vector modulo field.poly, as its d low coefficients.

    With m = x^k div f, the quotient of v (degree at most k) by f is
    coefficients k.. of (v div x^d) m, so the remainder is the low d
    coefficients of v - q f.  With a period h and sign e, v is first
    folded below x^h, and m = (x^h - e)/f.  Both products go through
    `kernels.convolve`, which picks its method by their size.
    """
    vec = _fold(vec, field)
    d = field.degree
    if len(vec) <= d:
        return list(vec) + [0] * (d - len(vec))
    q = kernels.convolve(vec[d:], field.barrett)[field.k - d:]
    return [v - w for v, w in zip(vec[:d], kernels.convolve(q, field.poly))]


def _lowest_terms(coeffs, den: int | None = None) -> tuple[list[int], int]:
    """(vector, den) in lowest terms, den > 0, for the rationals coeffs,
    or with `den` given, for the integers coeffs over den."""
    if den is None:
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        return [c.numerator * (den // c.denominator) for c in coeffs], den
    g = gcd(den, *coeffs) if den != 1 else 1
    if g != 1:
        return [c // g for c in coeffs], den // g
    return coeffs, den


class NFElement:
    """Element of a NumberField: integer numerators `nums` over `den`."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, coeffs, den: int | None = None):
        """sum coeffs[j] x^j, or with `den` given, sum coeffs[j] x^j / den
        for integers coeffs and den > 0."""
        coeffs, den = _lowest_terms(coeffs, den)
        d = field.degree
        if len(coeffs) > d:
            raise ValueError(f"expected at most {d} coefficients")
        self.field = field
        self.nums = tuple(coeffs) + (0,) * (d - len(coeffs))
        self.den = den

    def _new(self, nums, den: int) -> "NFElement":
        """An element of the same field and class: nums / den."""
        return NFElement(self.field, nums, den)

    def _pair(self, other):
        """self and other as elements of one field, or None."""
        if isinstance(other, (int, Fraction)):
            return self, self._new([other.numerator], other.denominator)
        if isinstance(other, NFElement) and (
                other.field is self.field or other.field == self.field):
            return self, other
        return None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    # arithmetic -------------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign * other, coefficient by coefficient."""
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        den = lcm(a.den, b.den)
        ka, kb = den // a.den, sign * (den // b.den)
        return a._new([x * ka + y * kb for x, y in zip(a.nums, b.nums)], den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self * -1

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return self._new([c * num for c in self.nums], self.den * other.denominator)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._new(_reduce(kernels.convolve(a.nums, b.nums), a.field),
                      a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self._new([1], 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def inverse(self):
        """Inverse via the extended Euclidean algorithm with f in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        r0 = [Fraction(c) for c in self.field.poly]
        r1 = [Fraction(c) for c in self.nums]
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
            raise ZeroDivisionError("not invertible (reducible defining polynomial?)")
        # s1 * self = c / den modulo f, and deg s1 < d
        inv = [x * self.den / c for x in s1[: self.field.degree]]
        return self._new(*_lowest_terms(inv))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (_ONE / other)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.nums[0], self.den)

    def reduce_mod(self, seed: int, p: int) -> int:
        """Image in F_p under x -> seed; the denominator must be a p-unit."""
        if self.den % p == 0:
            raise ValueError("denominator not a p-unit")
        acc = 0
        s = 1
        for c in self.nums:
            acc = (acc + c * s) % p
            s = s * seed % p
        return acc * pow(self.den, -1, p) % p

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.nums[0] == other.numerator
                    and self.den == other.denominator)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.nums == b.nums and a.den == b.den

    def __repr__(self):
        return f"NF{list(self.coeffs)}"


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
