"""Exact number fields Q[x]/(f) on one integer-vector core.

An element is a tuple of integer numerators over one positive common
denominator, in lowest terms, on the power basis 1, x, ..., x^(d-1).
Products multiply the numerators (`kernels.convolve`) and reduce modulo
f by Barrett division with m = x^k div f, cached per field (von zur
Gathen & Gerhard, *Modern Computer Algebra*, 9.1).  The reduction's two
products, by m and by f, go through `kernels.convolve_fixed`, which
keeps both constants packed from one reduction to the next; the field
holds them as plain tuples, and only `kernels` knows the packed form.
When f divides x^h - e the field has a period h and sign e: a vector is
first folded below x^h by x^h = e (`_fold`), and k = h.  Q(zeta_n) is
f = Phi_n, h = n/2, e = -1 for even n, else h = n, e = 1; `cyclotomic`
keeps its elements folded in Z[x]/(x^h - e) and reduces one modulo
Phi_n only when its power-basis coefficients are read.

Division solves the multiplication matrix of the divisor
(`_scalar_matrix`, which `modsym` also writes its eigen-systems with)
by the integer elimination of `linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from iwrank import kernels, linalg

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _xk_div(poly, k: int) -> tuple[int, ...]:
    """x^k div poly, for poly monic with integer coefficients."""
    d = len(poly) - 1
    rem = [0] * k + [1]
    q = [0] * (k - d + 1)
    # the quotient reads rem[d..k] only, which the terms of poly below
    # x^(2d - k) never reach
    terms = [(t, poly[t]) for t in range(max(2 * d - k, 0), d) if poly[t]]
    for j in range(k, d - 1, -1):
        c = rem[j]
        if c:
            q[j - d] = c
            for t, ct in terms:
                rem[j - d + t] -= c * ct
    return tuple(q)


class NumberField:
    """Q[x]/(poly), poly monic with integer coefficients, low degree first.

    A `period` h with `sign` e says that poly divides x^h - e: vectors are
    then folded below x^h before the division, and k = h.  Otherwise
    k = 2d - 2, the degree of a product of two reduced vectors.
    """

    def __init__(self, poly, period: int | None = None, sign: int = 1):
        self.poly = tuple(map(int, poly))
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
    `kernels.convolve_fixed`, which picks its method by their size and
    packs m and f once.
    """
    vec = _fold(vec, field)
    d = field.degree
    if len(vec) <= d:
        return list(vec) + [0] * (d - len(vec))
    q = kernels.convolve_fixed(vec[d:], field.barrett)[field.k - d:]
    return [v - w for v, w in zip(vec[:d], kernels.convolve_fixed(q, field.poly))]


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


def _scalar_matrix(a, field):
    """(d, m): m[t][i] is the x^t coefficient of d a x^i, an integer, so m
    is multiplication by a on the power basis of the field (of Q when
    field is None) with its denominators cleared by d."""
    if field is None:
        a = Fraction(a)
        return a.denominator, [[a.numerator]]
    images = [a * field.element([0] * i + [1]) for i in range(field.degree)]
    d = lcm(*(y.den for y in images))
    return d, [[y.nums[t] * (d // y.den) for y in images]
               for t in range(field.degree)]


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
        """The v with self v = 1, read off `linalg`.  With (d, m) the
        multiplication matrix of self (`_scalar_matrix`), m v = d e_0: the
        kernel of m beside a column holding -d in row 0 has that column
        free, and its basis vector over the kernel's scale is (v, 1).  Any
        other free column makes self a zero divisor."""
        d, m = _scalar_matrix(self, self.field)
        deg = self.field.degree
        rows = [{i: x for i, x in enumerate(mrow) if x} for mrow in m]
        rows[0][deg] = -d
        free, scale, basis = linalg.kernel(linalg.rref(rows), range(deg + 1))
        if free != [deg]:
            raise ZeroDivisionError("no inverse: zero or a zero divisor")
        return self._new([basis[0].get(i, 0) for i in range(deg)], scale)

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
