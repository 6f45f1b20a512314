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

A reduction takes one of two paths, by the cost model of
`kernels.convolve` for two dense vectors of length d:

- Small fields (every product of `verify`) reduce the coefficient list:
  the Barrett products q = ((v div x^d) m) div x^(k-d) and v - q f
  through `convolve`.
- Large fields reduce on one Kronecker-packed int V = v(2^s), packed
  and unpacked once.  With slots of s bits, `high(V, j)` =
  (V + bias_j) >> (s j) is v div x^j exactly, for the bias of j
  half-full slots.  The quotient is Q = high(high(V, d) M, k - d), and
  V - Q F holds the remainder in its d low slots.  Every slot these
  steps read is at most vmax (1 + |m|_1 |f|_1) in size, for vmax the
  largest coefficient of v, so one slot width chosen from that bound
  serves the whole reduction.  The field caches the two norms, and per
  slot width the packed M and F and the two biases.
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
        # reductions run packed where convolve would take Kronecker
        # substitution for two dense reduced vectors; the list path is
        # the faster one at degree <= 4, the packed one from 12 on
        # (benchmarks/bench_kernels.py times both)
        d = self.degree
        self._packed = kernels._prefers_kronecker(d, d, d * d)
        # a packed reduction of v keeps every slot below max|v| times this
        self._growth = 1 + sum(map(abs, self.barrett)) * sum(map(abs, self.poly))
        self._slot_constants = {}

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

    def _constants(self, width: int):
        """The biases of d and k - d slots and the packed f and m, in
        slots of `width` bytes."""
        out = self._slot_constants.get(width)
        if out is None:
            half = 1 << (8 * width - 1)
            d = self.degree
            out = self._slot_constants[width] = (
                kernels._bias(width, d), kernels._bias(width, self.k - d),
                kernels._pack(self.poly, width, half),
                kernels._pack(self.barrett, width, half))
        return out

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
    folded below x^h, and m = (x^h - e)/f.  A large field packs v once
    and reduces it packed (see the module docstring).
    """
    vec = _fold(vec, field)
    d = field.degree
    if len(vec) <= d:
        return list(vec) + [0] * (d - len(vec))
    if field._packed:
        width = kernels._slot_width(max(max(vec), -min(vec)) * field._growth)
        packed = kernels._pack(vec, width, 1 << (8 * width - 1))
        return _packed_remainder(packed, width, field)
    q = kernels.convolve(vec[d:], field.barrett)[field.k - d:]
    return [v - w for v, w in zip(vec[:d], kernels.convolve(q, field.poly))]


def _packed_remainder(packed: int, width: int, field: NumberField) -> list[int]:
    """v mod field.poly for packed = v(2^s), v of degree at most k in
    slots of s = 8 width bits (see the module docstring)."""
    s = 8 * width
    bias_d, bias_q, f, m = field._constants(width)
    d = field.degree
    q = (((packed + bias_d) >> (s * d)) * m + bias_q) >> (s * (field.k - d))
    packed -= q * f
    raw = (packed + bias_d).to_bytes(width * d, "little")
    return kernels._unpack(raw, width, 1 << (s - 1))


class NFElement:
    """Element of a NumberField: integer numerators `nums` over `den`."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, coeffs, den: int | None = None):
        """sum coeffs[j] x^j, or with `den` given, sum coeffs[j] x^j / den
        for integers coeffs and den > 0."""
        if den is None:
            coeffs = [Fraction(c) for c in coeffs]
            den = lcm(*(c.denominator for c in coeffs))
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        d = field.degree
        if len(coeffs) > d:
            raise ValueError(f"expected at most {d} coefficients")
        g = gcd(den, *coeffs)
        if g != 1:
            coeffs = [c // g for c in coeffs]
            den //= g
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

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.den == b.den:
            return a._new([x + y for x, y in zip(a.nums, b.nums)], a.den)
        ad, bd = a.den, b.den
        return a._new([x * bd + y * ad for x, y in zip(a.nums, b.nums)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-c for c in self.nums], self.den)

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.den == b.den:
            return a._new([x - y for x, y in zip(a.nums, b.nums)], a.den)
        ad, bd = a.den, b.den
        return a._new([x * bd - y * ad for x, y in zip(a.nums, b.nums)], ad * bd)

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
        den = lcm(*(x.denominator for x in inv))
        return self._new([x.numerator * (den // x.denominator) for x in inv], den)

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
