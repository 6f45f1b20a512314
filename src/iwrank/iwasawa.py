"""Truncated power series over Z_p and their structure invariants.

Series live in Z_p[[T]] modulo (p^M, T^D).  A series is stored as one
tuple of ints with one valuation shift: coefficient i is
p^shift * ints[i], known modulo p^M, with shift = min(0, least
valuation).  A p-adic number is the one-term series (D = 1).  Beyond
ring arithmetic the module reads mu (least coefficient valuation)
and lambda (first index reaching it) off the ints, computes certified
Weierstrass data (distinguished polynomial and unit cofactor), the ideal
a series generates modulo p, and remainders modulo (1+T)^order - 1,
which are taken in the group-element basis gamma = 1 + T of the cyclic
group ring, where reduction is a fold of exponents.
"""

from fractions import Fraction
from itertools import accumulate

from .kernels import convolve
from .padics import PadicPrecisionError

__all__ = [
    "PadicSeries",
    "WeierstrassData",
    "IdealClass",
    "invariants",
    "mu_lambda",
    "padic_ints",
    "ideal_mod_pi",
    "gamma_to_t",
    "t_to_gamma",
    "fold",
    "UndeterminedInvariants",
]


class UndeterminedInvariants(ArithmeticError):
    """The working precision cannot certify mu/lambda."""


# -- the two bases of the cyclic group ring ------------------------------


def gamma_to_t(masses):
    """T-basis coefficients of sum_c masses[c] (1+T)^c: the Taylor shift
    x -> x + 1, exact on ints."""
    rev = list(masses)[::-1]
    n = len(rev)
    # pass k replaces the coefficients of degree >= k by their suffix sums
    for k in range(n - 1):
        rev[:n - k] = accumulate(rev[:n - k])
    return rev[::-1]


def t_to_gamma(coeffs):
    """Group-basis masses of sum_k coeffs[k] (gamma - 1)^k: the Taylor
    shift x -> x - 1, as x -> x + 1 between two sign flips of the odd
    coefficients."""
    flip = [-c if k & 1 else c for k, c in enumerate(coeffs)]
    return [-c if k & 1 else c for k, c in enumerate(gamma_to_t(flip))]


def fold(vec, order):
    """Reduction of a polynomial in gamma modulo gamma^order - 1."""
    out = list(vec[:order]) + [0] * (order - len(vec))
    for i in range(order, len(vec)):
        out[i % order] += vec[i]
    return out


# -- series ---------------------------------------------------------------


def padic_ints(values, p, M):
    """(shift, ints) with values[i] = p^shift * ints[i] mod p^M and
    -shift the largest p-power in a denominator, for exact rationals."""
    parts = []  # numerator, p-free denominator, p-power of the denominator
    for c in values:
        if type(c) is int or (type(c) is Fraction and c.denominator == 1):
            parts.append((int(c), 1, 0))
            continue
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"cannot use {type(c).__name__} as a series coefficient")
        x = Fraction(c)
        d, k = x.denominator, 0
        while d % p == 0:
            d //= p
            k += 1
        parts.append((x.numerator, d, k))
    e = max((k for _, _, k in parts), default=0)
    m = p ** (M + e)
    return -e, [n * p ** (e - k) * (pow(d, -1, m) if d != 1 else 1) % m
                for n, d, k in parts]


class PadicSeries:
    """Element of Z_p[[T]] / (p^M, T^D): coefficient i is
    p^shift * ints[i], with ints[i] reduced mod p^(M - shift).

    Coefficients of negative valuation are tolerated (the modulus is
    absolute), so quotients by p-powers stay in the same shape; a product
    in which one factor has negative valuation loses digits and raises
    PadicPrecisionError.  Binary operations insist on matching (p, M, D).
    """

    __slots__ = ("p", "M", "D", "shift", "ints")

    def __init__(self, p, M, D, coeffs):
        self._set(p, M, D, *padic_ints(coeffs, p, M))

    @classmethod
    def from_ints(cls, p, M, D, ints, shift=0) -> "PadicSeries":
        """The series sum_i p^shift * ints[i] T^i mod (p^M, T^D), for any
        ints and shift <= 0."""
        self = cls.__new__(cls)
        self._set(p, M, D, shift, ints)
        return self

    def _set(self, p, M, D, shift, ints):
        if M < 1 or D < 1:
            raise ValueError("need M >= 1 and D >= 1")
        if len(ints) > D:
            raise ValueError(f"{len(ints)} coefficients for T-degree bound {D}")
        if shift > 0:
            raise ValueError("the valuation shift must be <= 0")
        m = p ** (M - shift)
        ints = [x % m for x in ints]
        ints += [0] * (D - len(ints))
        while shift < 0 and all(x % p == 0 for x in ints):
            ints = [x // p for x in ints]
            shift += 1
        self.p, self.M, self.D = p, M, D
        self.shift = shift
        self.ints = tuple(ints)

    # -- ring structure ------------------------------------------------

    def _check_match(self, other: "PadicSeries"):
        if (self.p, self.M, self.D) != (other.p, other.M, other.D):
            raise ValueError(
                f"mismatched series moduli: ({self.p},{self.M},{self.D}) "
                f"vs ({other.p},{other.M},{other.D})"
            )

    def check_product(self, other: "PadicSeries"):
        """Refuse a product that is not known mod p^M: an error O(p^M) in
        one factor is scaled by the other, so a factor of negative
        valuation costs digits."""
        self._check_match(other)
        lost = -min(self.shift, other.shift)
        if lost:
            raise PadicPrecisionError(
                f"product of series known mod p^{self.M} is known only mod "
                f"p^{self.M - lost}: a factor has valuation {-lost}")

    def __mul__(self, other):
        if not isinstance(other, PadicSeries):
            return NotImplemented
        self.check_product(other)
        prod = convolve(self.ints, other.ints)[:self.D]
        return PadicSeries.from_ints(self.p, self.M, self.D, prod)

    def __eq__(self, other):
        if not isinstance(other, PadicSeries):
            return NotImplemented
        return ((self.p, self.M, self.D, self.shift, self.ints)
                == (other.p, other.M, other.D, other.shift, other.ints))

    def __hash__(self):
        return hash((self.p, self.M, self.D, self.shift, self.ints))

    # -- queries -------------------------------------------------------

    def coefficient(self, i: int) -> "PadicSeries":
        """Coefficient i as a one-term series mod p^M."""
        return PadicSeries.from_ints(self.p, self.M, 1, [self.ints[i]], self.shift)

    def is_zero(self) -> bool:
        return not any(self.ints)

    def reduce_gamma(self, order: int) -> "PadicSeries":
        """Remainder modulo (1+T)^order - 1, returned with T-bound = order.

        This is the projection from the length-D truncation onto the
        group ring of a cyclic quotient of order `order`.
        """
        ints = list(self.ints)
        if self.D > order:
            ints = gamma_to_t(fold(t_to_gamma(ints), order))
        return PadicSeries.from_ints(self.p, self.M, order, ints, self.shift)


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
    def unit_head(self) -> PadicSeries:
        return self.unit.coefficient(0)


def mu_lambda(f: PadicSeries) -> tuple[int, int]:
    """(mu, lambda) of f: its least coefficient valuation and the first
    index reaching it; raises when f vanishes to working precision."""
    if f.is_zero():
        raise UndeterminedInvariants(
            f"series vanishes mod (p^{f.M}, T^{f.D}); mu/lambda undetermined"
        )
    q, k = f.p, 0
    while True:
        for i, x in enumerate(f.ints):
            if x % q:
                return f.shift + k, i
        q *= f.p
        k += 1


def _inverse(f, D, m):
    """Inverse mod (m, T^D) of a series with unit constant term, by
    Newton iteration g <- g (2 - f g)."""
    g = [pow(f[0], -1, m)]
    k = 1
    while k < D:
        k = min(2 * k, D)
        e = [-x for x in convolve(f[:k], g)[:k]]
        e[0] += 2
        g = [x % m for x in convolve(g, e)[:k]]
    return g


def invariants(f: PadicSeries) -> WeierstrassData:
    """Weierstrass data of f, or a loud failure when precision cannot
    certify it (f = 0 to working precision)."""
    mu, lam = mu_lambda(f)
    p, D = f.p, f.D
    Mp = f.M - mu  # digits surviving division by p^mu
    m = p ** Mp
    scale = p ** (mu - f.shift)
    g = [x // scale for x in f.ints]

    # divide T^lam by g = glow + T^lam w: T^lam = q*g + r with deg r < lam,
    # so q = w^(-1) [T^lam - q glow]_(>= lam), a contraction since glow = 0
    # mod p; then q*g = T^lam - r is the distinguished polynomial and
    # unit = q^(-1).
    winv = _inverse(g[lam:] + [0] * lam, D, m)
    glow = g[:lam]
    q = [0] * D
    for _ in range(Mp + 1):
        low = convolve(glow, q)[lam:D] if lam else []
        resid = [-x for x in low] + [0] * (D - lam - len(low))
        resid[0] += 1
        nxt = [x % m for x in convolve(winv, resid)[:D]]
        if nxt == q:
            break
        q = nxt
    qg = [x % m for x in convolve(q, g)[:D]]
    if qg[lam] != 1 or any(qg[lam + 1:]):
        raise ArithmeticError("Weierstrass division failed to converge")
    if any(x % p for x in qg[:lam]):
        raise ArithmeticError("division produced a non-distinguished factor")
    dist = PadicSeries.from_ints(p, Mp, lam + 1, qg[:lam] + [1])
    unit = PadicSeries.from_ints(p, Mp, D, _inverse(q, D, m))
    return WeierstrassData(mu, lam, dist, unit, Mp)


def ideal_mod_pi(f: PadicSeries) -> IdealClass:
    """Ideal generated by f in F_p[[T]] after reducing mod p."""
    if f.is_zero():
        return IdealClass.zero()
    mu, lam = mu_lambda(f)
    return IdealClass.zero() if mu > 0 else IdealClass.power(lam)
