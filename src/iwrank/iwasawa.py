"""Truncated power series over Z_p and their structure invariants.

Series live in Z_p[[T]] modulo (p^M, T^D).  A series is stored as one
tuple of ints with one valuation shift: coefficient i is
p^shift * ints[i], known modulo p^M, with shift = min(0, least
valuation).  A p-adic number is the one-term series (D = 1).  Beyond
ring arithmetic the module reads mu (least coefficient valuation)
and lambda (first index reaching it) off the ints, and from them the
ideal a series generates modulo p: (0) when mu > 0, else (T^lambda), by
Weierstrass preparation.  It also takes remainders modulo
(1+T)^order - 1, in the group-element basis gamma = 1 + T of the cyclic
group ring, where reduction is a fold of exponents.
"""

from fractions import Fraction
from itertools import accumulate

from .kernels import convolve
from .padics import PadicPrecisionError

__all__ = [
    "PadicSeries",
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


# -- invariants --------------------------------------------------------


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


def ideal_mod_pi(f: PadicSeries) -> str:
    """The ideal f generates in F_p[[T]] after reducing mod p, as printed:
    "(0)" when f vanishes or mu > 0, else (T^lambda), written "(1)",
    "(T)" or "(T^k)" (Weierstrass preparation)."""
    if f.is_zero():
        return "(0)"
    mu, lam = mu_lambda(f)
    if mu > 0:
        return "(0)"
    return "(1)" if lam == 0 else "(T)" if lam == 1 else f"(T^{lam})"
