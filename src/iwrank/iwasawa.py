"""Iwasawa invariants over Z_p, read off integer coefficients.

A truncated power series in Z_p[[T]] modulo (p^M, T^D) is one tuple of
ints with one valuation shift: coefficient i is p^shift * ints[i], known
modulo p^M, with shift = min(0, least valuation).  A p-adic number is
the one-term series (D = 1).  mu is the least coefficient valuation and
lambda the first index reaching it; the ideal a series generates modulo
p is (0) when mu > 0, else (T^lambda), by Weierstrass preparation.

An element of the cyclic group ring Z_p[Z/p^n] is kept in the same shape
in the basis of group elements gamma^c, gamma = 1 + T: masses[c] is the
coefficient of gamma^c.  Its mu and lambda are read off the masses with
no change of basis (`mass_mu_lambda`): the shift gamma -> 1 + T is
unimodular over Z, and mod p the ring is F_p[T]/(T^(p^n)).
"""

from fractions import Fraction
from itertools import accumulate

from .kernels import convolve
from .padics import PadicPrecisionError, padic_valuation

__all__ = [
    "PadicSeries",
    "mu_lambda",
    "mass_mu_lambda",
    "padic_ints",
    "ideal_mod_pi",
    "ideal_text",
    "UndeterminedInvariants",
]


class UndeterminedInvariants(ArithmeticError):
    """The working precision cannot certify mu/lambda."""


# -- series ---------------------------------------------------------------


def padic_ints(values, p, M):
    """(shift, ints) with values[i] = p^shift * ints[i] mod p^M and
    -shift the largest p-power in a denominator, for exact rationals."""
    if all(type(c) is int or (type(c) is Fraction and c.denominator == 1)
           for c in values):
        m = p ** M
        return 0, [c.numerator % m for c in values]
    parts = []  # numerator, p-free denominator, p-power of the denominator
    for c in values:
        if type(c) is int or (type(c) is Fraction and c.denominator == 1):
            parts.append((int(c), 1, 0))
            continue
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"cannot use {type(c).__name__} as a series coefficient")
        x = Fraction(c)
        k = padic_valuation(x.denominator, p)
        parts.append((x.numerator, x.denominator // p**k, k))
    e = max((k for _, _, k in parts), default=0)
    m = p ** (M + e)
    return -e, [n * p ** (e - k) * (pow(d, -1, m) if d != 1 else 1) % m
                for n, d, k in parts]


def reduce_ints(p, M, shift, ints):
    """(shift, ints) reduced mod p^(M - shift), the shift raised to
    min(0, least valuation); refuses shift > 0."""
    if shift > 0:
        raise ValueError("the valuation shift must be <= 0")
    m = p ** (M - shift)
    ints = [x % m for x in ints]
    while shift < 0 and all(x % p == 0 for x in ints):
        ints = [x // p for x in ints]
        shift += 1
    return shift, tuple(ints)


def refuse_lost_digits(M, shift_a, shift_b):
    """Refuse a product of factors known mod p^M that is not known mod
    p^M: a factor of negative valuation scales the other's error up."""
    lost = -min(shift_a, shift_b)
    if lost:
        raise PadicPrecisionError(
            f"product of series known mod p^{M} is known only mod "
            f"p^{M - lost}: a factor has valuation {-lost}")


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
        self.p, self.M, self.D = p, M, D
        self.shift, self.ints = reduce_ints(p, M, shift,
                                            list(ints) + [0] * (D - len(ints)))

    # -- ring structure ------------------------------------------------

    def _check_match(self, other: "PadicSeries"):
        if (self.p, self.M, self.D) != (other.p, other.M, other.D):
            raise ValueError(
                f"mismatched series moduli: ({self.p},{self.M},{self.D}) "
                f"vs ({other.p},{other.M},{other.D})"
            )

    def check_product(self, other: "PadicSeries"):
        """Refuse a product that is not known mod p^M."""
        self._check_match(other)
        refuse_lost_digits(self.M, self.shift, other.shift)

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


# -- invariants --------------------------------------------------------


def _least_valuation(p, ints):
    """Least p-adic valuation of nonzero ints, not all zero."""
    q, k = p, 0
    while all(x % q == 0 for x in ints):
        q *= p
        k += 1
    return k


def undetermined_text(M, D):
    """Why mu/lambda of a series vanishing mod (p^M, T^D) are unknown."""
    return f"series vanishes mod (p^{M}, T^{D}); mu/lambda undetermined"


def mu_lambda(f: PadicSeries) -> tuple[int, int]:
    """(mu, lambda) of f: its least coefficient valuation and the first
    index reaching it; raises when f vanishes to working precision."""
    if f.is_zero():
        raise UndeterminedInvariants(undetermined_text(f.M, f.D))
    k = _least_valuation(f.p, f.ints)
    q = f.p ** (k + 1)
    return f.shift + k, next(i for i, x in enumerate(f.ints) if x % q)


def mass_mu_lambda(p, shift, masses):
    """(mu, lambda) of sum_c p^shift * masses[c] gamma^c in Z_p[Z/p^n],
    or None when every mass vanishes.  The T-coefficients
    t_k = sum_c masses[c] C(c, k) are an invertible integer change of
    basis, so mu is shift plus the least valuation of the masses; lambda,
    the first k with t_k / p^mu a unit, is the multiplicity of the root
    gamma = 1 of the masses over p^mu mod p, found by synthetic division.
    """
    if not any(masses):
        return None
    k = _least_valuation(p, masses)
    q = p**k
    red = [x // q % p for x in masses]
    lam = 0
    while sum(red) % p == 0:
        # quotient by gamma - 1: coefficient i is the sum of red[i + 1:]
        red = [x % p for x in accumulate(red[:0:-1])][::-1]
        lam += 1
    return shift + k, lam


def ideal_text(mu, lam):
    """The ideal a series of invariants (mu, lambda) generates mod p, as
    printed: "(0)" when mu > 0, else "(1)", "(T)" or "(T^k)"."""
    if mu > 0:
        return "(0)"
    return "(1)" if lam == 0 else "(T)" if lam == 1 else f"(T^{lam})"


def ideal_mod_pi(f: PadicSeries) -> str:
    """The ideal f generates in F_p[[T]] after reducing mod p, as printed
    by `ideal_text`; "(0)" when f vanishes (Weierstrass preparation)."""
    return "(0)" if f.is_zero() else ideal_text(*mu_lambda(f))
