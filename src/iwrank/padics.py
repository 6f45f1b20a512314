"""The p-adic lifting toolbox on plain ints: valuations, Teichmuller
lifts, Hensel roots and primitive roots.

A p-adic number is a one-term `iwasawa.PadicSeries`; PadicPrecisionError
is raised wherever a computation cannot reach the digits asked of it.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import poly_eval_mod, prime_divisors
from .numfield import _lowest_terms


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


def hensel_root(coeffs, seed: int, p: int, prec: int) -> int:
    """Root of the polynomial in Z_p lifting `seed`, via Newton iteration.

    `coeffs` low-degree-first; rational coefficients allowed if their
    denominators are p-units.  Requires f(seed) = 0 mod p and f'(seed) a
    unit mod p.
    """
    ints, den = _lowest_terms(coeffs)
    if den % p == 0:
        raise ValueError("coefficient denominators must be p-units")
    der = [k * c for k, c in enumerate(ints)][1:]
    x = seed % p
    if poly_eval_mod(ints, x, p) != 0:
        raise ValueError("seed is not a root mod p")
    if poly_eval_mod(der, x, p) == 0:
        raise ValueError("derivative vanishes mod p: not a simple root")
    m = p
    target = p**prec
    while m < target:
        m = min(m * m, target)
        fx = poly_eval_mod(ints, x, m)
        dx = poly_eval_mod(der, x, m)
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
