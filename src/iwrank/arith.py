"""Trial-division arithmetic of small integers: factorization, prime
divisors, Euler's phi, the index of Gamma_0(N) and primality, and the
value of an integer polynomial modulo m.

The numbers factored here are levels, moduli, character orders and p - 1,
so trial division up to the square root is all that is needed.
"""

from __future__ import annotations


def factorize(n: int) -> list[tuple[int, int]]:
    """[(r, e), ...] with n = prod r^e, primes increasing."""
    out = []
    m, r = n, 2
    while r * r <= m:
        if m % r == 0:
            e = 0
            while m % r == 0:
                m //= r
                e += 1
            out.append((r, e))
        r += 1
    if m > 1:
        out.append((m, 1))
    return out


def prime_divisors(n: int) -> list[int]:
    return [r for r, _ in factorize(n)]


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    for p in prime_divisors(n):
        n = n // p * (p - 1)
    return n


def gamma0_index(N: int) -> int:
    """[SL2(Z) : Gamma_0(N)] = N prod_(r | N) (1 + 1/r)."""
    for r in prime_divisors(N):
        N = N // r * (r + 1)
    return N


def poly_eval_mod(coeffs, x: int, m: int) -> int:
    """sum coeffs[i] x^i mod m, for integer coefficients low degree first."""
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % m
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
