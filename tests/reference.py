"""Reference implementations that tests use as oracles for live code.

They are written independently of the fast paths they check and run only
under the test suite.
"""

from fractions import Fraction
from math import gcd

from iwrank.cyclotomic import CyclotomicNumber
from iwrank.modsym import _xgcd
from iwrank.iwasawa import PadicSeries
from iwrank.qseries import bernoulli_number


def p1_normalize(N: int, u: int, v: int) -> tuple[int, int]:
    """Canonical representative of (u:v) in P^1(Z/N): first entry a divisor
    g of N, second minimal over the stabilizing unit orbit.  The oracle of
    `modsym.P1List`."""
    if N == 1:
        return 0, 0
    u %= N
    v %= N
    if u == 0:
        if gcd(v, N) != 1:
            raise ValueError(f"({u}:{v}) is not a point of P1(Z/{N})")
        return 0, 1
    g, s, _ = _xgcd(u, N)
    if gcd(g, v) != 1:
        raise ValueError(f"({u}:{v}) is not a point of P1(Z/{N})")
    s %= N
    ng = N // g
    while gcd(s, N) != 1:
        s = (s + ng) % N
    v = (s * v) % N
    if g > 1:
        best = v
        for k in range(1, g):
            t = 1 + k * ng
            if gcd(t, N) == 1:
                w = (t * v) % N
                if w < best:
                    best = w
        v = best
    return g, v


def padic_log(u: int, p: int, abs_prec: int) -> PadicSeries:
    """log of a 1-unit known mod p^abs_prec (p odd), as a one-term series
    mod the digits it keeps, by its power series.  The oracle of
    `padic_l._wild_coordinates`."""
    if p == 2:
        raise ValueError("p = 2 not supported")
    pk = p**abs_prec
    y = (u - 1) % pk
    if y % p != 0:
        raise ValueError("padic_log needs u = 1 mod p")
    if y == 0:
        return PadicSeries.from_ints(p, abs_prec, 1, [0])
    acc = 0
    term = 1
    k = 0
    loss = 0
    while True:
        k += 1
        term = term * y % pk
        if term == 0 and k > 1:
            break
        kv = 0
        kk = k
        while kk % p == 0:
            kk //= p
            kv += 1
        loss = max(loss, kv)
        t = term // p**kv if kv else term
        # term/k = (term/p^kv) * (k/p^kv)^(-1), exact p-part division
        contrib = t * pow(kk, -1, pk) % pk
        if k % 2 == 0:
            acc = (acc - contrib) % pk
        else:
            acc = (acc + contrib) % pk
        # all later terms vanish mod p^abs_prec once k >= abs_prec
        # (v(y^k/k) >= k - log_p k is increasing); generous cutoff:
        if k > abs_prec + 4:
            break
    return PadicSeries.from_ints(p, abs_prec - loss, 1, [acc])


def bernoulli_poly_at(k: int, x: Fraction) -> Fraction:
    """B_k(x) = sum C(k,j) B_j x^(k-j)."""
    acc = Fraction(0)
    c = 1
    xp = [Fraction(1)]
    for _ in range(k):
        xp.append(xp[-1] * x)
    for j in range(k + 1):
        acc += c * bernoulli_number(j) * xp[k - j]
        c = c * (k - j) // (j + 1)
    return acc


def generalized_bernoulli(l: int, chi) -> CyclotomicNumber:
    """B_{l,chi} = F^(l-1) sum_{a=1..F} chi(a) B_l(a/F) over the modulus F
    of chi, summed in Fractions (Washington, Introduction to Cyclotomic
    Fields, Prop. 4.1).  The oracle of `qseries.generalized_bernoulli`."""
    F = chi.modulus
    acc = CyclotomicNumber(chi.order, [])
    for a in range(1, F + 1):
        v = chi(a)
        if v.is_zero():
            continue
        acc = acc + v * bernoulli_poly_at(l, Fraction(a, F))
    return acc * Fraction(F) ** (l - 1)
