"""Reference implementations that tests use as oracles for live code.

They are written independently of the fast paths they check and run only
under the test suite.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd

from iwrank.cyclotomic import CyclotomicNumber
from iwrank.modsym import _xgcd
from iwrank.iwasawa import PadicSeries
from iwrank.kernels import convolve
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


# -- the T-basis of the cyclic group ring ------------------------------


def gamma_to_t(masses):
    """T-basis coefficients of sum_c masses[c] (1+T)^c: the Taylor shift
    x -> x + 1, exact on ints.  The oracle of `iwasawa.mass_mu_lambda`
    (through `mu_lambda` of the converted series)."""
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


def t_series(bs) -> PadicSeries:
    """The T-basis series of a branch series' group masses."""
    return PadicSeries.from_ints(bs.p, bs.M, len(bs.masses),
                                 gamma_to_t(bs.masses), bs.shift)


def reduce_gamma(f: PadicSeries, order: int) -> PadicSeries:
    """Remainder of a T-series modulo (1+T)^order - 1, with T-bound
    order: the projection onto the group ring of a cyclic quotient."""
    ints = list(f.ints)
    if f.D > order:
        ints = gamma_to_t(fold(t_to_gamma(ints), order))
    return PadicSeries.from_ints(f.p, f.M, order, ints, f.shift)


def group_ring_mul(a: PadicSeries, b: PadicSeries) -> PadicSeries:
    """Product of two T-series of length D = order modulo
    ((1+T)^order - 1, p^M): a cyclic convolution of their group masses,
    folded mod gamma^order - 1.  The oracle of the verdict rule and of
    `padic_l.apply_sigma0`."""
    a.check_product(b)
    m = a.p ** a.M
    ga, gb = ([x % m for x in t_to_gamma(s.ints)] for s in (a, b))
    prod = fold(convolve(ga, gb), a.D)
    return PadicSeries.from_ints(a.p, a.M, a.D, gamma_to_t([x % m for x in prod]))
