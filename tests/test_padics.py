import random
from fractions import Fraction

import pytest

from iwrank.cyclotomic import cyclotomic_polynomial
from iwrank.iwasawa import PadicSeries, mu_lambda, padic_ints
from iwrank.padics import (
    hensel_root,
    padic_valuation,
    smallest_primitive_root,
    teichmuller_lift,
)
from iwrank.padic_l import branch_value_trivial, choose_alpha
from reference import padic_log

F = Fraction


def test_valuation():
    assert padic_valuation(50, 5) == 2
    assert padic_valuation(F(3, 25), 5) == -2
    assert padic_valuation(7, 5) == 0
    with pytest.raises(ValueError):
        padic_valuation(0, 5)


def test_from_rational_and_lift():
    # a rational is p^shift * int mod p^M, -shift the p-power of its
    # denominator
    shift, (x,) = padic_ints([F(7, 2)], 5, 8)
    assert shift == 0 and (2 * x - 7) % 5**8 == 0
    y = PadicSeries(5, 6, 1, [F(50)])
    assert mu_lambda(y)[0] == 2 and y.ints[0] // 25 == 2
    z = PadicSeries(5, 6, 1, [F(3, 5)])
    assert z.shift == -1 and mu_lambda(z)[0] == -1
    assert (5 * z.ints[0] - 3 * 5) % 5**7 == 0


def test_padic_ints_integer_fast_path():
    # lists of ints and integral Fractions take a fast path; one p-unit
    # denominator more sends the same values down the general path
    rng = random.Random(599)
    p, M = 599, 3
    ints = [rng.randrange(-10**12, 10**12) for _ in range(300)] + [0, p**M, -p]
    for values in (ints, [F(x) for x in ints],
                   [F(x) if i % 3 else x for i, x in enumerate(ints)]):
        fast = padic_ints(values, p, M)
        assert fast == (0, [int(x) % p**M for x in values])
        assert all(type(x) is int for x in fast[1])
        assert padic_ints(values + [F(1, 2)], p, M) == (0, fast[1] + [pow(2, -1, p**M)])
    assert padic_ints([], p, M) == (0, [])


def test_zero_to_and_eq():
    z = PadicSeries(5, 6, 1, [0])
    assert z.is_zero() and z.M == 6
    # 5^7 is indistinguishable from 0 at absolute precision 6
    assert PadicSeries(5, 6, 1, [5**7]) == z


def test_teichmuller():
    for p in (5, 7, 11):
        for a in range(1, p):
            t = teichmuller_lift(a, p, 8)
            assert t % p == a
            assert pow(t, p - 1, p**8) == 1
    # idempotent under the defining iteration
    t = teichmuller_lift(2, 5, 10)
    assert pow(t, 5, 5**10) == t


def test_hensel():
    r = hensel_root([5, -3, 1], 3, 5, 8)  # x^2 - 3x + 5, unit root
    assert (r * r - 3 * r + 5) % 5**8 == 0
    assert r % 5 == 3
    r2 = hensel_root([-2, 0, 1], 3, 7, 6)  # sqrt(2) in Z_7
    assert (r2 * r2 - 2) % 7**6 == 0


def test_padic_log_additive():
    p, k = 5, 9
    mod = 5**k
    rng = random.Random(90210)
    for _ in range(20):
        u = 1 + p * rng.randrange(1, mod // p)
        v = 1 + p * rng.randrange(1, mod // p)
        lu = padic_log(u, p, k)
        lv = padic_log(v, p, k)
        luv = padic_log(u * v % mod, p, k)
        assert min(lu.M, lv.M, luv.M) >= k - 1
        assert (lu.ints[0] + lv.ints[0] - luv.ints[0]) % p**(k - 1) == 0
    assert padic_log(1, p, k).is_zero()
    with pytest.raises(ValueError):
        padic_log(2, 5, 6)  # not a one-unit


def test_primitive_roots():
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(11) == 2
    assert smallest_primitive_root(23) == 5


def test_cyclotomic_embedding(pair19):
    # a branch value is the symbol row summed against the Teichmuller
    # lifts: value_j = (1/2 alpha) sum_b omega(b)^(-j) x^sgn(b/p) mod p^W
    p, W = 5, 14
    m = p**W
    alpha = choose_alpha(3, p, 19)
    for j in (1, 2, 3):
        row = pair19.evaluate_row(p, 1 if j % 2 == 0 else -1)
        want = sum(pow(teichmuller_lift(b, p, W), -j, m) * row[b].numerator
                   * pow(row[b].denominator, -1, m) for b in range(1, p))
        want = want * pow(2 * alpha.ints[0], -1, m) % m
        got = branch_value_trivial(pair19, p, alpha, j)
        assert (got.M, got.shift, got.ints[0]) == (W, 0, want), j
    # at p = 13, zeta_4 = zeta_12^3 goes to a square root of -1
    m = 13**8
    i = pow(teichmuller_lift(smallest_primitive_root(13), 13, 8), 3, m)
    assert (i * i + 1) % m == 0 and i * pow(i, 3, m) % m == 1


def test_embedding_root_of_poly():
    m = 11**9
    root = teichmuller_lift(smallest_primitive_root(11), 11, 9)
    acc = sum(c * pow(root, k, m)
              for k, c in enumerate(cyclotomic_polynomial(10)))
    assert acc % m == 0
