import random
from fractions import Fraction

import pytest

from iwrank.cyclotomic import cyclotomic_polynomial, zeta
from iwrank.padics import (
    PadicNumber,
    PadicPrecisionError,
    hensel_root,
    padic_valuation,
    smallest_primitive_root,
    teichmuller_lift,
)
from iwrank.padic_l import teichmuller_embedding
from reference import padic_log

F = Fraction


def test_valuation():
    assert padic_valuation(50, 5) == 2
    assert padic_valuation(F(3, 25), 5) == -2
    assert padic_valuation(7, 5) == 0
    with pytest.raises(ValueError):
        padic_valuation(0, 5)


def test_from_rational_and_lift():
    x = PadicNumber.from_rational(F(7, 2), 5, 8)
    # 1/2 = (5^8+1)/2 mod 5^8
    assert (2 * x.lift() - 7) % 5**8 == 0
    y = PadicNumber.from_rational(F(50), 5, 6)
    assert y.val == 2 and y.unit == 2
    z = PadicNumber.from_rational(F(3, 5), 5, 6)
    assert z.val == -1


def test_arithmetic_precision():
    a = PadicNumber.from_rational(F(2), 7, 10)
    b = PadicNumber.from_rational(F(3), 7, 10)
    assert (a + b).residue(1) == 5
    assert (a * b).residue(2) == 6
    assert (a - b + b).eq_to(a, 10)
    assert (a / b * b).eq_to(a, 9)
    assert a.inverse().eq_to(PadicNumber.from_rational(F(1, 2), 7, 10), 10)
    assert (a ** -2).eq_to(PadicNumber.from_rational(F(1, 4), 7, 10), 9)
    # zero handling
    nil = a - a
    assert nil.zero
    assert (nil * b).zero
    assert (b + nil).eq_to(b, 8)


def test_zero_to_and_eq():
    z = PadicNumber.zero_to(5, 6)
    assert z.zero and z.abs_prec == 6
    w = PadicNumber.from_rational(F(5**7), 5, 4)
    # 5^7 is indistinguishable from 0 at absolute precision 6
    assert w.eq_to(z, 6)


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
        assert (lu + lv).eq_to(luv, k - 1)
    assert padic_log(1, p, k).zero
    with pytest.raises(ValueError):
        padic_log(2, 5, 6)  # not a one-unit


def test_primitive_roots():
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(11) == 2
    assert smallest_primitive_root(23) == 5


def test_cyclotomic_embedding():
    emb = teichmuller_embedding(13, 8)  # Q(zeta_12), so Q(i) through zeta_12^3
    i = emb(zeta(4))
    assert (i * i + 1).zero or (i * i + 1).val >= 8
    # multiplicative on the group of roots
    x = emb(zeta(4, 1)) * emb(zeta(4, 3))
    assert x.eq_to(PadicNumber.from_rational(F(1), 13, 8), 7)
    # rationals pass through
    assert emb(F(3, 2)).eq_to(PadicNumber.from_rational(F(3, 2), 13, 8), 7)


def test_embedding_root_of_poly():
    poly = cyclotomic_polynomial(10)
    emb = teichmuller_embedding(11, 9)
    z = emb(zeta(10))
    acc = PadicNumber.zero_to(11, 9)
    pw = PadicNumber.from_rational(F(1), 11, 9)
    for c in poly:
        acc = acc + pw * c
        pw = pw * z
    assert acc.zero or acc.val >= 8


def test_precision_error_on_exhausted_digits():
    tiny = PadicNumber(5, 0, 1, 2)
    with pytest.raises(PadicPrecisionError):
        tiny.residue(3)
