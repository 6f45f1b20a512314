import random
from fractions import Fraction
from math import gcd

import pytest

from iwrank.arith import euler_phi
from iwrank.cyclotomic import CyclotomicNumber, cyclotomic_polynomial, zeta

F = Fraction


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(60) == 16


def test_cyclotomic_polynomials():
    # low-degree-first coefficient lists
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(5) == [1, 1, 1, 1, 1]
    assert cyclotomic_polynomial(10) == [1, -1, 1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    # product over divisors recovers x^n - 1
    for n in (6, 8, 12, 15):
        prod = [1]
        for d in range(1, n + 1):
            if n % d:
                continue
            phi_d = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(phi_d) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi_d):
                    out[i + j] += a * b
            prod = out
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want, n


def test_zeta_basic_relations():
    z = zeta(5)
    assert z.order == 5
    pw = z
    for k in range(2, 6):
        pw = pw * z
        assert pw == zeta(5, k % 5)
    assert zeta(5, 5) == zeta(5, 0)
    # minimal polynomial kills the root
    acc = CyclotomicNumber(5, [])
    pw = zeta(5, 0)
    for c in cyclotomic_polynomial(5):
        acc = acc + pw * F(c)
        pw = pw * z
    assert acc.is_zero()


def test_rationality():
    z = zeta(8)
    s = z * zeta(8, 7)  # zeta * conjugate = 1
    assert s.is_rational() and s.rational_value() == 1
    # 1 + zeta_3 + zeta_3^2 = 0
    t = zeta(3, 0) + zeta(3, 1) + zeta(3, 2)
    assert t.is_zero() and t.is_rational()
    half = CyclotomicNumber.from_rational(F(1, 2), 12)
    assert half.rational_value() == F(1, 2)
    with pytest.raises(ValueError):
        (zeta(5) + zeta(5, 2)).rational_value()


def test_lift_and_mixed_orders():
    a = zeta(3)
    b = zeta(4)
    prod = a * b
    assert prod.order == 12
    assert prod == zeta(12, 4) * zeta(12, 3)
    assert prod == zeta(12, 7)
    assert zeta(3).lift_to(12) == zeta(12, 4)


def test_galois_and_conjugate():
    z = zeta(7)
    x = z + zeta(7, 2) * F(3, 2)
    assert x.conjugate() == zeta(7, 6) + zeta(7, 5) * F(3, 2)
    assert x.galois(2) == zeta(7, 2) + zeta(7, 4) * F(3, 2)
    # galois maps are multiplicative on the group ring
    y = zeta(7, 3) - zeta(7, 0)
    for t in (2, 3, 5):
        assert (x * y).galois(t) == x.galois(t) * y.galois(t)


def test_inverse_random():
    rng = random.Random(7001)
    for _ in range(25):
        n = rng.choice([3, 4, 5, 7, 8, 9, 12])
        coeffs = [F(rng.randrange(-4, 5)) for _ in range(euler_phi(n))]
        x = CyclotomicNumber(n, coeffs)
        if x.is_zero():
            continue
        inv = x.inverse()
        assert (x * inv).rational_value() == 1


def test_from_monomials():
    x = CyclotomicNumber.from_monomials(6, [(0, F(1)), (1, F(2)), (7, F(1))])
    assert x == zeta(6, 0) + zeta(6, 1) * F(3)


def test_arithmetic_with_rationals():
    z = zeta(5)
    assert z * 2 - z == z
    assert (z + F(1, 3)) - F(1, 3) == z
    assert (z * F(0)).is_zero()
