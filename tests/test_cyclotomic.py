import random
from fractions import Fraction
from math import gcd

import pytest

from iwrank.arith import euler_phi
from iwrank.cyclotomic import CyclotomicNumber, cyclotomic_polynomial, zeta
from reference import EagerCyclotomic

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


# the group ring against the reduce-at-every-step oracle ----------------

# odd and even orders, with short and long Barrett quotients: h - phi(n)
# runs from 0 (n = 1, 2, 4) through 87 (1711, 3422) to 399 (903)
EAGER_ORDERS = (1, 2, 3, 4, 5, 12, 15, 60, 210, 903, 1711, 2162, 3422)
# an order to mix with each, meeting it in Q(zeta_lcm); the orders up to
# 1711 are also lifted to 2n, odd ones onto the negacyclic fold
EAGER_PARTNER = {1: 3, 2: 3, 3: 4, 4: 3, 5: 4, 12: 8, 15: 6, 60: 9, 210: 4,
                 903: 2, 1711: 2, 2162: 1081, 3422: 1711}


def _random_items(rng, n, dense):
    """(exponent, coefficient) pairs: a few unit or small terms, as in a
    Gauss sum, or about n terms; exponents also beyond [0, n), and a
    third of the elements over a denominator."""
    count = rng.randrange(n // 2, n + 1) if dense else rng.randrange(1, 9)
    over = rng.randrange(1, 7) if rng.random() < 1 / 3 else 1
    return [(rng.randrange(-n, 2 * n), F(rng.choice([1, -1, rng.randrange(-9, 10)]), over))
            for _ in range(count)]


def _agrees(x, ref):
    assert (x.nums, x.den) == (ref.nums, ref.den)
    assert repr(x) == repr(ref)
    assert x.is_rational() == ref.is_rational()
    if ref.is_rational():
        assert x.rational_value() == ref.rational_value()


@pytest.mark.parametrize("n", EAGER_ORDERS)
def test_group_ring_matches_eager_reference(n):
    rng = random.Random(n)
    d = euler_phi(n)
    k = EAGER_PARTNER[n]
    units = [t for t in range(1, n + 1) if gcd(t, n) == 1]
    for round_ in range(2 if d > 100 else 12):
        pairs = []
        for dense in (False, True, round_ % 2 == 1):
            items = _random_items(rng, n, dense)
            pairs.append((CyclotomicNumber.from_monomials(n, items),
                          EagerCyclotomic.from_monomials(n, items)))
        # an element given by its power-basis coefficients
        coeffs = [F(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(d)]
        pairs.append((CyclotomicNumber(n, coeffs),
                      EagerCyclotomic.from_monomials(n, list(enumerate(coeffs)))))
        # rational values of nonzero group-ring vectors: the sum of all
        # n-th roots of unity, and zeta^j zeta^-j
        j = rng.randrange(n)
        all_roots = [(e, 1) for e in range(n)]
        pairs.append((CyclotomicNumber.from_monomials(n, all_roots),
                      EagerCyclotomic.from_monomials(n, all_roots)))
        pairs.append((zeta(n, j) * zeta(n, -j) * F(5, 3),
                      EagerCyclotomic.from_monomials(n, [(0, F(5, 3))])))
        for x, ref in pairs:
            _agrees(x, ref)
        (a, ra), (b, rb), (c, rc) = pairs[:3]
        s = F(rng.randrange(1, 10), rng.randrange(1, 7)) * rng.choice([1, -1])
        _agrees(a + b, ra + rb)
        _agrees(a - c, ra - rc)
        _agrees(-b, -rb)
        _agrees(a * s + s, ra * s + s)
        _agrees(s - c, -rc + s)
        _agrees(a * b, ra * rb)
        _agrees(b * c, rb * rc)
        # a product of products: group-ring vectors of h slots each
        _agrees(a * b * c, ra * rb * rc)
        power = 3 if d <= 100 else 2
        _agrees(a ** power, ra ** power)
        t = rng.choice(units)
        _agrees(b.galois(t), rb.galois(t))
        _agrees(c.conjugate(), rc.conjugate())
        _agrees((a * b).galois(t), (ra * rb).galois(t))
        if n <= 1711:
            _agrees(a.lift_to(2 * n), ra.lift_to(2 * n))
        # elements of two orders meet in Q(zeta_lcm)
        items = _random_items(rng, k, round_ % 2 == 0)
        w, rw = CyclotomicNumber.from_monomials(k, items), EagerCyclotomic.from_monomials(k, items)
        _agrees(a * w, ra * rw)
        _agrees(w + c, rw + rc)
        # equal values compare equal however they were built
        assert (a == b) == (ra == rb) and (a == w) == (ra == rw)
        assert (a + b) - b == a and a * b == b * a
        assert (b * c == a) == (rb * rc == ra)
        for x, ref in pairs[-2:]:
            assert x == ref.rational_value()
        if (d <= 16 or round_ == 0 and d <= 48) and any(ra.nums):
            inverse = ra.inverse()
            _agrees(a.inverse(), inverse)
            _agrees(a ** -1 * b, inverse * rb)
