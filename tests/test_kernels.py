import random

import pytest

from iwrank import kernels
from iwrank.cyclotomic import _ring, cyclotomic_polynomial
from iwrank.numfield import NFElement, NumberField, _reduce


def _reduction_rows(modulus, extra):
    # modulus is monic; rows[k] = x^(deg+k) mod modulus
    deg = len(modulus) - 1
    rows = []
    cur = [-c for c in modulus[:deg]]
    rows.append(list(cur))
    for _ in range(extra - 1):
        cur = [0] + cur
        lead = cur.pop()
        if lead:
            for t in range(deg):
                cur[t] += lead * rows[0][t]
        rows.append(list(cur))
    return rows


def _fold_tail(vec, rows, deg):
    # the reduction by table: fold x^(deg+k) back through rows[k]
    out = list(vec[:deg]) + [0] * max(deg - len(vec), 0)
    for k in range(deg, len(vec)):
        c = vec[k]
        if not c:
            continue
        for t, rt in enumerate(rows[k - deg]):
            if rt:
                out[t] += c * rt
    return out


def _random_vec(rng, length, bound):
    return [rng.randrange(-bound, bound + 1) for _ in range(length)]


def test_convolve_known_values():
    assert kernels.convolve([1, 1], [1, -1]) == [1, 0, -1]
    assert kernels.convolve([2, 0, 3], [5]) == [10, 0, 15]
    assert kernels.convolve([], [1, 2]) == []
    assert kernels.convolve([7], []) == []


def test_selected_backend_exports():
    assert kernels.convolve([1, 2], [3]) == [3, 6]
    assert kernels.COMPILED is False


@pytest.mark.parametrize("bound", [1, 9, 2**31, 2**63, 10**40])
def test_kronecker_matches_schoolbook(bound):
    # every pair of lengths 0..40, around the crossover, both signs;
    # the bounds put the slots on and beyond the machine-word sizes
    rng = random.Random(bound)
    for la in range(41):
        for lb in range(41):
            a, b = _random_vec(rng, la, bound), _random_vec(rng, lb, bound)
            if not (la and lb):
                assert kernels.convolve(a, b) == []
                continue
            expect = kernels._schoolbook(a, b)
            assert kernels._kronecker(a, b) == expect, (la, lb)
            assert kernels.convolve(a, b) == expect, (la, lb)


def test_kronecker_long_and_degenerate():
    rng = random.Random(1624)
    a, b = _random_vec(rng, 1624, 8), _random_vec(rng, 1624, 8)
    assert kernels.convolve(a, b) == kernels._schoolbook(a, b)
    big = _random_vec(rng, 1624, 10**40)
    assert kernels.convolve(big, a) == kernels._schoolbook(big, a)
    # a short operand against a long one, on both sides of the cost model
    for la in range(1, 13):
        short = _random_vec(rng, la, 8)
        assert kernels.convolve(short, b) == kernels._schoolbook(short, b)
        assert kernels.convolve(b, short) == kernels._schoolbook(short, b)
    # product coefficients of +-bound with bound just below a slot's
    # sign bit, for slots of 1, 2, 4 and 8 bytes and beyond
    for bits in (7, 15, 31, 63, 64, 100):
        m = (2**bits - 1) // 16
        for x, y in ((m, 1), (m, -1), (-m, -1)):
            a16, b16 = [x] * 16, [y] * 16
            assert kernels.convolve(a16, b16) == kernels._schoolbook(a16, b16)
    assert kernels.convolve([0] * 30, a) == [0] * 1653
    assert kernels.convolve(a, [0] * 30) == [0] * 1653
    assert kernels.convolve([], []) == []
    assert kernels.convolve([], a) == []


def test_psi_is_the_cofactor_of_phi():
    # the Barrett quotient of Phi_n is x^n div Phi_n = Psi_n
    for n in list(range(1, 61)) + [1711, 3422]:
        ring = _ring(n)
        x_n_minus_1 = [-1] + [0] * (n - 1) + [1]
        assert ring.k == n
        assert kernels.convolve(ring.barrett, ring.poly) == x_n_minus_1


def _check_reduction(n, rng, lengths):
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = _reduction_rows(phi, max(max(lengths) - deg, 1))
    ring = _ring(n)
    for length in lengths:
        vec = _random_vec(rng, length, 10**6)
        assert _reduce(vec, ring) == _fold_tail(vec, rows, deg), (n, length)


def test_psi_reduction_matches_table_small_orders():
    rng = random.Random(300)
    for n in range(1, 301):
        _check_reduction(n, rng, sorted({0, n - 1, n, n + 1, 2 * n}))


def test_psi_reduction_matches_table_large_orders():
    # the largest orders of Gauss sums of characters mod 31..60:
    # phi(3422) = phi(1711) = 1624, phi(2756) = 1248
    rng = random.Random(3422)
    for n in (1711, 2756, 3422):
        deg = len(cyclotomic_polynomial(n)) - 1
        _check_reduction(n, rng, [deg + 1, 2 * deg - 1, n - 1, n, 2 * n])


def _monic_remainder(vec, poly):
    # schoolbook long division by a monic polynomial
    d = len(poly) - 1
    rem = list(vec)
    for j in range(len(rem) - 1, d - 1, -1):
        c = rem[j]
        for t in range(d + 1):
            rem[j - d + t] -= c * poly[t]
    return (rem[:d] + [0] * d)[:d]


def test_barrett_matches_long_division():
    # x^k div f with k = 2d - 2 reduces every product of two reduced
    # vectors, up to length k + 1
    rng = random.Random(2026)
    for d in range(1, 7):
        for _ in range(40):
            poly = _random_vec(rng, d, 50) + [1]
            field = NumberField(poly)
            assert field.k == 2 * d - 2
            for length in range(0, 2 * d):
                vec = _random_vec(rng, length, 10**9)
                assert _reduce(vec, field) == _monic_remainder(vec, poly), (poly, vec)


# the packed reduction against long division --------------------------

PACKED_BOUNDS = (1, 2**31, 2**63, 10**40)
PACKED_ORDERS = list(range(1, 301)) + [1711, 2756, 3422]


def _sparse_remainder(vec, poly, period=None):
    # long division by a monic polynomial, over its nonzero terms; with a
    # period n (poly divides x^n - 1), after folding x^n to 1
    d = len(poly) - 1
    rem = list(vec) + [0] * max(d - len(vec), 0)
    if period is not None and len(rem) > period:
        rem, tail = rem[:period], rem[period:]
        for k, c in enumerate(tail):
            rem[k % period] += c
    terms = [(t, c) for t, c in enumerate(poly[:d]) if c]
    for j in range(len(rem) - 1, d - 1, -1):
        c = rem[j]
        if c:
            for t, pt in terms:
                rem[j - d + t] -= c * pt
    return rem[:d]


def _edge_vectors(rng, length, bound):
    # vectors of +-bound, on the slot edge the width is chosen for, and a
    # random one
    return [[bound] * length, [-bound] * length,
            [bound if i % 2 else -bound for i in range(length)],
            _random_vec(rng, length, bound)]


def _packed_fields():
    """(field forced onto the packed path, the reference remainder): long
    division, or at the three large orders (where it takes seconds) the
    list path of `_reduce`, checked against long division once."""
    polys = [(cyclotomic_polynomial(n), n) for n in PACKED_ORDERS]
    polys += [([-5, 0, 1], None),         # Q(sqrt 5)
              ([-2, -1, 0, 1], None)]     # x^3 - x - 2
    rng = random.Random(3)
    for poly, n in polys:
        packed, listed = NumberField(poly, n), NumberField(poly, n)
        packed._packed, listed._packed = True, False
        d = listed.degree
        if n is not None and n > 300:
            vec = _random_vec(rng, 2 * d - 1, 1)
            assert _reduce(vec, listed) == _sparse_remainder(vec, poly)
            yield packed, lambda vec, f=listed: _reduce(vec, f)
        else:
            yield packed, lambda vec, p=poly, n=n: _sparse_remainder(vec, p, n)


def test_packed_reduction_matches_long_division():
    # lengths just above d, the monomial sums of length n and a double
    # fold at 2n (2d - 1, the product's, is the next test's)
    rng = random.Random(8)
    for packed, reference in _packed_fields():
        d, n = packed.degree, packed.period
        lengths = {d + 1} | ({n, 2 * n} if n else {2 * d - 1})
        for length in sorted(x for x in lengths if x > d):
            assert _reduce([0] * length, packed) == [0] * d
            # the remainder is linear: those of the +-bound vectors are
            # multiples of these two
            ones = reference([1] * length)
            signs = reference([1 if i % 2 else -1 for i in range(length)])
            for bound in PACKED_BOUNDS:
                plus, minus, alternating, rand = _edge_vectors(rng, length, bound)
                for vec, want in ((plus, [bound * c for c in ones]),
                                  (minus, [-bound * c for c in ones]),
                                  (alternating, [bound * c for c in signs]),
                                  (rand, reference(rand))):
                    assert _reduce(vec, packed) == want, (packed, length, bound)


def test_packed_product_matches_long_division():
    rng = random.Random(88)
    for packed, reference in _packed_fields():
        d = packed.degree
        zero, big = NFElement(packed, [0] * d, 1), NFElement(packed, [10**40] * d, 1)
        assert (zero * big).is_zero() and (big * zero).is_zero()
        for bound in PACKED_BOUNDS:
            plus, minus, alternating, rand = _edge_vectors(rng, d, bound)
            # a square packs its operand once
            for a, b in ((plus, minus), (alternating, rand), (rand, rand)):
                x, y = NFElement(packed, a, 1), NFElement(packed, b, 1)
                prod = x * x if a is b else x * y
                assert list(prod.nums) == reference(kernels.convolve(a, b)), \
                    (packed, bound)
