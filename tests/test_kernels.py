import random

import pytest

from iwrank import kernels
from iwrank.cyclotomic import _ring, cyclotomic_polynomial
from iwrank.numfield import NumberField, _reduce


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
