import random

import pytest

from iwrank import kernels
from iwrank.cyclotomic import _reduce, _ring, cyclotomic_polynomial


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


def _random_vec(rng, length, bound):
    return [rng.randrange(-bound, bound + 1) for _ in range(length)]


def test_convolve_known_values():
    assert kernels.convolve([1, 1], [1, -1]) == [1, 0, -1]
    assert kernels.convolve([2, 0, 3], [5]) == [10, 0, 15]
    assert kernels.convolve([], [1, 2]) == []
    assert kernels.convolve([7], []) == []


def test_fold_tail_cyclotomic():
    # reduce x^2 + x + 1 worth of tail: modulus x^2 + x + 1 over Z
    rows = _reduction_rows([1, 1, 1], 4)
    assert rows[0] == [-1, -1]          # x^2 = -x - 1
    assert rows[1] == [1, 0]            # x^3 = 1
    assert kernels.fold_tail([0, 0, 1], rows, 2) == [-1, -1]
    assert kernels.fold_tail([5, 2, 0, 1], rows, 2) == [6, 2]


def test_convolve_reduce_agrees_with_direct():
    rows = _reduction_rows([2, 0, 1], 6)   # x^2 = -2, a Gaussian-like ring
    a, b = [3, 4], [1, -2]
    prod = kernels.convolve(a, b)
    assert kernels.convolve_reduce(a, b, rows, 2) == kernels.fold_tail(prod, rows, 2)
    # (3+4x)(1-2x) with x^2=-2: 3 - 2x - 8x^2 = 19 - 2x
    assert kernels.convolve_reduce(a, b, rows, 2) == [19, -2]


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
    for n in list(range(1, 61)) + [1711, 3422]:
        ring = _ring(n)
        x_n_minus_1 = [-1] + [0] * (n - 1) + [1]
        assert kernels.convolve(ring["psi"], ring["phi"]) == x_n_minus_1


def _check_reduction(n, rng, lengths):
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = _reduction_rows(phi, max(max(lengths) - deg, 1))
    ring = _ring(n)
    for length in lengths:
        vec = _random_vec(rng, length, 10**6)
        assert _reduce(vec, ring) == kernels.fold_tail(vec, rows, deg), (n, length)


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
