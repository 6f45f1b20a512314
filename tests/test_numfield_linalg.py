from fractions import Fraction

from iwrank.numfield import NumberField
from reference import right_kernel, rref, solve_right

F = Fraction


def test_quadratic_field_arithmetic():
    K = NumberField((-5, 0, 1))  # x^2 - 5
    r = K.gen()
    assert (r * r).rational_value() == 5
    phi = (K.one() + r) * F(1, 2)  # golden-ratio-like unit
    assert (phi * phi - phi - K.one()).is_zero()
    inv = phi.inverse()
    assert (phi * inv).rational_value() == 1
    assert (r - r).is_zero()
    assert K.zero().is_zero()


def test_reduce_mod_degree_one_prime():
    K = NumberField((-5, 0, 1))
    r = K.gen()
    # sqrt5 -> 4 mod 11 (4^2 = 16 = 5)
    assert r.reduce_mod(4, 11) == 4
    a2 = (K.one() * F(-1, 2)) + (r * F(-1, 2))
    assert a2.reduce_mod(4, 11) == 3  # (1 + 2) mod 11, Eisenstein-type
    assert (K.one() * F(1, 2)).reduce_mod(4, 11) == 6


def test_mixed_rational_ops():
    K = NumberField((-5, 0, 1))
    r = K.gen()
    x = r + 2
    assert x - 2 == r
    assert (x * 0).is_zero()
    assert (K.one() * F(3, 7)).rational_value() == F(3, 7)


def test_rref_rank_kernel():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert len(rref(rows)[1]) == 2
    ker = right_kernel(rows, 3, F(1))
    assert len(ker) == 1
    v = ker[0]
    assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in rows)


def test_solve_right():
    rows = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x = solve_right(rows, b)
    assert [sum(r * y for r, y in zip(row, x)) for row in rows] == b


def test_field_coefficient_linalg():
    # the solvers work over a number field, not just Q
    K = NumberField((-5, 0, 1))
    r = K.gen()
    rows = [[K.one(), r], [r, K.one() * 5]]
    assert len(rref(rows)[1]) == 1
    ker = right_kernel(rows, 2, K.one())
    assert len(ker) == 1
    a, b = ker[0]
    assert (rows[0][0] * a + rows[0][1] * b).is_zero()
