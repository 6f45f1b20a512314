import random
from fractions import Fraction
from math import gcd, lcm

from iwrank.linalg import kernel, rref
from reference import right_kernel
from reference import rref as dense_rref

F = Fraction


def _random_rows(rng, nrows, ncols):
    """Sparse integer rows {column: entry}: some empty, some repeated or
    multiples of earlier rows, entries up to 10^6 in size."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.25 and rows:
            k = rng.choice([1, -1, 2, -3])
            rows.append({c: k * x for c, x in rng.choice(rows).items()})
        else:
            row = {}
            for c in rng.sample(range(ncols), rng.randint(1, min(ncols, 4))):
                x = rng.choice([rng.randint(-3, 3), rng.randint(-10**6, 10**6)])
                if x:
                    row[c] = x
            rows.append(row)
    return rows


def _dense(rows, ncols):
    return [[F(row.get(c, 0)) for c in range(ncols)] for row in rows]


def test_rref_and_kernel_match_dense_oracle():
    rng = random.Random(20261018)
    cases = [([], 0), ([], 4), ([{}, {}], 3), ([{1: 2}, {1: 2}, {1: -4}], 3)]
    cases += [(_random_rows(rng, rng.randint(1, 9), ncols), ncols)
              for ncols in (1, 2, 5, 8) for _ in range(60)]
    for rows, ncols in cases:
        reduced = rref([dict(r) for r in rows])
        # the RREF of the row span, each row coprime integers over its lead
        want, pivots = dense_rref(_dense(rows, ncols)) if rows else ([], [])
        assert sorted(reduced) == pivots, rows
        for p, row in reduced.items():
            assert min(row) == p and all(row.values())
            assert gcd(*row.values()) == 1
            assert all(c == p or c not in reduced for c in row)
            assert [F(row.get(c, 0), row[p]) for c in range(ncols)] == \
                want[pivots.index(p)], rows
        free, scale, basis = kernel(reduced, range(ncols))
        assert free == [c for c in range(ncols) if c not in reduced]
        assert scale == lcm(*(abs(row[p]) for p, row in reduced.items()))
        dense_basis = [[F(v.get(c, 0), scale) for c in range(ncols)] for v in basis]
        assert dense_basis == right_kernel(_dense(rows, ncols), ncols, F(1)), rows
        for v in basis:
            assert all(type(x) is int and x for x in v.values())
            assert all(sum(x * v.get(c, 0) for c, x in row.items()) == 0
                       for row in rows)
