import random
import tempfile
from fractions import Fraction
from math import gcd

import pytest

from iwrank.characters import DirichletCharacter
from iwrank.linalg import charpoly, mat_mul, rref
from iwrank.modsym import (
    EigenspaceError,
    ModularSymbolSpace,
    P1List,
    SymbolPair,
    TwistedSymbol,
    build_space,
    eigen_functional,
    functional_eigenvalue,
    genus_gamma0,
    lift_to_sl2,
    merel_matrices,
    num_cusps,
    p1_normalize,
)
from iwrank.numfield import NumberField

F = Fraction


def proportional(vals, expected):
    """All ratios against the pattern agree; returns the common scalar."""
    lam = None
    for v, e in zip(vals, expected):
        if e == 0:
            assert v == 0, (vals, expected)
        elif lam is None:
            lam = F(v) / F(e)
        else:
            assert F(v) == lam * F(e), (vals, expected, lam)
    assert lam is not None and lam != 0
    return lam


@pytest.mark.parametrize("N,npts,g,nc,dim", [
    (1, 1, 0, 1, 0),
    (11, 12, 1, 2, 3),
    (19, 20, 1, 2, 3),
    (23, 24, 2, 2, 5),
    (52, 84, 5, 6, 15),
])
def test_sizes_and_dimensions(N, npts, g, nc, dim):
    assert len(P1List(N)) == npts
    assert genus_gamma0(N) == g
    assert num_cusps(N) == nc
    sp = ModularSymbolSpace(N)
    assert sp.dim == dim
    if N > 1:
        assert sp.cuspidal_dimension() == 2 * g


def _dense_quotient(N):
    """basis_cols and vectors from the dense RREF of all 2|P^1| Manin
    relation rows, the reference for the sparse quotient."""
    p1 = P1List(N)
    n, idx = len(p1), p1.index
    rows = []
    for i, (u, v) in enumerate(p1.pairs):
        for terms in ((i, idx(v, -u)), (i, idx(v, -u - v), idx(-u - v, u))):
            row = [F(0)] * n
            for j in terms:
                row[j] += 1
            rows.append(row)
    red, pivots = rref(rows)
    basis = [j for j in range(n) if j not in pivots]
    row_of = dict(zip(pivots, red))
    vectors = []
    for i in range(n):
        if i in basis:
            vectors.append(tuple(F(int(c == i)) for c in basis))
        else:
            vectors.append(tuple(-row_of[i][c] for c in basis))
    return basis, vectors


def test_sparse_quotient_matches_dense_rref():
    for N in list(range(2, 41)) + [44, 49, 52, 54, 64, 81]:
        sp = ModularSymbolSpace(N)
        assert (sp.basis_cols, sp.vectors) == _dense_quotient(N), N


def test_p1_table_matches_normalize():
    for N in range(2, 61):
        pl = P1List(N)
        points = set()
        for u in range(N):
            for v in range(N):
                if gcd(gcd(u, v), N) != 1:
                    with pytest.raises(ValueError):
                        pl.index(u, v)
                    continue
                canon = p1_normalize(N, u, v)
                points.add(canon)
                assert pl[pl.index(u, v)] == canon, (N, u, v)
        assert pl.pairs == sorted(points), N


def test_relations_and_star(sp23):
    sp = sp23
    idx = sp.p1.index
    for i, (u, v) in enumerate(sp.p1.pairs):
        two = [a + b for a, b in zip(sp.vectors[i], sp.vectors[idx(v, -u)])]
        assert all(x == 0 for x in two)
        three = [a + b + c for a, b, c in
                 zip(sp.vectors[i], sp.vectors[idx(v, -u - v)],
                     sp.vectors[idx(-u - v, u)])]
        assert all(x == 0 for x in three)
    star = sp.star_images()
    eye = [[F(1) if i == j else F(0) for j in range(sp.dim)]
           for i in range(sp.dim)]
    assert mat_mul(star, star) == eye


@pytest.mark.parametrize("N", [11, 52])
def test_sl2_lifts(N):
    pl = P1List(N)
    for u, v in pl.pairs:
        a, b, c, d = lift_to_sl2(u, v, N)
        assert a * d - b * c == 1
        assert pl.index(c, d) == pl.index(u, v)


def test_merel_matrices_n2():
    assert sorted(merel_matrices(2)) == \
        [(1, 0, 0, 2), (1, 0, 1, 2), (2, 0, 0, 1), (2, 1, 0, 1)]


def test_hecke_on_level_11(sp11):
    t2c = sp11.restrict_to_cuspidal(sp11.hecke_images(2))
    assert len(t2c) == 2
    assert sum(t2c[i][i] for i in range(2)) == -4
    assert charpoly(t2c, F(1)) == [F(4), F(4), F(1)]  # (x + 2)^2
    t2 = sp11.hecke_images(2)
    t3 = sp11.hecke_images(3)
    assert mat_mul(t2, t3) == mat_mul(t3, t2)


def test_eigen_functional_11a(sp11, pair11):
    plus11 = pair11.plus
    for ell, a in [(2, -2), (3, -1), (5, 1), (7, -2), (11, 1), (13, 4)]:
        assert functional_eigenvalue(plus11, ell) == a, ell
    # the coordinate vector really is a T_3 eigenvector
    v = plus11.coords
    t3m = sp11.hecke_images(3)
    for j in range(sp11.dim):
        assert sum(t3m[j][k] * v[k] for k in range(sp11.dim)) == -v[j]


def test_parity_and_path_independence(pair11):
    plus11, minus11 = pair11.plus, pair11.minus
    assert plus11.evaluate(F(-2, 7)) == plus11.evaluate(F(2, 7))
    assert minus11.evaluate(F(-2, 7)) == -minus11.evaluate(F(2, 7))
    assert plus11.evaluate(F(3, 7) + 5) == plus11.evaluate(F(3, 7))
    assert plus11.evaluate(F(3, 7) - 2) == plus11.evaluate(F(3, 7))


def test_eigen_system_determinacy(sp11, pair11):
    both = eigen_functional(sp11, [(2, F(-2)), (3, F(-1))], +1)
    assert both.coords == pair11.plus.coords
    with pytest.raises(EigenspaceError):
        eigen_functional(sp11, [(2, F(5))], +1)


def test_tables_19a(pair19):
    assert functional_eigenvalue(pair19.plus, 5) == 3
    vp = [pair19.plus.evaluate_from_zero(F(b, 5)) for b in range(1, 5)]
    vm = [pair19.minus.evaluate_from_zero(F(b, 5)) for b in range(1, 5)]
    proportional(vp, [F(-1, 2), 1, 1, F(-1, 2)])
    proportional(vm, [F(1, 2), 0, 0, F(-1, 2)])


def test_tables_52a(pair52):
    for ell, a in [(2, 0), (3, 0), (5, 2), (7, -2), (11, -2)]:
        assert functional_eigenvalue(pair52.plus, ell) == a, ell
    vp = [pair52.plus.evaluate_from_zero(F(b, 5)) for b in range(1, 5)]
    vm = [pair52.minus.evaluate_from_zero(F(b, 5)) for b in range(1, 5)]
    proportional(vp, [1, 1, 1, 1])
    proportional(vm, [1, 1, -1, -1])


def test_eigenvalues_over_number_field(sp23):
    K = NumberField((-5, 0, 1))
    r5 = K.gen()
    a2 = (K.one() * F(-1, 2)) + (r5 * F(-1, 2))
    plus23 = eigen_functional(sp23, [(2, a2)], +1, one=K.one())
    minus23 = eigen_functional(sp23, [(2, a2)], -1, one=K.one())
    a3 = functional_eigenvalue(plus23, 3)
    assert a3 == functional_eigenvalue(
        minus23, 3, probes=(F(1, 3), F(1, 7), F(2, 7), F(1, 9)))
    # Merel-matrix cross-check
    t3m = sp23.hecke_images(3)
    w = plus23.coords
    for j in range(sp23.dim):
        lhs = None
        for k in range(sp23.dim):
            term = w[k] * t3m[j][k]
            lhs = term if lhs is None else lhs + term
        assert lhs == a3 * w[j]
    # mod (11, sqrt5 - 4) the eigenvalues are Eisenstein: a_l = 1 + l
    for ell, val in [(2, a2), (3, a3), (5, functional_eigenvalue(plus23, 5))]:
        assert val.reduce_mod(4, 11) == (1 + ell) % 11, ell


def _random_rationals(seed, count=30, max_den=10**4):
    rng = random.Random(seed)
    return [F(rng.randint(-3 * max_den, 3 * max_den), rng.randint(1, max_den))
            for _ in range(count)]


@pytest.mark.parametrize("pair_name,a_ell", [
    ("pair11", {2: -2, 3: -1, 5: 1, 7: -2}),
    ("pair52", {2: 0, 3: 0, 5: 2, 7: -2}),
])
def test_hecke_path_identity(pair_name, a_ell, request):
    # a_l x(r) = sum_b x((r + b)/l) + x(l r), the last term only for l
    # prime to the level
    pair = request.getfixturevalue(pair_name)
    for r in _random_rationals(seed=pair.level):
        for phi in (pair.plus, pair.minus):
            for ell, a in a_ell.items():
                rhs = sum(phi.evaluate((r + b) / ell) for b in range(ell))
                if pair.level % ell:
                    rhs += phi.evaluate(ell * r)
                assert a * phi.evaluate(r) == rhs, (r, ell)


def test_twisted_raw_value_matches_fraction_sum(twisted11):
    tw = twisted11
    chibar = tw.chi.conjugate()
    for r in _random_rationals(seed=23) + [F(b, 23) for b in range(23)]:
        for sign in (1, -1):
            expected = sum(chibar(a).rational_value()
                           * tw.pair.evaluate(r + F(a, tw.C), sign * tw.eps)
                           for a in range(1, tw.C) if gcd(a, tw.C) == 1)
            got = tw.raw_value(r, sign)
            assert type(got) is Fraction and got == expected, (r, sign)


def test_twisted_tables(twisted11):
    tw = twisted11
    tp = [tw.evaluate_from_zero(F(b, 11), +1) for b in range(1, 11)]
    tm = [tw.evaluate_from_zero(F(b, 11), -1) for b in range(1, 11)]
    proportional(tp, [2, 0, 5, 5, 0, 0, 5, 5, 0, 2])
    proportional(tm, [0, 0, -5, 5, 0, 0, -5, 5, 0, 0])
    assert tw.evaluate(F(0), +1) != 0
    assert tw.level == 11 * 23 * 23
    assert tw.eps == -1


def test_double_twist_depletion(pair11):
    # sum_{a,b} chi(a)chi(b) x(r+(a+b)/5) = chi(-1)[5x(r) - a_5 x(5r) + x(25r)]
    chi5 = DirichletCharacter.quadratic_by_discriminant(5)
    assert chi5.parity() == 1
    for r in (F(0), F(1, 3), F(2, 7), F(3, 11)):
        for phi in (pair11.plus, pair11.minus):
            lhs = sum(chi5(a).rational_value() * chi5(b).rational_value()
                      * phi.evaluate(r + F(a + b, 5))
                      for a in range(1, 5) for b in range(1, 5))
            rhs = 5 * phi.evaluate(r) - phi.evaluate(5 * r) \
                + phi.evaluate(25 * r)
            assert lhs == rhs, r


def test_cache_round_trip(pair11):
    with tempfile.TemporaryDirectory() as tmp:
        s1 = build_space(11, cache_dir=tmp)
        s1.hecke_images(2)
        s2 = build_space(11, cache_dir=tmp)
        assert "2" in s2._hecke
        assert s2.vectors == s1.vectors and s2.basis_cols == s1.basis_cols
        assert s2.hecke_images(2) == s1.hecke_images(2)
        phi2 = eigen_functional(s2, [(2, F(-2))], +1)
        assert [phi2.evaluate(F(b, 11)) for b in range(11)] == \
            [pair11.plus.evaluate(F(b, 11)) for b in range(11)]
