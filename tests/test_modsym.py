import gc
import random
import weakref
from fractions import Fraction
from math import gcd, lcm

import pytest

from iwrank import examples, modsym
from iwrank.arith import is_prime
from iwrank.characters import DirichletCharacter, unit_group_generators
from iwrank.cli import main
from iwrank.examples import build_example, kept_example, symbol_pair
from iwrank.modsym import (
    EigenspaceError,
    ModularSymbolSpace,
    P1List,
    SymbolFunctional,
    SymbolPair,
    TwistedSymbol,
    cusp_key,
    eigen_functional,
    genus_gamma0,
    merel_matrices,
    num_cusps,
    twist_symbol,
)
from iwrank.newforms import bundled
from iwrank.numfield import NumberField
from iwrank.qseries import bernoulli_number
import reference
from reference import (dense, example_state, flat_values, p1_normalize, path_sum,
                       point_values, right_kernel, rref)

F = Fraction


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


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


def test_genus_matches_fraction_formula():
    for N in range(1, 501):
        assert genus_gamma0(N) == reference.genus_gamma0(N), N


@pytest.mark.parametrize("cusps", [3, 5, 6])
def test_genus_refuses_a_count_that_is_no_genus(cusps, monkeypatch):
    # at level 11 (index 12, no elliptic points) 12 g = 24 - 6 c: not a
    # multiple of 12 at c = 3 and 5, and negative at c = 6
    monkeypatch.setattr(modsym, "num_cusps", lambda N: cusps)
    with pytest.raises(AssertionError, match="level 11"):
        genus_gamma0(11)


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
        vectors = [tuple(F(x, sp.den) for x in dense(w, sp.dim)) for w in sp.vectors]
        assert (sp.basis_cols, vectors) == _dense_quotient(N), N
        assert all(type(x) is int and x for w in sp.vectors for x in w.values())


@pytest.mark.parametrize("N", list(range(2, 61)) + [121])
def test_sparse_images_match_dense_merel_sums(N):
    # T_n (U_n where n divides N) and star, on the basis symbols: the
    # dense sums, over the Merel matrices, of the vectors of the dense
    # quotient at the P^1 points hit
    sp = ModularSymbolSpace(N)
    basis, vectors = _dense_quotient(N)
    at = {pair: i for i, pair in enumerate(sp.p1.pairs)}

    def vector(u, v):
        try:
            return vectors[at[p1_normalize(N, u, v)]]
        except ValueError:  # not a point of P^1
            return None

    def as_dense(rows):
        return [tuple(F(x, sp.den) for x in dense(w, sp.dim)) for w in rows]

    zero = (F(0),) * sp.dim
    for n in (2, 3, 5, 7, 11):
        want = []
        for col in basis:
            u, v = sp.p1.pairs[col]
            hits = [vector(u * a + v * c, u * b + v * d)
                    for a, b, c, d in merel_matrices(n)]
            want.append(tuple(map(sum, zip(zero, *(h for h in hits if h is not None)))))
        assert as_dense(sp.hecke_images(n)) == want, (N, n)
    star = [vector(-u, v) for u, v in (sp.p1.pairs[col] for col in basis)]
    assert as_dense(sp.star_images()) == star, N
    for rows in [sp.star_images()] + [sp.hecke_images(n) for n in (2, 3, 5, 7, 11)]:
        assert all(type(x) is int and x for w in rows for x in w.values()), N


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


@pytest.mark.parametrize("levels", [range(61, 301), range(301, 601), (997, 2003, 4001)],
                         ids=["61-300", "301-600", "997-4001"])
def test_p1_index_matches_normalize_sampled(levels):
    # past the exhaustive range: seeded pairs, half of them with a first
    # entry sharing a factor with N, so that non-points are drawn too
    rng = random.Random(levels[0])
    for N in levels:
        pl = P1List(N)
        divisors = [g for g in range(2, N) if N % g == 0] or [N]
        for _ in range(60):
            u = rng.choice(divisors) * rng.randrange(N) if rng.random() < 0.5 \
                else rng.randrange(-N, 2 * N)
            v = rng.randrange(-N, 2 * N)
            try:
                canon = p1_normalize(N, u, v)
            except ValueError:
                with pytest.raises(ValueError):
                    pl.index(u, v)
                continue
            assert pl[pl.index(u, v)] == canon, (N, u, v)


def test_p1_pairs_and_successors_match_normalize():
    # the points are the canonical forms of the pairs (g, v), g a divisor
    # of N or 0; the successor of (u : v) by d is (d u + v : u), the same
    # point as (u' : v') exactly when u' u - v' (d u + v) = 0 mod N
    for N in range(1, 201):
        pl = P1List(N)
        firsts = [0] + [g for g in range(1, N + 1) if N % g == 0]
        points = set()
        for g in firsts:
            for v in range(N):
                try:
                    points.add(p1_normalize(N, g, v))
                except ValueError:
                    pass
        assert pl.pairs == sorted(points), N
        nxt, state = pl.successors()
        point_at = dict(zip(state, pl.pairs))
        assert len(point_at) == len(state) and len(nxt) == 2 * N + N * sum(
            1 for u, _ in pl.pairs if u != 1 % N), N
        for s, (u, v) in zip(state, pl.pairs):
            assert all((x * u - y * (d * u + v)) % N == 0 for d, (x, y) in
                       enumerate(map(point_at.__getitem__, nxt[s:s + N]))), (N, u, v)


def test_relations_and_star(sp23):
    sp = sp23
    idx = sp.p1.index
    vec = [dense(w, sp.dim) for w in sp.vectors]
    for i, (u, v) in enumerate(sp.p1.pairs):
        two = [a + b for a, b in zip(vec[i], vec[idx(v, -u)])]
        assert all(x == 0 for x in two)
        three = [a + b + c for a, b, c in
                 zip(vec[i], vec[idx(v, -u - v)], vec[idx(-u - v, u)])]
        assert all(x == 0 for x in three)
    star = [dense(w, sp.dim) for w in sp.star_images()]
    eye = [[sp.den ** 2 if i == j else 0 for j in range(sp.dim)]
           for i in range(sp.dim)]
    assert _mat_mul(star, star) == eye


def _cusp_key_faults(key, N):
    """The points (u:v) of P^1(Z/N) whose key changes under (u:v) -> (su:sv)
    for a generator s of the units or under (u:v) -> (u:v+u), and whether
    the keys number `num_cusps(N)`.  Those two moves generate the points
    whose matrices g [a,b;c,d] send oo to one cusp class: gamma g has
    bottom row delta (c, d) mod N for gamma in Gamma0(N), and g [1,t;0,1]
    has (c, d + t c)."""
    gens = [g.gen for g in unit_group_generators(N)]
    faults, keys = [], set()
    for u, v in P1List(N).pairs:
        k = key(u, v, N)
        keys.add(k)
        moved = [(s * u % N, s * v % N) for s in gens] + [(u, (v + u) % N)]
        if any(key(x, y, N) != k for x, y in moved):
            faults.append((u, v))
    return faults, len(keys) == num_cusps(N)


def test_cusp_key_is_a_class_function_with_one_key_per_class():
    # independent of `boundary_data`: the key is constant on the points of
    # one cusp class and takes num_cusps(N) values, so it numbers the classes
    for N in range(1, 401):
        assert _cusp_key_faults(cusp_key, N) == ([], True), N

    # the key without the inverse, v (u/G) mod m, is not invariant under
    # the units: the test finds it out at these composite levels
    def without_inverse(u, v, N):
        G = gcd(u, N)
        m = gcd(G, N // G)
        return G, u // G * v % m

    for N in (150, 175, 200, 225):
        assert _cusp_key_faults(without_inverse, N)[0], N


def test_merel_matrices_n2():
    assert sorted(merel_matrices(2)) == \
        [(1, 0, 0, 2), (1, 0, 1, 2), (2, 0, 0, 1), (2, 1, 0, 1)]


@pytest.mark.parametrize("levels", [range(1, 17), range(17, 201), (599,)],
                         ids=["1-16", "17-200", "599"])
def test_merel_matrices_match_definition_and_oracle(levels):
    # each matrix once, the set of the cubic scan of `reference` and, up
    # to 16, the definition read over all a, b, c, d < n + 1, a bound as
    # n = ad - bc >= ad - (a - 1)(d - 1) = a + d - 1
    for n in levels:
        got = merel_matrices(n)
        assert len(got) == len(set(got)) and set(got) == set(reference.merel_matrices(n)), n
        if n <= 16:
            assert set(got) == {(a, b, c, d) for a in range(1, n + 1) for b in range(a)
                                for d in range(1, n + 1) for c in range(d)
                                if a * d - b * c == n}, n


def test_hecke_on_level_11(sp11):
    t2c = sp11.restrict_to_cuspidal(sp11.hecke_images(2))
    assert len(t2c) == 2
    # charpoly (x + 2)^2: trace -4, determinant 4
    assert t2c[0][0] + t2c[1][1] == -4
    assert t2c[0][0] * t2c[1][1] - t2c[0][1] * t2c[1][0] == 4
    t2, t3 = ([dense(w, sp11.dim) for w in sp11.hecke_images(ell)] for ell in (2, 3))
    assert _mat_mul(t2, t3) == _mat_mul(t3, t2)


def test_eigen_functional_11a(sp11, pair11):
    plus11 = pair11.plus
    for ell, a in [(2, -2), (3, -1), (5, 1), (7, -2), (11, 1), (13, 4)]:
        assert plus11.eigenvalue(ell) == a, ell
    # the coordinate vector really is a T_3 eigenvector
    v = plus11.coords
    t3m = [dense(w, sp11.dim) for w in sp11.hecke_images(3)]
    for j in range(sp11.dim):
        assert sum(t3m[j][k] * v[k] for k in range(sp11.dim)) == -sp11.den * v[j]


def test_parity_and_path_independence(pair11):
    plus11, minus11 = point_values(pair11.plus), point_values(pair11.minus)
    assert plus11(F(-2, 7)) == plus11(F(2, 7))
    assert minus11(F(-2, 7)) == -minus11(F(2, 7))
    assert plus11(F(3, 7) + 5) == plus11(F(3, 7))
    assert plus11(F(3, 7) - 2) == plus11(F(3, 7))


def test_eigen_system_determinacy(sp11, pair11):
    both = eigen_functional(sp11, [(2, F(-2)), (3, F(-1))], +1)
    assert both.coords == pair11.plus.coords
    with pytest.raises(EigenspaceError):
        eigen_functional(sp11, [(2, F(5))], +1)


def test_tables_19a(pair19):
    assert pair19.plus.eigenvalue(5) == 3
    vp, vm = ([row[b] - row[0] for b in range(1, 5)]
              for row in (pair19.evaluate_row(5, s) for s in (1, -1)))
    proportional(vp, [F(-1, 2), 1, 1, F(-1, 2)])
    proportional(vm, [F(1, 2), 0, 0, F(-1, 2)])


def test_tables_52a(pair52):
    for ell, a in [(2, 0), (3, 0), (5, 2), (7, -2), (11, -2)]:
        assert pair52.plus.eigenvalue(ell) == a, ell
    vp, vm = ([row[b] - row[0] for b in range(1, 5)]
              for row in (pair52.evaluate_row(5, s) for s in (1, -1)))
    proportional(vp, [1, 1, 1, 1])
    proportional(vm, [1, 1, -1, -1])


def _dense_eigen_values(sp, targets, sign, one=F(1)):
    """Generator values of the eigenfunctional from the dense right_kernel
    over the field of `one`, scaled to content 1 (over the rational parts
    of the values) with the first nonzero part positive; None when the
    eigenspace is not a line."""
    rows = []
    for imgs, a in [(sp.hecke_images(ell), a) for ell, a in targets] + \
            [(sp.star_images(), sign)]:
        for j, img in enumerate(imgs):
            row = [one * F(x, sp.den) for x in dense(img, sp.dim)]
            row[j] = row[j] - a
            rows.append(row)
    ker = right_kernel(rows, sp.dim, one)
    if len(ker) != 1:
        return None
    vals = [sum((c * F(x, sp.den) for x, c in zip(dense(w, sp.dim), ker[0])), one - one)
            for w in sp.vectors]
    parts = [f for v in vals for f in getattr(v, "coeffs", [v])]
    content = F(gcd(*(f.numerator for f in parts)),
                lcm(*(f.denominator for f in parts)))
    if next(f for f in parts if f) < 0:
        content = -content
    return [v / content for v in vals]


def test_integer_eigen_functional_matches_dense_kernel():
    lines = 0
    for N in range(11, 61):
        sp = ModularSymbolSpace(N)
        cases = [[(2, F(a))] for a in range(-3, 4)]
        if N == 11:
            cases.append([(2, F(-2)), (3, F(-1))])
        for targets in cases:
            for sign in (1, -1):
                want = _dense_eigen_values(sp, targets, sign)
                if want is None:
                    with pytest.raises(EigenspaceError):
                        eigen_functional(sp, targets, sign)
                    continue
                got = eigen_functional(sp, targets, sign).generator_values()
                assert got == want, (N, targets, sign)
                assert all(type(x) is int for x in got)
                lines += 1
    assert lines > 50  # both outcomes are exercised


def test_eigenvalues_over_number_field(sp23):
    K = NumberField((-5, 0, 1))
    r5 = K.gen()
    a2 = (K.one() * F(-1, 2)) + (r5 * F(-1, 2))
    plus23 = eigen_functional(sp23, [(2, a2)], +1)
    minus23 = eigen_functional(sp23, [(2, a2)], -1)
    a3 = plus23.eigenvalue(3)
    assert a3 == minus23.eigenvalue(3)
    # Merel-matrix cross-check
    t3m = [dense(w, sp23.dim) for w in sp23.hecke_images(3)]
    w = plus23.coords
    for j in range(sp23.dim):
        lhs = None
        for k in range(sp23.dim):
            term = w[k] * t3m[j][k]
            lhs = term if lhs is None else lhs + term
        assert lhs == a3 * sp23.den * w[j]
    # mod (11, sqrt5 - 4) the eigenvalues are Eisenstein: a_l = 1 + l
    for ell, val in [(2, a2), (3, a3), (5, plus23.eigenvalue(5))]:
        assert val.reduce_mod(4, 11) == (1 + ell) % 11, ell


@pytest.mark.parametrize("root_sign", [1, -1])
def test_field_functionals_match_dense_oracle(sp23, root_sign):
    # a_2 is either root (-1 +- sqrt5)/2 of x^2 + x - 1: the form 23.2.a
    # and its Galois conjugate
    K = NumberField((-5, 0, 1))
    a2 = (K.one() * F(-1, 2)) + (K.gen() * F(root_sign, 2))
    assert (a2 * a2 + a2 - 1).is_zero()
    for sign in (1, -1):
        got = eigen_functional(sp23, [(2, a2)], sign).generator_values()
        want = _dense_eigen_values(sp23, [(2, a2)], sign, one=K.one())
        assert got == want, sign
        assert all(type(v) is type(a2) for v in got)


def _sqrt5_root(root_sign):
    """(-1 +- sqrt5)/2, built anew on each call."""
    K = NumberField((-5, 0, 1))
    return (K.one() * F(-1, 2)) + (K.gen() * F(root_sign, 2))


def test_eigen_functional_is_kept_on_its_space(sp11):
    # a repeat solve on a space solves anew, to a functional equal to the
    # first, and so does a fresh space.  What a caller reads of a
    # functional is a copy or a tuple.
    for sign in (1, -1):
        phi = eigen_functional(sp11, [(2, F(-2))], sign)
        again = eigen_functional(sp11, [(2, F(-2))], sign)
        assert again.generator_values() == phi.generator_values()
        fresh = eigen_functional(ModularSymbolSpace(11), [(2, F(-2))], sign)
        assert fresh is not phi
        assert fresh.generator_values() == phi.generator_values()
        got = phi.generator_values()
        got[0] += 1
        assert phi.generator_values() == fresh.generator_values() != got
        assert type(phi.values_by_state()) is tuple


def test_conjugate_field_eigenvalues_keep_two_functionals(sp23):
    # the two roots of x^2 + x - 1 cut out two eigenspaces of the one
    # field; an equal eigenvalue built anew solves to an equal functional,
    # on the same space and on a fresh one
    for sign in (1, -1):
        kept = [eigen_functional(sp23, [(2, _sqrt5_root(r))], sign) for r in (1, -1)]
        assert kept[0].generator_values() != kept[1].generator_values()
        for r, phi in zip((1, -1), kept):
            again = eigen_functional(sp23, [(2, _sqrt5_root(r))], sign)
            assert again.generator_values() == phi.generator_values(), (sign, r)
            fresh = eigen_functional(ModularSymbolSpace(23), [(2, _sqrt5_root(r))], sign)
            assert fresh.generator_values() == phi.generator_values(), (sign, r)


def _hecke_defects(phi, ell, a):
    """The basis columns j at which Phi(T_l e_j) = a Phi(e_j) fails."""
    sp, w = phi.space, phi.coords
    return [j for j, img in enumerate(sp.hecke_images(ell))
            if sum((x * c for x, c in zip(dense(img, sp.dim), w) if x), 0) != a * sp.den * w[j]]


@pytest.mark.parametrize("label,ell", [("11.2.a.a", 2), ("19.2.a.a", 2),
                                       ("52.2.a.a", 5), ("23.2.a", 2)])
def test_eigen_relation_at_columns_without_hecke_rows(label, ell):
    # eigen_functional builds Hecke rows only at the columns that lead no
    # reduced star row; the eigen-relation holds at the others as well,
    # for every T_l, and a wrong a_l breaks it
    form = bundled(label)
    sp = ModularSymbolSpace(form.level)
    for sign in (1, -1):
        star = [[F(x, sp.den) - sign * (k == j) for k, x in enumerate(dense(img, sp.dim))]
                for j, img in enumerate(sp.star_images())]
        _, dropped = rref(star)
        assert dropped, (label, sign)
        phi = eigen_functional(sp, [(ell, form.a(ell))], sign)
        for q in (2, 3, 5, 7):
            assert _hecke_defects(phi, q, form.a(q)) == [], (label, sign, q)
        q = next(q for q in (2, 3, 5, 7) if form.a(q) != 0)
        assert _hecke_defects(phi, q, -form.a(q)), (label, sign, q)


@pytest.fixture(scope="module")
def sp364():
    return ModularSymbolSpace(364)


@pytest.mark.parametrize("sign", [1, -1])
def test_three_target_line_at_364(sp364, sign):
    # the newform of level 364 congruent to 52.2.a.a mod 5: each further
    # target restricts the kernel of the ones before it, and the
    # dimensions it reports on the way are those of the whole system
    targets = [(3, 0), (5, -3), (11, -2)]
    phi = eigen_functional(sp364, [(ell, F(a)) for ell, a in targets], sign)
    for ell, a in targets + [(7, 1), (13, -1)]:
        assert _hecke_defects(phi, ell, a) == [], (sign, ell)
    # read off one Hecke row each: a_l = a_l(52.2.a.a) mod 5 for l != 7
    read = {7: 1, 13: -1, 17: -4, 19: -1, 23: -7, 29: 7, 31: -5, 97: -13}
    assert {ell: phi.eigenvalue(ell) for ell in read} == read, sign
    if sign > 0:
        for k, dim in ((1, 8), (2, 4)):
            with pytest.raises(EigenspaceError) as err:
                eigen_functional(sp364, [(ell, F(a)) for ell, a in targets[:k]], sign)
            assert err.value.dim == dim, k


class _Form364:
    """A duck-typed rational form of level 364: the newform congruent to
    52.2.a.a mod 5, with the a_l that `test_three_target_line_at_364`
    reads off its line at the primes l <= 31 prime to the level."""

    level, weight, n_max, label = 364, 2, 31, "364-congruent-to-52.2.a.a"
    is_rational = True
    nebentypus = DirichletCharacter.trivial(1)
    AP = {3: 0, 5: -3, 11: -2, 17: -4, 19: -1, 23: -7, 29: 7, 31: -5}

    def a(self, n):
        return F(self.AP[n])


def test_prefixes_at_364_restrict_once_each(monkeypatch):
    # `symbol_pair`'s prime-by-prime loop at level 364: T_3, T_5 and T_11
    # are each built once and restrict both signs' kernels once, the plus
    # sign keeping dimensions 8 and 4 after the first two primes; the
    # loop stops at the line the three targets cut out
    built, restricted = [], []
    hecke_images, restrict = ModularSymbolSpace.hecke_images, examples.restrict_kernel

    def counted_images(space, n):
        built.append((n, hecke_images(space, n)))
        return built[-1][1]

    def counted_restrict(kern, images, a):
        out = restrict(kern, images, a)
        restricted.append((images, kern.sign, len(out.free)))
        return out

    monkeypatch.setattr(ModularSymbolSpace, "hecke_images", counted_images)
    monkeypatch.setattr(examples, "restrict_kernel", counted_restrict)
    form = _Form364()
    pair = symbol_pair(form)
    assert [n for n, _ in built] == [3, 5, 11]
    assert [(id(images), sign) for images, sign, _ in restricted] == [
        (id(images), sign) for _, images in built for sign in (1, -1)]
    assert [dim for _, sign, dim in restricted if sign > 0] == [8, 4, 1]
    monkeypatch.undo()
    targets = [(ell, form.a(ell)) for ell in (3, 5, 11)]
    sp = ModularSymbolSpace(364)
    for phi, sign in ((pair.plus, 1), (pair.minus, -1)):
        assert phi.sign == sign
        assert phi.generator_values() == eigen_functional(sp, targets, sign).generator_values()
    assert (pair.level, pair.label) == (364, form.label)


def _level_one_cusp_form(k, terms):
    """a_0..a_(terms-1) of the normalized cusp form spanning S_k(SL2(Z))
    for k in 12, 16, 18, 20, 22, 26: Delta E4^a E6^b with
    4a + 6b = k - 12, Delta = q prod (1 - q^n)^24, E4 = 1 + 240 sum
    sigma_3(n) q^n and E6 = 1 - 504 sum sigma_5(n) q^n."""
    def times(f, g):
        return [sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(terms)]

    def eisenstein(c, r):
        return [1] + [c * sum(d ** r for d in range(1, n + 1) if n % d == 0)
                      for n in range(1, terms)]

    form = [0, 1] + [0] * (terms - 2)
    for n in range(1, terms):
        for _ in range(24):
            form = times(form, [1] + [0] * (n - 1) + [-1] + [0] * terms)
    a, b = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0), 22: (1, 1), 26: (2, 1)}[k]
    for factor in [eisenstein(240, 3)] * a + [eisenstein(-504, 5)] * b:
        form = times(form, factor)
    return form


def _unit_multiple_mod(u, v, p):
    """Whether u = c v mod p for a unit c mod p (v not 0 mod p)."""
    j = next(j for j, x in enumerate(v) if x % p)
    c = u[j] * pow(v[j], -1, p) % p
    return c != 0 and all((x - c * y) % p == 0 for x, y in zip(u, v))


def test_level_one_symbols_and_their_eisenstein_congruences():
    # weight-k Manin symbols at level one, where S_k is one line: the plus
    # sign holds the cusp form and the Eisenstein class, the minus sign
    # the cusp form alone; T_2 and T_3, at the a_2 and a_3 of the form
    # expanded here, each cut out its line on each sign (tau(2) = -24,
    # tau(3) = 252 at k = 12); the Eisenstein line has a_l = 1 + l^(k-1)
    plus_lines = {}
    for k in (12, 16, 18, 20, 22, 26):
        f = _level_one_cusp_form(k, 4)
        assert f[:2] == [0, 1], k
        for sign, dim in ((1, 2), (-1, 1)):
            assert len(reference.level_one_eigenspace(k, sign)) == dim, (k, sign)
            lines = [reference.level_one_eigenspace(k, sign, [(ell, f[ell])]) for ell in (2, 3)]
            assert [len(line) for line in lines] == [1, 1], (k, sign)
            cusp = {tuple(reference.primitive(line[0])) for line in lines}
            assert len(cusp) == 1, (k, sign)
            if sign > 0:
                plus_lines[k] = [list(cusp.pop())]
        eis = [reference.level_one_eigenspace(k, sign, [(ell, 1 + ell ** (k - 1))])
               for sign, ell in ((1, 2), (1, 3), (-1, 2))]
        assert [len(line) for line in eis] == [1, 1, 0], k
        assert reference.primitive(eis[0][0]) == reference.primitive(eis[1][0]), k
        plus_lines[k].append(reference.primitive(eis[0][0]))
    assert _level_one_cusp_form(12, 4)[2:] == [-24, 252]
    # the primitive plus line of the weight-l form is a unit times the
    # Eisenstein line mod p exactly for the primes p > l that divide the
    # numerator of B_l / 2l: six congruences and two controls
    for l, p, congruent in ((12, 691, True), (16, 3617, True), (20, 283, True),
                            (20, 617, True), (22, 131, True), (22, 593, True),
                            (26, 131, False), (18, 691, False)):
        assert ((bernoulli_number(l) / (2 * l)).numerator % p == 0) == congruent, (l, p)
        cusp, eisenstein = plus_lines[l]
        assert _unit_multiple_mod(cusp, eisenstein, p) == congruent, (l, p)


def test_eisenstein_ideal_index_at_prime_levels():
    # Mazur, Publ. Math. IHES 47 (1977), ch. II: at a prime level N the
    # Eisenstein ideal I, spanned by the T_l - 1 - l (l != N) and U_N - 1,
    # has T/I = Z/n with n = num((N - 1)/12), and the integral cuspidal
    # symbols C have [C : IC] = n^2, n on each of the plus and minus
    # quotients.  I' is spanned by the T_l - 1 - l for the l < 20 alone, so
    # I' lies in I and [C : I'C] >= n^2: equality is asserted at every prime
    # 11 <= N < 200, with C the saturated boundary kernel in Z^dim (den = 1)
    for N in range(11, 200):
        if is_prime(N):
            ells = [l for l in range(2, 20) if is_prime(l) and l != N]
            n = Fraction(N - 1, 12).numerator
            got = reference.eisenstein_indices(ModularSymbolSpace(N), ells)
            assert got == (n * n, n, n), (N, got)


def test_cuspidal_subspace_matches_dense_oracle():
    for N in range(2, 120):
        sp = ModularSymbolSpace(N)
        assert sp.cuspidal_dimension() == 2 * genus_gamma0(N), N
        if N in (11, 37, 52, 97):
            for images in (sp.hecke_images(2), sp.hecke_images(3),
                           sp.star_images()):
                got = sp.restrict_to_cuspidal(images)
                want = reference.restrict_to_cuspidal(sp, [dense(w, sp.dim) for w in images])
                assert got == want, N
                assert all(type(x) is Fraction for row in got for x in row)


@pytest.mark.parametrize("N", [11, 37, 52])
def test_restriction_refuses_operator_leaving_cuspidal_subspace(N):
    # every basis symbol to one with a nonzero boundary: no cuspidal
    # vector with nonzero coordinate sum stays cuspidal
    sp = ModularSymbolSpace(N)
    _, boundary = sp.boundary_data()
    j0 = min(c for row in boundary for c in row)
    images = [{j0: 1} for _ in range(sp.dim)]
    for restrict in (sp.restrict_to_cuspidal,
                     lambda im: reference.restrict_to_cuspidal(
                         sp, [dense(w, sp.dim) for w in im])):
        with pytest.raises(ValueError, match="does not preserve the cuspidal"):
            restrict(images)


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
    values = [point_values(pair.plus), point_values(pair.minus)]
    for r in _random_rationals(seed=pair.level):
        for phi in values:
            for ell, a in a_ell.items():
                rhs = sum(phi((r + b) / ell) for b in range(ell))
                if pair.level % ell:
                    rhs += phi(ell * r)
                assert a * phi(r) == rhs, (r, ell)


def test_twisted_raw_value_matches_fraction_sum(sp11):
    # a pair and twists of its own: the rows they fill, at denominators up
    # to about 10^4, die with the test instead of with the session.  The
    # quad(-3) twist's minus scale, 25, does not divide its raw values at
    # thirds, so those values come out as proper fractions; the others
    # are ints.
    pair = SymbolPair(*(eigen_functional(sp11, [(2, F(-2))], sign)
                        for sign in (1, -1)), 11, label="11a")
    proper = ints = 0
    for disc, den, points in (
            (-23, 11, _random_rationals(seed=23) + [F(b, 23) for b in range(23)]),
            (-3, 5, [F(b, d) for d in (3, 6, 9) for b in range(d)])):
        tw = TwistedSymbol(pair, DirichletCharacter.quadratic_by_discriminant(disc),
                           den, label=f"11a-tw{disc}")
        chibar = tw.chi.conjugate()
        for r in points:
            for sign in (1, -1):
                expected = sum(chibar(a).rational_value()
                               * tw.pair.evaluate(r + F(a, tw.C), sign * tw.eps)
                               for a in range(1, tw.C) if gcd(a, tw.C) == 1)
                # read off the row at r's denominator; the oracle is unscaled
                got = tw.evaluate(r, sign)
                scale = tw.scales[sign]
                # an int where the scale divides the int raw value
                divides = (expected / scale).denominator == 1
                assert type(got) is (int if divides else Fraction), (r, sign)
                assert got * scale == expected, (r, sign)
                proper += got.denominator > 1
                ints += type(got) is int
    assert proper and ints


@pytest.fixture(scope="module")
def field_pair23(sp23):
    """The 23.2.a pair over Q(sqrt 5): generator values are field elements."""
    K = NumberField((-5, 0, 1))
    a2 = (K.one() * F(-1, 2)) + (K.gen() * F(-1, 2))
    return SymbolPair(*(eigen_functional(sp23, [(2, a2)], sign)
                        for sign in (1, -1)), 23, label="23a")


@pytest.fixture(scope="module")
def teich_twisted11(pair11):
    """pair11 twisted by the quartic teich5: conj(chi) values in Q(i)."""
    return TwistedSymbol(pair11, DirichletCharacter.teichmuller(5), 11,
                         label="11a-teich5")


def _genus0_pair(N):
    """At N = 2 and 3 the quotient is a line of star sign +1, spanned by
    the functional with x_(0:1) = 1, x_(1:0) = -1; the minus side is 0.
    At these levels the walk passes through oo = (0:1) often."""
    space = ModularSymbolSpace(N)
    return SymbolPair(eigen_functional(space, [], +1),
                      SymbolFunctional(space, -1, [0] * len(space.p1)), N)


@pytest.fixture(scope="module")
def pair2():
    return _genus0_pair(2)


@pytest.fixture(scope="module")
def pair3():
    return _genus0_pair(3)


@pytest.mark.parametrize("name", ["pair2", "pair3", "pair11", "pair19", "pair52",
                                  "field_pair23", "twisted11", "teich_twisted11"])
def test_evaluate_row_matches_evaluate(name, request):
    sym = request.getfixturevalue(name)
    if isinstance(sym, SymbolPair):
        # the row walk reads x_(u:-v) as s x_(u:v), s the star sign
        for phi in (sym.plus, sym.minus):
            flat, N = flat_values(phi), phi.space.N
            for i, x in enumerate(flat):
                u, v = divmod(i, N)
                if x is not None:
                    assert flat[u * N + -v % N] == phi.sign * x, (phi.sign, u, v)
    for p, n in ((5, 0), (5, 1), (11, 0), (11, 1)):
        # padic_l reads the row at p^n as a slice of the row at p^(n+1)
        for sign in (1, -1):
            assert sym.evaluate_row(p**(n + 1), sign)[::p] == sym.evaluate_row(p**n, sign)
    for den in (1, 5, 25, 121, 242, 2783):
        for sign in (1, -1):
            row = sym.evaluate_row(den, sign)
            assert len(row) == den
            want = tuple(sym.evaluate(F(a, den), sign) for a in range(den))
            assert row == want, (den, sign)
            if isinstance(sym, SymbolPair):
                # raw path sums, mirrored by the star involution
                phi = sym.plus if sign > 0 else sym.minus
                flat, N = flat_values(phi), phi.space.N
                want = tuple(path_sum(flat, N, a, den) for a in range(den))
                assert row == want, (den, sign)
                assert all(row[(den - a) % den] == sign * row[a]
                           for a in range(den)), (den, sign)
            assert [type(x) for x in row] == [type(x) for x in want]
            assert sym.evaluate_row(den, sign) is row


def _fresh(name, request, den):
    """A symbol of the fixture kind `name` that keeps no row yet: the
    pair's functionals (which keep no rows) in a new pair, twisted anew
    with the scales fixed at den."""
    if name in ("pair52", "field_pair23"):
        pair = request.getfixturevalue(name)
        return SymbolPair(pair.plus, pair.minus, pair.level)
    pair11 = request.getfixturevalue("pair11")
    chi = (DirichletCharacter.quadratic_by_discriminant(-23) if name == "quad-23"
           else DirichletCharacter.teichmuller(7))
    return TwistedSymbol(SymbolPair(pair11.plus, pair11.minus, 11), chi, den)


@pytest.mark.parametrize("name", ["pair52", "field_pair23", "quad-23", "teich7"])
def test_rows_do_not_depend_on_the_order_asked(name, request, monkeypatch):
    # rows at den asked before and after a row at a multiple k den, which
    # then serves them as a slice: the same rows, of the same types, and
    # in the second order the multiple is the one walk
    walks = []
    walk = modsym._walk

    def counted(space, vp, vm, den, numerators):
        walks.append(den)
        return walk(space, vp, vm, den, numerators)

    monkeypatch.setattr(modsym, "_walk", counted)
    for den, k in ((5, 5), (5, 11), (11, 3)):
        rows = []
        for order in ((den, k * den), (k * den, den)):
            sym = _fresh(name, request, den)
            walks.clear()
            rows.append({d: tuple(sym.evaluate_row(d, s) for s in (1, -1)) for d in order})
        big = k * den * getattr(sym, "C", 1)
        assert walks == [big], (den, k)
        assert rows[0] == rows[1], (den, k)
        for d in (den, k * den):
            for first, second in zip(*(r[d] for r in rows)):
                assert [type(x) for x in first] == [type(x) for x in second]
        if isinstance(sym, SymbolPair):
            for phi, sign in ((sym.plus, 1), (sym.minus, -1)):
                flat, N = flat_values(phi), phi.space.N
                for d in (den, k * den):
                    want = tuple(path_sum(flat, N, a, d) for a in range(d))
                    assert rows[0][d][sign < 0] == want, (den, k, d, sign)


def _seeded_pair(N, seed):
    """Both signs of a random functional that satisfies the relations at
    level N: x = vectors . c for random c, then y_i = x_i +- x_(star i)."""
    space = ModularSymbolSpace(N)
    rng = random.Random(seed)
    c = [rng.randint(-9, 9) for _ in range(space.dim)]
    x = [sum(a * b for a, b in zip(dense(v, space.dim), c)) for v in space.vectors]
    star = [space.p1.index(-u, v) for u, v in space.p1.pairs]
    return SymbolPair(*(SymbolFunctional(space, s, [xi + s * x[j] for xi, j in zip(x, star)])
                        for s in (1, -1)), N)


@pytest.mark.parametrize("N", list(range(1, 81)) + [121, 125, 128, 210, 243])
def test_one_walk_at_every_level(N):
    # prime, prime-power and composite levels walk the same successor
    # table, and their rows are the single-point path sums
    pair = _seeded_pair(N, seed=N)
    dens = (1, 2, 7, 25, 64, 97, 360, 1001)
    rows = {(den, s): pair.evaluate_row(den, s) for den in dens for s in (1, -1)}
    nxt, state = pair.plus.space.p1.successors()
    if is_prime(N):
        # (1 : t) at t, oo at 2N: inverses mod N, then the N zeros after oo
        inv = [2 * N] + [pow(s, -1, N) for s in range(1, N)]
        assert nxt == inv + inv + [0] * N
    assert sorted(state) == list(range(N)) + [k * N for k in range(2, len(state) - N + 2)]
    for phi in (pair.plus, pair.minus):
        flat = flat_values(phi)
        for den in dens:
            want = tuple(path_sum(flat, N, a, den) for a in range(den))
            assert rows[den, phi.sign] == want, (den, phi.sign)


def test_twisted_tables(twisted11):
    tw = twisted11
    tp, tm = ([row[b] - row[0] for b in range(1, 11)]
              for row in (tw.evaluate_row(11, s) for s in (1, -1)))
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
        for phi in map(point_values, (pair11.plus, pair11.minus)):
            lhs = sum(chi5(a).rational_value() * chi5(b).rational_value()
                      * phi(r + F(a + b, 5))
                      for a in range(1, 5) for b in range(1, 5))
            rhs = 5 * phi(r) - phi(5 * r) + phi(25 * r)
            assert lhs == rhs, r


def test_symbol_pair_and_its_twists_are_built_anew():
    # nothing is kept between calls: each call builds a new space and a
    # new pair on equal functionals, and each twist_symbol call a new
    # twist, with the rows and scales of the first
    nf = bundled("11.2.a.a")
    pair = symbol_pair(nf)
    again = symbol_pair(nf)
    assert again is not pair and again.plus.space is not pair.plus.space
    assert again.minus.space is again.plus.space
    for s in ("plus", "minus"):
        assert getattr(again, s).generator_values() == getattr(pair, s).generator_values()
    assert (again.level, again.label) == (pair.level, pair.label) == (11, nf.label)
    quad23 = DirichletCharacter.quadratic_by_discriminant(-23)
    tw = twist_symbol(pair, quad23, 11, "a")
    assert type(tw) is TwistedSymbol and tw.label == "a"
    # quad(-23) induced mod 46 twists by its primitive part
    other = twist_symbol(again, quad23.extend_to(46), 11, "a")
    assert other is not tw and other.C == tw.C == 23
    assert other.scales == tw.scales
    for s in (1, -1):
        assert other.evaluate_row(121, s) == tw.evaluate_row(121, s)
        assert again.evaluate_row(121 * 23, s) == pair.evaluate_row(121 * 23, s)
    assert twist_symbol(pair, DirichletCharacter.trivial(3), 11, "a") is pair
    # the constructors build fresh symbols, with no rows yet
    assert SymbolPair(pair.plus, pair.minus, 11, nf.label)._rows == {}
    assert TwistedSymbol(pair, quad23, 11, "a")._rows == {}


def test_kept_pairs_go_with_their_space():
    # a pair's rows are kept no longer than the pair, and its space no
    # longer than its functionals: one the caller drops is freed with its
    # space, and symbol_pair builds a new pair with rows of its own
    nf = bundled("11.2.a.a")
    pair = symbol_pair(nf)
    row = pair.evaluate_row(25, 1)
    gone = [weakref.ref(pair), weakref.ref(pair.plus.space)]
    del pair
    gc.collect()
    assert [ref() for ref in gone] == [None, None]
    again = symbol_pair(nf)
    assert again._rows == {}
    assert again.evaluate_row(25, 1) == row


KEPT_RUNS = ([["verify-example", str(k)] for k in (1, 2, 3)]
             + [[cmd, "--newform", f, "--prime", "5"] for cmd in ("padic-l", "modsym-table")
                for f in ("11.2.a.a", "19.2.a.a", "52.2.a.a")]
             + [[cmd, "--newform", "11.2.a.a", "--prime", "5", "--char", "quad-23"]
                for cmd in ("padic-l", "modsym-table")])


def test_commands_leave_kept_spaces_as_built(tmp_path):
    # every command reads the rows of the spaces and symbols it builds and
    # mutates none: after two rounds in one process each space a kept
    # bundled run holds equals a fresh one, each kept bundled run is one
    # built anew, and the second round prints what the first did
    kept_example.cache_clear()
    out = tmp_path / "out.jsonl"
    rounds = []
    for _ in range(2):
        got = []
        for argv in KEPT_RUNS:
            code = main(argv + ["--out", str(out)])
            got.append((code, out.read_bytes()))
        rounds.append(got)
    assert rounds[0] == rounds[1]
    # run 1 holds the twist of a pair, runs 2 and 3 a pair
    syms = [build_example(number)["sym"] for number in (1, 2, 3)]
    spaces = [syms[0].pair.plus.space] + [sym.plus.space for sym in syms[1:]]
    assert [space.N for space in spaces] == [11, 52, 19]
    for kept in spaces:
        N, fresh = kept.N, ModularSymbolSpace(kept.N)
        assert (kept.basis_cols, kept.den, kept.vectors) == (fresh.basis_cols, fresh.den,
                                                             fresh.vectors), N
        assert kept.p1._successors is not None, N
        assert kept.p1._successors == fresh.p1.successors(), N
    # the three verify-example runs, each kept once
    assert kept_example.cache_info().currsize == 3
    for number in (1, 2, 3):
        assert example_state(build_example(number)) == example_state(
            kept_example.__wrapped__(number, 1, 8)), number
    assert kept_example.cache_info().currsize == 3
