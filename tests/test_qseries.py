import random
from fractions import Fraction as F
from math import gcd

import pytest

from iwrank.characters import DirichletCharacter, all_characters
from iwrank.cyclotomic import CyclotomicNumber, zeta
from iwrank.numfield import NumberField
from iwrank.qseries import (
    CongruenceIdealSpec,
    QExpansion,
    bernoulli_number,
    check_congruence,
    eisenstein_series,
    generalized_bernoulli,
    l_value_nonpositive,
    mazur_eisenstein,
    sigma0_and_m,
    sturm_bound,
)

import reference


def test_bernoulli_and_l_values():
    assert bernoulli_number(2) == F(1, 6)
    assert bernoulli_number(12) == F(-691, 2730)
    triv1 = DirichletCharacter.trivial(1)
    assert l_value_nonpositive(-1, triv1) == F(-1, 12)
    assert l_value_nonpositive(-11, triv1) == F(691, 32760)
    chi4 = DirichletCharacter.quadratic_by_discriminant(-4)
    assert generalized_bernoulli(1, chi4) == -F(1, 2)
    assert l_value_nonpositive(0, chi4) == F(1, 2)


@pytest.mark.parametrize("modulus", range(1, 31))
def test_generalized_bernoulli_matches_fraction_sum(modulus):
    for chi in all_characters(modulus):
        for l in (1, 2, 3):
            assert generalized_bernoulli(l, chi) == \
                reference.generalized_bernoulli(l, chi), (chi, l)


@pytest.mark.parametrize("t", [11, 23])
def test_generalized_bernoulli_mazur_trivial_characters(t):
    # the imprimitive trivial character mod t that the Mazur series uses
    chi = DirichletCharacter.trivial(t)
    assert generalized_bernoulli(2, chi) == reference.generalized_bernoulli(2, chi)


def test_e4_classical():
    triv1 = DirichletCharacter.trivial(1)
    e4 = eisenstein_series(triv1, triv1, 4, 12)
    assert e4.a(0) == F(1, 240)
    assert e4.a(1) == 1 and e4.a(6) == 252 and e4.a(12) == 2044
    assert e4.a(12) == e4.a(3) * e4.a(4)


def test_eisenstein_hecke_eigenform():
    # a(l) a(n) = a(ln) + theta(l) phi(l) l^(k-1) a(n/l) for prime l
    triv1 = DirichletCharacter.trivial(1)
    chi4 = DirichletCharacter.quadratic_by_discriminant(-4)
    for theta, phi, k in [(triv1, triv1, 4), (triv1, chi4, 3),
                          (chi4, triv1, 3)]:
        f = eisenstein_series(theta, phi, k, 60)
        for ell in (2, 3, 5):
            for n in range(1, 12):
                lhs = f.a(ell) * f.a(n)
                rhs = f.a(ell * n)
                if n % ell == 0:
                    tp = theta(ell) * phi(ell)
                    rhs = rhs + tp.rational_value() * ell ** (k - 1) \
                        * f.a(n // ell) if not tp.is_zero() else rhs
                assert lhs == rhs, (theta.modulus, phi.modulus, k, ell, n)


def test_mazur_combination():
    for t in (11, 23):
        m = mazur_eisenstein(t, 30)
        assert m.a(0) == F(t - 1, 24)
        assert m.a(t) == 1
        assert [m.a(n) for n in (1, 2, 3)] == [1, 3, 4]
        assert m.level == t and m.weight == 2
    assert mazur_eisenstein(11, 30).a(22) == 3  # sigma(22) - 11 sigma(2)


def test_sturm_bounds():
    assert sturm_bound(2, 23) == 4
    assert sturm_bound(2, 11) == 2
    assert sturm_bound(2, 52) == 14
    assert sturm_bound(2, 19) == 4
    # the integer ceiling agrees with k N prod_(r | N) (1 + 1/r) / 12 in Fractions
    for N in range(1, 301):
        idx = F(N)
        for r in range(2, N + 1):
            if N % r == 0 and all(r % d for d in range(2, r)):
                idx *= 1 + F(1, r)
        for k in (1, 2, 4, 12):
            b = k * idx / 12
            assert sturm_bound(k, N) == -(-b.numerator // b.denominator), (k, N)


def test_sigma0_and_m():
    assert sigma0_and_m(23, 1) == ((23,), 23)
    assert sigma0_and_m(12, 4) == ((2, 3), 6)
    assert sigma0_and_m(11, 1) == ((11,), 11)


def test_twist_and_deplete():
    triv1 = DirichletCharacter.trivial(1)
    e4 = eisenstein_series(triv1, triv1, 4, 40)
    chi = DirichletCharacter.quadratic_by_discriminant(-4)
    tw = e4.twist(chi)
    for n in range(1, 41):
        want = e4.a(n) * chi(n).rational_value() if not chi(n).is_zero() \
            else e4.a(n) * 0
        assert tw.a(n) == want
    dep = e4.deplete(6)
    assert dep.a(0) == 0
    for n in range(1, 41):
        assert dep.a(n) == (e4.a(n) if gcd(n, 6) == 1 else 0)


def test_congruence_ideal_and_checker():
    nf = NumberField((-5, 0, 1))
    spec = CongruenceIdealSpec(11, (-5, 0, 1), 4)
    val = nf.element([F(-1, 2), F(-1, 2)])  # (-1 - sqrt5)/2
    assert spec.reduce(val) == 3
    assert spec.reduce(F(1, 2)) == 6
    assert spec.reduce(7) == 7
    # a cyclotomic coefficient reduces only when it is rational
    assert spec.reduce(CyclotomicNumber.from_rational(F(1, 2), 3)) == 6
    with pytest.raises(ValueError):
        spec.reduce(zeta(3))
    # a spec is a value: equal specs hash alike, and its fields stay as built
    assert {spec: 1}[CongruenceIdealSpec(11, (-5, 0, 1), 4)] == 1
    with pytest.raises(AttributeError):
        spec.seed = 9

    triv1 = DirichletCharacter.trivial(1)
    m11 = mazur_eisenstein(11, 40)
    shift = QExpansion(2, 11, triv1,
                       [m11.a(n) + (11 if n == 7 else 0) for n in range(41)],
                       "shifted")
    rep = check_congruence(m11, shift, spec, 12, coprime_to=1)
    assert rep.ok and rep.checked >= 12
    bad = QExpansion(2, 11, triv1,
                     [m11.a(n) + (1 if n == 7 else 0) for n in range(41)],
                     "bad")
    rep2 = check_congruence(m11, bad, spec, 12, coprime_to=1)
    assert not rep2.ok and [m[0] for m in rep2.mismatches] == [7]
    rep3 = check_congruence(m11, bad, spec, 12, coprime_to=7)
    assert rep3.ok and rep3.skipped == 1


def test_eisenstein_multiplicative_random():
    rng = random.Random(60601)
    pool = []
    for m in (1, 3, 4, 5, 7):
        pool.extend(c for c in all_characters(m) if c.is_primitive())
    for _ in range(20):
        theta = rng.choice(pool)
        phi = rng.choice(pool)
        for k in (2, 3, 4, 5):
            if theta.parity() * phi.parity() != (-1) ** k:
                continue
            if k == 2 and theta.modulus == 1 and phi.modulus == 1:
                continue  # E2 alone is not modular
            f = eisenstein_series(theta, phi, k, 60)
            m, n = rng.randrange(2, 8), rng.randrange(2, 8)
            if gcd(m, n) == 1:
                assert f.a(m * n) == f.a(m) * f.a(n)
            break
