import random
from fractions import Fraction
from math import gcd

import pytest

from iwrank.characters import (
    DirichletCharacter,
    ResidualCharacter,
    all_characters,
    kronecker,
    lift_residual_character,
    parse_descriptor,
    reduce_character,
    unit_group_generators,
)
from iwrank.cyclotomic import euler_phi, zeta

F = Fraction


def test_unit_group_generators():
    for m in (3, 8, 15, 23, 40, 55):
        gens = unit_group_generators(m)
        # orders multiply to phi(m)
        total = 1
        for g in gens:
            total *= g.order
        phi = sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)
        assert total == phi, m


def test_trivial_and_parity():
    triv = DirichletCharacter.trivial(12)
    assert triv.is_trivial() and triv.parity() == 1
    assert triv.conductor() == 1
    chi = DirichletCharacter.quadratic_by_discriminant(-23)
    assert chi.parity() == -1 and chi.conductor() == 23
    chi5 = DirichletCharacter.quadratic_by_discriminant(5)
    assert chi5.parity() == 1 and chi5.conductor() == 5


def test_quadratic_matches_kronecker():
    for disc in (-23, -4, 5, -3, 8, 12):
        chi = DirichletCharacter.quadratic_by_discriminant(disc)
        for a in range(1, 40):
            want = kronecker(disc, a)
            got = chi(a)
            if want == 0:
                assert got.is_zero()
            else:
                assert got.rational_value() == want, (disc, a)


def test_teichmuller_character():
    for p in (5, 7, 11):
        w = DirichletCharacter.teichmuller(p)
        assert w.order == p - 1
        assert w.conductor() == p
        assert w.parity() == -1  # omega is odd for odd p
        sq = w ** 2
        assert sq.parity() == 1
        assert (w * w.conjugate()).is_trivial()


def test_value_exponent_and_call():
    w = DirichletCharacter.teichmuller(7)
    for a in range(1, 7):
        e = w.value_exponent(a)
        assert w(a) == zeta(6, e)
    assert w.value_exponent(7) is None
    assert w(14).is_zero()


def test_exponent_table_matches_value_exponent():
    # every character of modulus <= 130, the moduli 8, 16, 32 and 64 of
    # the (-1, 5) generator pair among them
    count = 0
    for modulus in range(1, 131):
        for chi in all_characters(modulus):
            want = [chi.value_exponent(a) for a in range(modulus)]
            assert chi.exponent_table() == want, chi
            count += 1
        # over a larger root of unity, the exponents scale
        assert chi.exponent_table(3 * chi.order) == [
            None if k is None else 3 * k for k in want]
    assert count == sum(euler_phi(m) for m in range(1, 131))


def test_multiplication_and_powers():
    w = DirichletCharacter.teichmuller(5)
    chi = DirichletCharacter.quadratic_by_discriminant(-23)
    prod = w * chi
    assert prod.modulus == 5 * 23
    assert prod.parity() == w.parity() * chi.parity()
    for a in (2, 3, 7, 9):
        assert prod(a) == w(a) * chi(a)
    assert (w ** 4).is_trivial()
    assert (w ** -1)(2) == w(2).conjugate()


def test_primitive_part():
    chi = DirichletCharacter.quadratic_by_discriminant(5).extend_to(15)
    assert chi.modulus == 15 and not chi.is_primitive()
    prim = chi.primitive_part()
    assert prim.modulus == 5 and prim.is_primitive()
    for a in range(1, 15):
        if gcd(a, 15) == 1:
            assert chi(a) == prim(a)


def test_descriptor_round_trip():
    samples = [
        DirichletCharacter.trivial(8),
        DirichletCharacter.quadratic_by_discriminant(-23),
        DirichletCharacter.teichmuller(11, 3),
        DirichletCharacter.teichmuller(5) *
        DirichletCharacter.quadratic_by_discriminant(-4),
    ]
    for chi in samples:
        back = parse_descriptor(chi.to_descriptor())
        assert back.modulus == chi.modulus
        for a in range(1, chi.modulus + 1):
            assert back.value_exponent(a) == chi.value_exponent(a), chi
    assert parse_descriptor("triv9").is_trivial()
    assert parse_descriptor("quad-23").conductor() == 23
    assert parse_descriptor("teich7^2").order == 3
    with pytest.raises((ValueError, KeyError)):
        parse_descriptor("nonsense!!")


def test_gauss_sum_quadratic():
    # G(chi)^2 = chi(-1) * cond for quadratic characters
    for disc in (-3, -4, 5, -23):
        chi = DirichletCharacter.quadratic_by_discriminant(disc)
        g = chi.gauss_sum()
        sq = g * g
        assert sq.is_rational()
        assert sq.rational_value() == chi.parity() * chi.conductor(), disc


def test_gauss_sum_conjugate_identity():
    rng = random.Random(1311)
    mods = [5, 7, 9, 11, 13]
    for m in mods:
        chis = [c for c in all_characters(m) if c.is_primitive()]
        for chi in rng.sample(chis, min(3, len(chis))):
            g = chi.gauss_sum()
            gbar = chi.conjugate().gauss_sum()
            prod = g * gbar
            assert prod.is_rational()
            assert prod.rational_value() == chi.parity() * m, (m, chi.exponents)


def test_decompose_p_part():
    w = DirichletCharacter.teichmuller(5)
    chi = w * DirichletCharacter.quadratic_by_discriminant(-23)
    at_p, away = chi.decompose_p_part(5)
    assert at_p.conductor() in (1, 5) and away.modulus % 5 != 0
    for a in (2, 3, 7, 9, 13):
        assert chi(a) == at_p(a) * away(a)


def test_residual_characters():
    rc = ResidualCharacter.teichmuller(11)
    for a in range(1, 11):
        assert rc.value(a) == a % 11
    assert rc.value(22) == 0
    triv = ResidualCharacter.trivial(1, 11)
    assert triv.is_trivial_values()
    with pytest.raises(ValueError):
        ResidualCharacter(5, 5, [0])


def test_lift_reduce_round_trip():
    for p in (5, 11):
        rc = ResidualCharacter.teichmuller(p)
        chi = lift_residual_character(rc, p)
        assert chi.modulus == p and chi.order == p - 1
        back = reduce_character(chi, p)
        for a in range(1, p):
            assert back.value(a) == rc.value(a)


def test_kronecker_values():
    assert kronecker(-23, 11) == -1
    assert kronecker(5, 11) == 1
    assert kronecker(-1, 3) == -1
    assert kronecker(12, 3) == 0
    # multiplicative in the top argument
    rng = random.Random(4)
    for _ in range(30):
        a, b = rng.randrange(-30, 30), rng.randrange(-30, 30)
        n = rng.choice([3, 5, 7, 11, 15, 21])
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
