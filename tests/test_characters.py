import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest

from iwrank.characters import (
    MAX_MODULUS,
    DirichletCharacter,
    all_characters,
    kronecker,
    parse_descriptor,
    unit_group_generators,
)
from iwrank.arith import euler_phi
from iwrank.cyclotomic import CyclotomicNumber, zeta
from reference import EagerCyclotomic

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


def test_exponent_table_against_an_oracle():
    # every character of modulus <= 130, the moduli 8, 16, 32, 64 and 128
    # of the (-1, 5) generator pair among them, checked as a homomorphism
    # (Z/N)^x -> Z/order by integer arithmetic alone
    rng = random.Random(28)
    count = 0
    for modulus in range(1, 131):
        units = [a for a in range(modulus) if gcd(a, modulus) == 1]
        gens = [ug.gen for ug in unit_group_generators(modulus)]
        divisors = [c for c in range(1, modulus + 1) if modulus % c == 0]
        for chi in all_characters(modulus):
            table, n = chi.exponent_table(), chi.order
            assert [k is None for k in table] == [
                gcd(a, modulus) != 1 for a in range(modulus)], chi
            for b in gens + rng.sample(units, min(3, len(units))):
                for a in units:
                    assert table[a * b % modulus] == (table[a] + table[b]) % n, chi
            assert [table[g] for g in gens] == list(chi.exponents), chi
            assert chi.conductor() == next(
                c for c in divisors
                if all(table[a] == 0 for a in units if a % c == 1 % c)), chi
            k = table[modulus - 1]
            assert 2 * k % n == 0 and chi.parity() == (1 if k == 0 else -1), chi
            assert [chi.value_exponent(a) for a in range(modulus)] == table
            # over a larger root of unity, the exponents scale
            assert chi.exponent_table(3 * n) == [
                None if k is None else 3 * k for k in table]
            count += 1
    assert count == sum(euler_phi(m) for m in range(1, 131))


def test_table_walk_memory():
    # the table of quad(-100003) is one list of 100,003 slots (0.8 MB);
    # listing every unit on the way took 27 MB
    chi = DirichletCharacter.quadratic_by_discriminant(-100003)
    tracemalloc.start()
    try:
        table = chi.exponent_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak
    assert table[:4] == [None, 0, 1, 1] and table.count(None) == 1
    assert chi.parity() == -1


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
    # the README's example of the generator form
    assert parse_descriptor("mod=9;gens=2:1;ord=6").order == 6
    with pytest.raises((ValueError, KeyError)):
        parse_descriptor("nonsense!!")


def test_descriptor_modulus_bound():
    # the bound is checked on the parsed integer, before any factoring:
    # these would be trial divisions of 19 digits, or tables of 10^8 slots
    assert parse_descriptor(f"triv{MAX_MODULUS}").modulus == MAX_MODULUS
    for text in (f"triv{MAX_MODULUS + 1}", "triv100000007", f"quad-{MAX_MODULUS + 3}",
                 "teich1000000000000000003", "teich1000000000000000003^2",
                 "mod=1000000000000000003;gens=;ord=1"):
        with pytest.raises(ValueError, match=f"above the bound {MAX_MODULUS}"):
            parse_descriptor(text)


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


def test_gauss_sum_matches_the_fraction_path():
    # gauss_sum counts its exponents a (n'/c) + k (n'/n) straight into the
    # group ring of Q(zeta_n'), n' = lcm(c, n), over denominator 1; the
    # Fraction coefficients of from_monomials clear denominators the long
    # way, and EagerCyclotomic reduces modulo Phi_n' with no fold at all.
    # Odd n' folds by x^n' = 1, even n' by x^(n'/2) = -1: both occur
    parities = set()
    for m in range(3, 61):
        for chi in all_characters(m):
            chi0 = chi.primitive_part()
            c, n = chi0.modulus, chi0.order
            g = chi.gauss_sum()
            if c == 1:
                assert g == 1
                continue
            big = lcm(c, n)
            items = [(a * (big // c) + chi0.value_exponent(a) * (big // n), F(1))
                     for a in range(c) if gcd(a, c) == 1]
            ref = CyclotomicNumber.from_monomials(big, items)
            assert (g.order, g.vec, g.vden) == (big, ref.vec, 1), (m, chi.exponents)
            assert all(type(v) is int for v in g.vec)
            eager = EagerCyclotomic.from_monomials(big, items)
            assert (g.nums, g.den) == (eager.nums, eager.den), (m, chi.exponents)
            parities.add(big % 2)
    assert parities == {0, 1}
    # int coefficients, and Fractions over 1, give one element over 1
    rng = random.Random(42)
    for n in (1, 2, 3, 4, 6, 9, 10, 15, 28):
        items = [(rng.randrange(-3 * n, 3 * n), rng.randrange(-9, 10)) for _ in range(8)]
        ints = CyclotomicNumber.from_monomials(n, items)
        fracs = CyclotomicNumber.from_monomials(n, [(e, F(v, 1)) for e, v in items])
        for x in (ints, fracs):
            assert x.vden == 1 and all(type(v) is int for v in x.vec), n
        assert ints.vec == fracs.vec and ints == fracs
        assert ints == sum((zeta(n, e) * v for e, v in items), zeta(n, 0) * 0)


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
