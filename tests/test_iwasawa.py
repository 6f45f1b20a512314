import json
import random
from fractions import Fraction
from math import comb

import pytest

from iwrank.cli import main
from iwrank.cyclotomic import zeta
from iwrank.iwasawa import (
    PadicSeries,
    UndeterminedInvariants,
    ideal_mod_pi,
    mu_lambda,
)
from iwrank.padic_l import BranchSeries, apply_sigma0
from iwrank.padics import PadicPrecisionError, padic_valuation
from reference import gamma_to_t, group_ring_mul, reduce_gamma, t_series, t_to_gamma


def _series(coeffs, M=8, D=11):
    """A series mod (11^M, T^D)."""
    return PadicSeries(11, M, D, coeffs)


def _lift(c):
    """The rational p^shift * ints[0] of a one-term series."""
    return Fraction(c.ints[0], c.p ** -c.shift)


def test_ring_arithmetic_and_certificate():
    # (p + T)(1 + T) = p + (1+p)T + T^2
    h = _series([11, 1]) * _series([1, 1])
    assert h == _series([11, 12, 1])
    assert [_lift(h.coefficient(i)) for i in range(3)] == [11, 12, 1]
    assert mu_lambda(h) == (0, 1)


@pytest.mark.parametrize("coeffs,mu,lam", [
    ([11], 1, 0),
    ([0, 1, 5], 0, 1),
    ([3], 0, 0),
    ([Fraction(1, 11), 3], -1, 0),
])
def test_invariants_simple(coeffs, mu, lam):
    assert mu_lambda(_series(coeffs)) == (mu, lam)


def test_negative_mu_precision(capsys):
    # the iwasawa command's default modulus at p = 11 is (11^8, T^11),
    # that of _series; dividing by p^mu with mu = -1 leaves 9 digits
    assert main(["iwasawa", "--prime", "11", "--coeffs=1/11,3"]) == 0
    assert json.loads(capsys.readouterr().out)["precision"] == "9"


def test_undetermined_raises():
    with pytest.raises(UndeterminedInvariants):
        mu_lambda(_series([]))
    with pytest.raises(UndeterminedInvariants):
        mu_lambda(_series([11**8, 11**9]))


def test_ideal_classes():
    assert ideal_mod_pi(_series([3])) == "(1)"
    assert ideal_mod_pi(_series([11, 12, 0, 1])) == "(T)"
    assert ideal_mod_pi(_series([11, 22, 1])) == "(T^2)"
    assert ideal_mod_pi(_series([11 * 5])) == "(0)"
    assert ideal_mod_pi(_series([])) == "(0)"


def test_invariant_additivity_random():
    rng = random.Random(20260823)
    for trial in range(40):
        parts = []
        for _ in range(2):
            mu = rng.randrange(0, 2)
            lam = rng.randrange(0, 4)
            cs = [11 * rng.randrange(1, 120) for _ in range(lam)]
            cs.append(rng.choice([1, 2, 3, 5, 7, 13, 24]))
            cs += [rng.randrange(0, 120) for _ in range(rng.randrange(0, 4))]
            parts.append((mu, lam, _series([11**mu * c for c in cs])))
        (m1, l1, s1), (m2, l2, s2) = parts
        assert mu_lambda(s1 * s2) == (m1 + m2, l1 + l2), trial


def test_unit_scale_invariance():
    rng = random.Random(17)
    base = _series([11 * 7, 4, 9])
    for _ in range(20):
        unit = _series([rng.choice([1, 2, 3, 5]), rng.randrange(0, 120),
                           rng.randrange(0, 120)])
        assert mu_lambda(base * unit) == (0, 1)


def test_mismatched_layouts_refuse():
    h = _series([1, 2])
    with pytest.raises(ValueError):
        h * _series([1], M=6)
    with pytest.raises(ValueError):
        h.check_product(PadicSeries(5, 8, 5, [1]))


def _euler11(poly, ell, j):
    """The Euler factor in the group ring of order 11 at p = 11, u = 12,
    as a T-series: the unit element times the factor."""
    unit = BranchSeries(11, 8, [1] + [0] * 10, 0, j, "unit")
    return t_series(apply_sigma0(unit, [(ell, poly)]))


def test_euler_substitution_values():
    assert _euler11([1], 23, 0) == _series([1])
    e23 = _euler11([1, -1], 23, 0)
    c0 = e23.coefficient(0)
    assert c0 == PadicSeries(11, 8, 1, [Fraction(22, 23)])
    assert mu_lambda(c0)[0] == 1  # 23 = 1 mod 11: 1 - 23^(-1) dies exactly once
    assert mu_lambda(e23) == (0, 1)
    # T = 0 value is P(ell^(-j-1))
    P, ell, j = [1, -3, 5], 7, 2
    v = _euler11(P, ell, j).coefficient(0)
    x = Fraction(1, ell ** (j + 1))
    expect = Fraction(1) - 3 * x + 5 * x * x
    assert v == PadicSeries(11, 8, 1, [expect])
    unit = BranchSeries(11, 8, [1] + [0] * 10, 0, 0, "unit")
    with pytest.raises(ValueError, match="avoid p"):
        apply_sigma0(unit, [(22, (1, -1))])


def test_euler_series_against_cyclotomic_evaluation():
    # at T = zeta - 1 (gamma = zeta, a character of the group of order
    # 11) the factor must be 1 - 23^(-1) zeta^c, where 12^c = <23> = 23
    # mod 121 (23 = 1 mod 11, so omega(23) = 1)
    e23 = _euler11([1, -1], 23, 0)
    c = next(c for c in range(11) if pow(12, c, 121) == 23)
    mod = 11**8
    acc = [0] * 10
    pw = zeta(11, 0)
    zm1 = zeta(11) - 1
    for i in range(11):
        ci = e23.coefficient(i)
        if not ci.is_zero():
            lift = int(_lift(ci))
            for t, coeff in enumerate(pw.coeffs):
                assert coeff.denominator == 1
                acc[t] = (acc[t] + lift * int(coeff)) % mod
        pw = pw * zm1
    rhs = [0] * 10
    inv23 = pow(23, -1, mod)
    rhs[0] = 1
    for t, coeff in enumerate(zeta(11, c).coeffs):
        rhs[t] = (rhs[t] - inv23 * int(coeff)) % mod
    assert acc == rhs


def test_reduce_gamma_respects_evaluation():
    rng = random.Random(88)
    s = _series([rng.randrange(0, 11**8) for _ in range(90)], D=90)
    r = reduce_gamma(s, 11)
    assert r.D == 11
    zm1 = zeta(11) - 1
    accs, accr = [0] * 10, [0] * 10
    pw = zeta(11, 0)
    m6 = 11**6
    for i in range(90):
        cs_ = s.coefficient(i)
        if not cs_.is_zero():
            for t, coeff in enumerate(pw.coeffs):
                accs[t] = (accs[t] + int(_lift(cs_)) * int(coeff)) % m6
        if i < 11:
            cr_ = r.coefficient(i)
            if not cr_.is_zero():
                for t, coeff in enumerate(pw.coeffs):
                    accr[t] = (accr[t] + int(_lift(cr_)) * int(coeff)) % m6
        pw = pw * zm1
    assert accs == accr


# -- integer series against a Fraction schoolbook reference ------------


def _vp(x, p):
    """Valuation of a rational, None for 0."""
    return None if x == 0 else padic_valuation(x, p)


def _agree(series, ref):
    """series equals the rationals ref coefficientwise mod p^M."""
    p, M = series.p, series.M
    for i, x in enumerate(ref):
        d = _lift(series.coefficient(i)) - x
        if d != 0 and padic_valuation(d, p) < M:
            return False
    return True


def _reference_mu_lambda(ref, p, M):
    vals = [_vp(x, p) for x in ref]
    live = [(v, i) for i, v in enumerate(vals) if v is not None and v < M]
    if not live:
        return None
    mu = min(v for v, _ in live)
    return mu, next(i for v, i in live if v == mu)


def _schoolbook(a, b, length):
    out = [Fraction(0)] * length
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < length:
                out[i + j] += x * y
    return out


def _mod_gamma(f, order):
    """Remainder of f modulo (1+T)^order - 1 by long division."""
    f = list(f)
    mod = [Fraction(comb(order, t)) for t in range(order + 1)]
    mod[0] -= 1
    for top in range(len(f) - 1, order - 1, -1):
        c = f[top]
        for t in range(order + 1):
            f[top - order + t] -= c * mod[t]
    return f[:order] + [Fraction(0)] * (order - len(f))


def _random_coeffs(rng, p, M, D):
    kind = rng.choice(["zero", "integral", "integral", "negative", "deep"])
    if kind == "zero":
        return [Fraction(0)] * D
    out = []
    for _ in range(D):
        if rng.random() < 0.3:
            out.append(Fraction(0))
            continue
        num = rng.randrange(-p ** (M + 2), p ** (M + 2))
        den = rng.choice([1, 1, 2, 3, 7])
        if kind == "negative" and rng.random() < 0.5:
            den *= p ** rng.randrange(1, 3)
        if kind == "deep":
            num *= p ** rng.randrange(1, M + 1)
        out.append(Fraction(num, den))
    return out


@pytest.mark.parametrize("p,D", [(5, 1), (5, 5), (11, 11), (5, 25), (7, 6)])
def test_integer_series_against_fraction_reference(p, D):
    rng = random.Random(1000 * p + D)
    for trial in range(30):
        M = rng.randrange(1, 10)
        ra, rb = (_random_coeffs(rng, p, M, D) for _ in range(2))
        a, b = (PadicSeries(p, M, D, r) for r in (ra, rb))
        assert _agree(a, ra) and _agree(b, rb), trial
        negative = any(_vp(x, p) is not None and _vp(x, p) < 0
                       for x in ra + rb)
        if negative:
            with pytest.raises(PadicPrecisionError):
                a * b
            with pytest.raises(PadicPrecisionError):
                group_ring_mul(a, b)
        else:
            assert _agree(a * b, _schoolbook(ra, rb, D)), trial
            wide = _schoolbook(ra, rb, 2 * D - 1)
            assert _agree(group_ring_mul(a, b), _mod_gamma(wide, D)), trial

        want = _reference_mu_lambda(ra, p, M)
        if want is None:
            assert a.is_zero() and ideal_mod_pi(a) == "(0)"
            with pytest.raises(UndeterminedInvariants):
                mu_lambda(a)
            continue
        assert mu_lambda(a) == want, trial
        mu, lam = want
        assert ideal_mod_pi(a) == ("(0)" if mu > 0 else "(1)" if lam == 0
                                   else "(T)" if lam == 1 else f"(T^{lam})")


def test_gamma_basis_round_trip():
    rng = random.Random(3)
    for n in (1, 2, 7, 30):
        v = [rng.randrange(-50, 50) for _ in range(n)]
        assert t_to_gamma(gamma_to_t(v)) == v
        # sum_c v_c (1+T)^c, expanded by the binomial theorem
        assert gamma_to_t(v) == [sum(x * comb(c, k) for c, x in enumerate(v))
                                 for k in range(n)]
