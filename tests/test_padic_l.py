import ast
import cmath
import gc
import random
import weakref
from fractions import Fraction
from math import comb, exp, isclose, pi, sqrt
from pathlib import Path
from types import MappingProxyType

import pytest

import iwrank.padic_l as padic_l_module
from iwrank.arith import is_prime
from iwrank.characters import DirichletCharacter, kronecker
from iwrank.cyclotomic import zeta
from iwrank.examples import EXAMPLES, build_example, omega_twist_sum, symbol_pair
from iwrank.iwasawa import (
    PadicSeries,
    UndeterminedInvariants,
    ideal_mod_pi,
    mu_lambda,
)
from iwrank.modsym import SymbolPair
from iwrank.newforms import bundled
from iwrank.padics import (
    PadicPrecisionError,
    padic_valuation,
    teichmuller_lift,
)
from iwrank.padic_l import (
    BranchSeries,
    OrdinarityError,
    PRODUCT_NOTE,
    apply_sigma0,
    branch_family,
    branch_report,
    branch_series,
    branch_value_trivial,
    choose_alpha,
    format_report,
    product_congruence_verdict,
    _wild_coordinates,
    symbol_measure,
)
from iwrank.qseries import bernoulli_number
from reference import (
    b1_balls,
    family_state,
    gamma_to_t,
    group_ring_mul,
    padic_log,
    reduce_gamma,
    t_series,
    t_to_gamma,
)

F = Fraction


@pytest.fixture(scope="module")
def a19():
    return choose_alpha(3, 5, 19)


@pytest.fixture(scope="module")
def a52():
    return choose_alpha(2, 5, 52)


def _val(x):
    """Valuation of a nonzero one-term series."""
    return mu_lambda(x)[0]


def _agree(x, y, k):
    """Two one-term series of valuation >= 0 agree mod p^k."""
    assert x.shift == y.shift == 0
    return (x.ints[0] - y.ints[0]) % x.p**k == 0


def _scaled(c, x):
    """The one-term series c * x mod p^(x.M), for c a p-integral rational."""
    return PadicSeries(x.p, x.M, 1, [c * x.ints[0]])


def _branch(sym, p, alpha, j, n=1, M=8):
    """Branch j of `sym` at wild level n mod p^M, with the root alpha: the
    balls of sign (-1)^j of its symbol measure, projected onto branch j."""
    balls = symbol_measure(sym, None, p, n, M, alpha)[1]
    return branch_series(balls[(-1) ** (j % 2)], p, j, M, sym.label)


def test_unit_roots(a19, a52):
    # the unit root of X^2 - a_p X + p when p does not divide the level
    a = choose_alpha(-2, 11, 1)
    x = a.ints[0]
    assert _val(a) == 0 and x % 11 == 9 and a.M == 14
    assert (x * x + 2 * x + 11) % 11**14 == 0
    for alpha, ap in ((a52, 2), (a19, 3)):
        x = alpha.ints[0]
        assert x % 5 == ap and (x * x - ap * x + 5) % 5**14 == 0
    # the companion root is p/alpha, never a unit
    assert padic_valuation(3 - a19.ints[0], 5) == 1


@pytest.mark.parametrize("ap,p", [(5, 5), (0, 7), (14, 7)])
def test_non_ordinary_rejected(ap, p):
    with pytest.raises(OrdinarityError, match="no unit root"):
        choose_alpha(ap, p, 1)


def test_choose_alpha():
    assert choose_alpha(2, 5, 52).ints[0] % 5 == 2
    st = choose_alpha(-1, 11, 11 * 23 * 23)
    assert st.ints[0] % 11 == 10 and _val(st) == 0
    with pytest.raises(OrdinarityError):
        choose_alpha(11, 11, 121)  # U_p eigenvalue must be a unit


def _gamma_rep(c, p=5, M=8, order=5):
    return PadicSeries(p, M, order, [comb(c, t) for t in range(c + 1)])


@pytest.mark.parametrize("x,y", [(2, 3), (4, 4), (1, 3), (0, 2)])
def test_group_ring_mul(x, y):
    assert group_ring_mul(_gamma_rep(x), _gamma_rep(y)) == \
        _gamma_rep((x + y) % 5)


def test_twisted_sums_19a(pair19):
    assert pair19.evaluate(F(0), 1) == -2
    assert list(omega_twist_sum(pair19, 5, 2).coeffs) == [F(-18), F(0)]
    for jj in (1, 3):
        assert list(omega_twist_sum(pair19, 5, jj).coeffs) == [F(2), F(0)]


@pytest.mark.parametrize("name,p", [("pair19", 5), ("twisted11", 11)])
def test_omega_twist_sum_matches_definition(name, p, request):
    # sum over b of zeta^(-j e(b)) x^sgn(b/p), omega(b) = zeta^e(b), one
    # point at a time
    sym = request.getfixturevalue(name)
    omega = DirichletCharacter.teichmuller(p)
    for j in range(p):
        sgn = 1 if j % 2 == 0 else -1
        want = sum((zeta(p - 1, -j * omega.value_exponent(b))
                    * sym.evaluate(F(b, p), sgn) for b in range(1, p)),
                   zeta(p - 1, 0) * 0)
        assert omega_twist_sum(sym, p, j) == want, j


def test_branch_values_19a(pair19, a19):
    vals = {j: branch_value_trivial(pair19, 5, a19, j) for j in range(1, 5)}
    for j in range(1, 5):
        assert _val(vals[j]) == 0, j
    # j = 2 is exactly (1/2 alpha)(-18)
    assert (2 * a19.ints[0] * vals[2].ints[0] + 18) % 5**10 == 0
    # trivial branch: (1 - 1/alpha)^2 x^+(0)
    m = 5**10
    e = 1 - pow(a19.ints[0], -1, m)
    assert (vals[4].ints[0] + 2 * e * e) % m == 0


def test_branch_series_19a(pair19, a19):
    vals = {j: branch_value_trivial(pair19, 5, a19, j) for j in range(1, 5)}
    bss = {j: _branch(pair19, 5, a19, j, n=1) for j in range(1, 5)}
    for j in range(1, 5):
        assert mu_lambda(t_series(bss[j])) == (0, 0), j
        # series(0)/value is 2 on a nontrivial branch, 1 on the trivial one
        got = t_series(bss[j]).coefficient(0)
        assert _agree(got, _scaled(2 if j < 4 else 1, vals[j]), 6), j
    # wild level 2 projects down exactly
    deeper = _branch(pair19, 5, a19, 2, n=2)
    assert reduce_gamma(t_series(deeper), 5) == t_series(bss[2])


def test_unit_root_boundedness(pair19, a19):
    def min_val(series):
        coeffs = map(series.coefficient, range(series.D))
        return min(_val(c) for c in coeffs if not c.is_zero())

    beta = PadicSeries(5, 14, 1, [3 - a19.ints[0]])
    assert _val(beta) == 1
    mv_a1 = min_val(t_series(_branch(pair19, 5, a19, 2, n=1)))
    mv_a2 = min_val(t_series(_branch(pair19, 5, a19, 2, n=2)))
    mv_b1 = min_val(t_series(_branch(pair19, 5, beta, 2, n=1)))
    mv_b2 = min_val(t_series(_branch(pair19, 5, beta, 2, n=2)))
    assert mv_a2 >= mv_a1 >= 0
    assert mv_b2 < mv_b1 < 0  # the measure is unbounded at the wrong root


def test_parity_cancellation(pair19):
    swapped = SymbolPair(pair19.minus, pair19.plus, 19, label="19a-swapped")
    assert omega_twist_sum(swapped, 5, 2).is_zero()
    assert not omega_twist_sum(pair19, 5, 2).is_zero()


def test_branch_values_52a(pair52, a52):
    assert pair52.evaluate(F(0), 1) == -1
    assert omega_twist_sum(pair52, 5, 2).is_zero()
    vals = {j: branch_value_trivial(pair52, 5, a52, j) for j in range(1, 5)}
    assert vals[2].is_zero()
    for j in (1, 3, 4):
        assert _val(vals[j]) == 0, j


def test_branch_series_52a(pair52, a52):
    vals = {j: branch_value_trivial(pair52, 5, a52, j) for j in range(1, 5)}
    bss = {j: _branch(pair52, 5, a52, j, n=1) for j in range(1, 5)}
    # vanishing branch: exact gamma-basis masses are a unit multiple of
    # (-4,-8,8,4,0); their finite differences leave T^0..T^2 divisible by
    # 5 and the T^3 coefficient a unit, so (mu, lambda) = (0, 3)
    assert mu_lambda(t_series(bss[2])) == (0, 3)
    assert t_series(bss[2]).coefficient(0).is_zero()
    for j in (1, 3, 4):
        assert mu_lambda(t_series(bss[j])) == (0, 0), j
        assert _agree(t_series(bss[j]).coefficient(0),
                      _scaled(2 if j < 4 else 1, vals[j]), 6), j
    deeper = _branch(pair52, 5, a52, 2, n=2)
    assert reduce_gamma(t_series(deeper), 5) == t_series(bss[2])


def _tail_period(an, z):
    """2 pi i times the integral of f from z to i oo: -sum a_n/n q^n."""
    q = cmath.exp(2j * cmath.pi * z)
    total, qn = 0j, 1
    for n in range(1, len(an)):
        qn *= q
        total -= an[n] / n * qn
    return total


def _cusp_period(an, N, eps, r):
    """2 pi i times the integral of f from r to i oo, for a cusp r = a/c
    with c prime to N.  W = [[N a, B], [N c, N D]] (det N) maps oo to r
    and acts on f as the Fricke sign eps, so the path r -> W z0 -> i oo
    gives eps * (0 - tail(z0)) + tail(W z0); z0 is chosen so that z0 and
    W z0 both have imaginary part 1/(c sqrt N)."""
    a, c = r.numerator, r.denominator
    D = next(d for d in range(c) if (N * a * d - 1) % c == 0)
    B = (N * a * D - 1) // c
    z0 = complex(-D / c, 1 / (c * sqrt(N)))
    w = (N * a * z0 + B) / (N * c * z0 + N * D)
    return _tail_period(an, w) - eps * _tail_period(an, z0)


def test_period_integrals_52a(pair52):
    """Independent check of the level-52 omega^2-branch: lambda = 3.

    (a) The symbols are the periods of f: float integrals of the bundled
    q-expansion (point counts, no modular symbols) at every a/25, b/5 and
    0 equal pair52 up to one real scale per sign.  (b) The MTT masses of
    branch 2 at wild level 1, grouped by wild coordinate straight from the
    symbol values: x^+(b/5) = 0 drops the alpha^-3 term, alpha^-2 is a
    unit, and the rest is sum (a/5) x^+(a/25); its T-expansion has its
    first coefficient prime to 5 at T^3.  Floats appear only here.
    """
    nf = bundled("52.2.a.a")
    N = nf.level
    an = [0.0] + [float(nf.a(n)) for n in range(1, nf.n_max + 1)]

    def f(z):
        return sum(c * cmath.exp(2j * cmath.pi * n * z)
                   for n, c in enumerate(an))

    # Fricke sign from f(-1/(N z)) = eps N z^2 f(z) at a generic point
    z = complex(0.03, 0.17)
    eps = f(-1 / (N * z)) / (N * z * z * f(z))
    assert abs(abs(eps.real) - 1) < 1e-9 and abs(eps.imag) < 1e-9
    eps = round(eps.real)

    cusps = ([F(a, 25) for a in range(1, 25) if a % 5]
             + [F(b, 5) for b in range(1, 5)] + [F(0)])
    periods = {r: _cusp_period(an, N, eps, r) for r in cusps}
    for sign, part in ((1, lambda v: v.real), (-1, lambda v: v.imag)):
        sym = {r: pair52.evaluate(r, sign) for r in cusps}
        pivot = max(cusps, key=lambda r: abs(sym[r]))
        scale = part(periods[pivot]) / float(sym[pivot])
        for r in cusps:
            assert isclose(part(periods[r]), scale * float(sym[r]),
                           rel_tol=1e-9, abs_tol=1e-9 * abs(scale)), \
                (sign, r, periods[r], sym[r])

    p, q = 5, 25
    assert all(pair52.evaluate(F(b, p), 1) == 0 for b in range(1, p))
    masses = [F(0)] * p
    for a in range(1, q):
        if a % p:
            # <a> = a / omega(a) = u^c = 1 + 5c mod 25, u = 6;
            # omega(a) = a^5 and omega^-2(a) = (a/5) = a^2 mod 5
            c = (a * pow(pow(a, p, q), -1, q) % q - 1) // p
            legendre = 1 if pow(a, 2, p) == 1 else -1
            masses[c] += legendre * pair52.evaluate(F(a, q), 1)
    k = masses[0] / -4
    assert k.numerator % p and k.denominator % p
    assert masses == [k * m for m in (-4, -8, 8, 4, 0)]
    coeffs = [sum(masses[c] * comb(c, t) for c in range(p))
              for t in range(p)]
    assert next(t for t, x in enumerate(coeffs) if x.numerator % p) == 3


# Cremona's models [a1, a2, a3, a4, a6] of the isogeny classes 11a and
# 19a, with each curve's L(E, 1)/Omega^+ (BSD: Tamagawa number over the
# torsion squared) and Omega^+ x^+(0)/L(E, 1) for the content-1 symbol
ISOGENY_CLASSES = {
    "11.2.a.a": {"11a1": ([0, -1, 1, -10, -20], F(1, 5), -10),
                 "11a2": ([0, -1, 1, -7820, -263580], F(1), -2),
                 "11a3": ([0, -1, 1, 0, 0], F(1, 25), -50)},
    "19.2.a.a": {"19a1": ([0, 1, 1, -9, -15], F(1, 3), -6),
                 "19a2": ([0, 1, 1, -769, -8470], F(1), -2),
                 "19a3": ([0, 1, 1, 1, 0], F(1, 9), -18)},
}


def _trace_of_frobenius(model, ell):
    """ell + 1 - #E(F_ell), the points of the reduced Weierstrass model
    counted one by one, its singular point included."""
    a1, a2, a3, a4, a6 = model
    affine = sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % ell == 0
                 for x in range(ell) for y in range(ell))
    return ell - affine


def _real_period(model):
    """Omega^+ = the integral of |dx / (2y + a1 x + a3)| over E(R), by the
    AGM (Cohen, GTM 138, Algorithm 7.4.7): pi / AGM(sqrt(e1 - e3),
    sqrt(e1 - e2)) per component when 4x^3 + b2 x^2 + 2 b4 x + b6 has three
    real roots e1 > e2 > e3, else 2 pi / AGM(2 sqrt(b), sqrt(2b + a)) with
    a = 3 e1 + b2/4 and b = sqrt(3 e1^2 + b2 e1/2 + b4/2) at its real root."""
    a1, a2, a3, a4, a6 = model
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    roots = [complex(0.4, 0.9) ** k for k in range(3)]
    for _ in range(200):  # Durand-Kerner on the monic cubic
        roots = [r - (r**3 + b2 / 4 * r * r + b4 / 2 * r + b6 / 4)
                 / ((r - roots[k - 1]) * (r - roots[k - 2]))
                 for k, r in enumerate(roots)]
    real = sorted((r.real for r in roots if abs(r.imag) < 1e-9), reverse=True)

    def agm(x, y):
        while abs(x - y) > 1e-15 * abs(x):
            x, y = (x + y) / 2, sqrt(x * y)
        return x

    if len(real) == 3:
        e1, e2, e3 = real
        return 2 * pi / agm(sqrt(e1 - e3), sqrt(e1 - e2))
    (e1,) = real
    b = sqrt(3 * e1 * e1 + b2 * e1 / 2 + b4 / 2)
    return 2 * pi / agm(2 * sqrt(b), sqrt(2 * b + 3 * e1 + b2 / 4))


@pytest.mark.parametrize("label,p", [("11.2.a.a", 5), ("19.2.a.a", 3)])
def test_isogeny_class_periods(label, p):
    """The content-1 symbol against the periods of each curve of the
    isogeny class, in floats, and the mu = 2 that those periods explain.

    Each Cremona model's traces of Frobenius for ell < 50 are the bundled
    a_ell, so the class is the bundled form's whatever the labels.
    L(f, 1) = 2 sum a_n/n exp(-2 pi n / sqrt N) (root number +1), and
    L/Omega^+ and Omega^+ x^+(0)/L are the small rationals of the table.
    The even branches read (mu, lambda) = (2, 0) at wild levels 1 and 2,
    and the masses over p^2 read (0, 0): p-integral, of unit total."""
    nf = bundled(label)
    pair = symbol_pair(nf)
    x0 = pair.evaluate(F(0), 1)
    L = 2 * sum(float(nf.a(n)) / n * exp(-2 * pi * n / sqrt(nf.level))
                for n in range(1, 200))
    for name, (model, ratio, scaled) in ISOGENY_CLASSES[label].items():
        for ell in range(2, 50):
            if is_prime(ell):
                assert _trace_of_frobenius(model, ell) == nf.a(ell), (name, ell)
        omega = _real_period(model)
        assert isclose(L / omega, ratio, rel_tol=1e-9), (name, L / omega)
        assert isclose(omega * x0 / L, scaled, rel_tol=1e-9), (name, omega * x0 / L)
    for n in (1, 2):
        raw = branch_family(pair, nf.a(p), p, n, 8)[1]
        for j in range(2, p, 2):
            bs = raw[j]
            assert bs.invariants == mu_lambda(t_series(bs)) == (2, 0), (n, j)
            over = [F(x) * F(p) ** (bs.shift - 2) for x in bs.masses]
            assert all(x.denominator % p for x in over), (n, j)
            assert sum(over).numerator % p, (n, j)


def _verdicts(bss, span):
    out = {}
    for j in range(1, span + 1):
        out[j] = product_congruence_verdict(bss[j], bss[j % span + 1])
    return out


def test_sigma0_and_verdicts_p5(pair19, pair52, a19, a52):
    bs52 = {j: _branch(pair52, 5, a52, j, n=1) for j in range(1, 5)}
    bs19 = {j: _branch(pair19, 5, a19, j, n=1) for j in range(1, 5)}
    sig52 = [(11, (1, 2, 11))]
    sig19 = [(11, (1, -3, 11))]
    d52 = {j: apply_sigma0(bs52[j], sig52) for j in bs52}
    d19 = {j: apply_sigma0(bs19[j], sig19) for j in bs19}
    assert d52[1].sigma0_factors == ((11, (1, 2, 11)),)
    with pytest.raises(ValueError):
        apply_sigma0(d52[1], sig52)  # duplicate factor
    with pytest.raises(ValueError):
        apply_sigma0(bs52[1], [(5, (1, 1))])  # ell = p refused
    # the factor is a unit at T = 0 (1+2+11 = 14), so invariants survive
    assert mu_lambda(t_series(d52[2])) == (0, 3)

    v52 = _verdicts(d52, 4)
    assert v52 == {1: "(T^3)", 2: "(T^3)", 3: "(1)", 4: "(1)"}
    v19 = _verdicts(d19, 4)
    for j in range(1, 5):
        assert v19[j] == "(1)", j


@pytest.fixture(scope="module")
def alpha_tw():
    return choose_alpha(kronecker(-23, 11) * 1, 11, 11 * 23 * 23)


def test_twisted_branch_values(twisted11, alpha_tw):
    tw = twisted11
    assert tw.level % 11 == 0
    # U_p consistency: class sum reproduces alpha * x(0)
    total = sum(tw.evaluate(F(b, 11), 1) for b in range(11))
    assert total == -tw.evaluate(F(0), 1) == -2

    assert omega_twist_sum(tw, 11, 5).is_zero()
    vals = {j: branch_value_trivial(tw, 11, alpha_tw, j)
            for j in range(1, 11)}
    assert vals[5].is_zero()
    for j in range(1, 11):
        if j != 5:
            assert _val(vals[j]) == 0, j
    # trivial branch is (1 - 1/alpha)^2 x^+(0) = 4 * 2
    assert _agree(vals[10], PadicSeries(11, 14, 1, [8]), 10)
    assert _agree(branch_value_trivial(tw, 11, alpha_tw, 0), vals[10], 10)
    # the two central branches carry literally the same cyclotomic sum
    assert omega_twist_sum(tw, 11, 4) == omega_twist_sum(tw, 11, 6)
    assert _agree(vals[4], vals[6], 12)
    assert sum(_val(vals[j]) for j in range(1, 11) if j != 5) == 0


def test_twisted_branch_series_and_verdicts(twisted11, alpha_tw):
    vals = {j: branch_value_trivial(twisted11, 11, alpha_tw, j)
            for j in range(1, 11)}
    bss = {j: _branch(twisted11, 11, alpha_tw, j, n=1)
           for j in range(1, 11)}
    assert mu_lambda(t_series(bss[5])) == (0, 1)
    # one-root trivial branch: series(0)/value = 1/(1 - 1/alpha) = 1/2
    assert (1 - pow(alpha_tw.ints[0], -1, 11**12)) % 11**12 == 2
    for j in range(1, 11):
        if j == 5:
            continue
        assert mu_lambda(t_series(bss[j])) == (0, 0), j
        assert _agree(t_series(bss[j]).coefficient(0),
                      _scaled(2 if j < 10 else F(1, 2), vals[j]), 6), j

    dressed = {j: apply_sigma0(bss[j], [(23, (1,))]) for j in bss}
    for j in bss:
        assert t_series(dressed[j]) == t_series(bss[j])  # constant factor 1
        assert dressed[j].sigma0_factors == ((23, (1,)),)
    verdicts = _verdicts(dressed, 10)
    for j in range(1, 11):
        assert verdicts[j] == ("(T)" if j in (4, 5) else "(1)"), j


def test_mu_positive_product_gives_zero_class():
    dead = BranchSeries(5, 8, t_to_gamma([5, 10, 25, 0, 5]), 0, 1, "dead")
    assert product_congruence_verdict(dead, dead) == "(0)"


def test_reports(pair52, a52):
    bs = apply_sigma0(_branch(pair52, 5, a52, 2, n=1),
                      [(11, (1, 2, 11))])
    partner = apply_sigma0(_branch(pair52, 5, a52, 3, n=1),
                           [(11, (1, 2, 11))])
    val = branch_value_trivial(pair52, 5, a52, 2)
    verdict = product_congruence_verdict(bs, partner)
    rec = branch_report(bs, a52, value=val, exact_zero=True, verdict=verdict)
    line = format_report(rec)
    assert line == format_report(branch_report(bs, a52, value=val,
                                               exact_zero=True,
                                               verdict=verdict))
    assert '"note"' in line and PRODUCT_NOTE in line
    assert rec["mu"] == 0 and rec["lambda"] == 3
    assert rec["verdict"] == "(T^3)"
    assert rec["value_at_trivial"]["exact_zero"] is True
    assert rec["sigma0_factors"] == [[11, ["1", "2", "11"]]]


def test_exceptional_zero_ratio_is_undefined(pair11):
    # 11.2.a.a at p = 11: a_11 = +1 makes alpha = 1 and 1 - 1/alpha = 0,
    # so the trivial branch has no series-to-value ratio: the value
    # (1 - 1/alpha)^2 x(0) vanishes to p^(2W + v(x(0))) and the series'
    # constant term (1 - 1/alpha) x(0) vanishes mod p^M
    alpha = choose_alpha(1, 11, 11)
    assert alpha.ints == (1,)
    x0 = pair11.evaluate(F(0), 1)
    value = branch_value_trivial(pair11, 11, alpha, 10)
    assert value.is_zero() and value.M == 28 + padic_valuation(x0, 11)
    bs = _branch(pair11, 11, alpha, 10)
    assert t_series(bs).coefficient(0).is_zero()
    assert not t_series(bs).is_zero()


def _branch_families(n):
    """(symbol, p, alpha, raw branch series) at wild level n mod p^8, for
    11.2.a.a, 19.2.a.a and 52.2.a.a at every odd p <= 19 where they are
    ordinary, then for the three bundled examples."""
    for label in ("11.2.a.a", "19.2.a.a", "52.2.a.a"):
        nf = bundled(label)
        sym = symbol_pair(nf)
        for p in (3, 5, 7, 11, 13, 17, 19):
            if nf.a(p) % p:
                yield (sym, p) + branch_family(sym, nf.a(p), p, n, 8)[:2]
    for number in EXAMPLES:
        ex = build_example(number, wild_level=n, M=8)
        yield ex["sym"], ex["p"], ex["alpha"], ex["raw"]


def test_branch_values_are_mass_sums():
    # the value at the trivial wild character is the total mass of the
    # branch, up to the 1/2 of the nontrivial branches, at every wild level
    def agree(x, y, p):
        return x == y or padic_valuation(x - y, p) >= 8

    for n in (1, 2):
        for sym, p, alpha, raw in _branch_families(n):
            for j, bs in raw.items():
                value = branch_value_trivial(sym, p, alpha, j)
                assert value.M >= 8
                got = F(value.ints[0]) * F(p) ** value.shift
                total = F(sum(bs.masses)) * F(p) ** bs.shift
                if bs.j:
                    want = total / 2
                elif sym.level % p:
                    want = total
                else:
                    # not a tolerance: at p | N the closed form
                    # (1 - 1/alpha)^2 x(0) carries one Euler factor more
                    # than the masses (1 - 1/alpha) x(0), a recorded
                    # finding that the printed values still pin
                    want = (1 - F(1, alpha.ints[0])) * total
                assert agree(got, want, p), (sym.label, p, n, j)


@pytest.mark.parametrize("case", ["11a@5", "11a@7", "19a@3", "52a@5",
                                  "11a-tw23@11"])
def test_distribution_relation(case, pair11, pair19, pair52, twisted11):
    # the masses at wild level 2, summed over c mod p, are the level-1
    # masses mod p^8: the T_p (p not dividing N) or U_p (p | N) relation
    # of the symbol, read through alpha, for every branch
    sym, p, ap = {
        "11a@5": (pair11, 5, 1),
        "11a@7": (pair11, 7, -2),
        "19a@3": (pair19, 3, -2),
        "52a@5": (pair52, 5, 2),
        "11a-tw23@11": (twisted11, 11, kronecker(-23, 11)),
    }[case]
    low, high = (branch_family(sym, ap, p, n, 8)[1] for n in (1, 2))
    for j, bs in high.items():
        for c, y in enumerate(low[j].masses):
            diff = (F(sum(bs.masses[c::p])) * F(p) ** bs.shift
                    - F(y) * F(p) ** low[j].shift)
            assert diff == 0 or padic_valuation(diff, p) >= 8, (case, j, c)


def test_padic_l_reads_rows_in_integers():
    # branch values and series are integer sums over symbol rows: the
    # module builds no cyclotomic number or character, reads no single
    # symbol point, and lifts to Teichmuller only in its one cached table
    tree = ast.parse(Path(padic_l_module.__file__).read_text())
    imported = [getattr(node, "module", None) or alias.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert not [m for m in imported
                if m.split(".")[-1] in ("cyclotomic", "characters")]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not [node.lineno for node in calls
                if isinstance(node.func, ast.Attribute)
                and node.func.attr == "evaluate"]
    lifting = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name)
               and node.func.id == "teichmuller_lift"}
    assert lifting == {"_teichmuller_table"}
    assert padic_l_module._teichmuller_table.cache_info().maxsize


def test_short_alpha_raises(pair52, a52):
    # a52 carries the default 14 digits; a series mod 5^16 needs 16
    assert a52.M == 14
    with pytest.raises(PadicPrecisionError, match="digits"):
        symbol_measure(pair52, 2, 5, 2, 16, a52)
    assert symbol_measure(pair52, 2, 5, 2, 16)[0].M == 16


@pytest.mark.parametrize("p,n", [(5, 1), (5, 2), (11, 1), (7, 2)])
def test_wild_coordinates_are_logarithms(p, n):
    # c(a) = log<a> / log u mod p^n, with <a> = a / omega(a)
    u, mod = 1 + p, p ** (n + 1)
    coord = _wild_coordinates(p, n)
    lu = padic_log(u, p, n + 1)
    assert lu.M == n + 1 and lu.ints[0] % p**2 // p  # log u = p * unit
    for a in range(mod):
        if a % p == 0:
            assert coord[a] == -1
            continue
        one_unit = a * pow(teichmuller_lift(a % p, p, n + 1), -1, mod) % mod
        la = padic_log(one_unit, p, n + 1)
        assert la.M == n + 1
        want = la.ints[0] // p * pow(lu.ints[0] // p, -1, p**n) % p**n
        assert coord[a] == want, a


def _series_mod(series, k):
    """Coefficients as rationals, reduced mod p^k."""
    out = []
    for i in range(series.D):
        c = series.coefficient(i)
        x = Fraction(c.ints[0], series.p ** -c.shift)
        out.append(x.numerator * pow(x.denominator, -1, series.p ** k)
                   % series.p ** k)
    return out


def _ball_values(sym, p, n):
    """By sign, x(a/p^(n+1)) for a mod p^(n+1) and x(b/p^n) for b mod p^n,
    read one symbol point at a time."""
    return {sgn: tuple([sym.evaluate(F(a, p**k), sgn) for a in range(p**k)]
                       for k in (n + 1, n)) for sgn in (1, -1)}


def _assert_balls_match_the_formula(balls, values, p, n, M, alpha, one_root):
    """The ball masses are, mod p^M, alpha^-(n+1) x(a/p^(n+1))
    - alpha^-(n+2) x(a/p^n), one term when p | N, 0 where p | a, from the
    values of `_ball_values`; alpha^-1 is taken mod p^(alpha.M), as many
    digits as the balls need."""
    m = p**alpha.M
    a_hi, a_lo = (pow(alpha.ints[0], -k, m) for k in (n + 1, n + 2))
    for sgn, (shift, masses) in balls.items():
        hi, lo = values[sgn]
        assert len(masses) == p ** (n + 1)
        for a, x in enumerate(masses):
            want = 0 if a % p == 0 else a_hi * hi[a] - (0 if one_root else a_lo * lo[a % p**n])
            diff = F(x) * F(p) ** shift - want
            assert diff == 0 or padic_valuation(diff, p) >= M, (sgn, a)


@pytest.mark.parametrize("case", ["11a@5", "19a@5", "52a@5", "11a-tw23@11",
                                  "11a@11", "19a@19", "52a@13"])
def test_series_stable_across_precision(case, pair11, pair19, pair52,
                                        twisted11):
    """Every bundled pair and branch: the series at M = 8, 14, 16, 30
    agree mod p^8 and mu/lambda and the verdicts do not change; the
    symbol measure's balls, two terms or one (p | N: the twist, 11a at
    11, 19a at 19 and 52a at 13), are their formula read point by point;
    and
    `branch_family`, which builds each sign's balls once for all its
    branches, gives the very masses of a lone projection."""
    sym, p, ap, level = {
        "11a@5": (pair11, 5, 1, 11),
        "19a@5": (pair19, 5, 3, 19),
        "52a@5": (pair52, 5, 2, 52),
        "11a-tw23@11": (twisted11, 11, kronecker(-23, 11), 11 * 23 * 23),
        "11a@11": (pair11, 11, 1, 11),
        "19a@19": (pair19, 19, 1, 19),
        "52a@13": (pair52, 13, -1, 52),
    }[case]
    for n in ((1, 2) if p == 5 else (1,)):
        seen = {}
        values = _ball_values(sym, p, n)
        for M in (8, 14, 16, 30):
            alpha, balls = symbol_measure(sym, ap, p, n, M)
            _assert_balls_match_the_formula(balls, values, p, n, M, alpha, level % p == 0)
            bss = {j: branch_series(balls[(-1) ** (j % 2)], p, j, M, sym.label)
                   for j in range(1, p)}
            family = branch_family(sym, ap, p, n, M)[1]
            assert [(bs.shift, bs.masses) for bs in family.values()] == \
                [(bs.shift, bs.masses) for bs in bss.values()], (case, n, M)
            for j, bs in bss.items():
                try:
                    inv = mu_lambda(t_series(bs))
                except UndeterminedInvariants:
                    inv = None
                assert bs.invariants == inv, (case, n, M, j)
                verdict = product_congruence_verdict(bs, bss[j % (p - 1) + 1])
                got = (_series_mod(t_series(bs), 8), inv, verdict)
                if j in seen:
                    low, low_inv, low_verdict = seen[j]
                    assert got[0] == low, (case, n, M, j)
                    if low_inv is not None:
                        assert inv == low_inv, (case, n, M, j)
                        assert got[2] == low_verdict, (case, n, M, j)
                else:
                    seen[j] = got


# -- branch families ---------------------------------------------------

SIGMA0_52 = ((11, (1, 2, 11)),)


def test_branch_family_builds_the_requested_branches(monkeypatch):
    # each call builds alpha, each sign's balls once, and the series of
    # the branches it is asked for, each from the balls of its sign
    built, measured = [], []
    branch_series, symbol_measure = padic_l_module.branch_series, padic_l_module.symbol_measure

    def counted(balls, p, j, *args):
        built.append((j, id(balls)))
        return branch_series(balls, p, j, *args)

    def measure(*args):
        alpha, balls = symbol_measure(*args)
        measured.append({sgn: id(b) for sgn, b in balls.items()})
        return alpha, balls

    def built_once():
        """The branches built since the last look, in order, once each
        sign's balls are seen built once, by one measure, for them all."""
        (signs,) = measured
        assert [source for _, source in built] == [signs[(-1) ** j] for j, _ in built]
        js = [j for j, _ in built]
        built.clear()
        measured.clear()
        return js

    monkeypatch.setattr(padic_l_module, "branch_series", counted)
    monkeypatch.setattr(padic_l_module, "symbol_measure", measure)
    pair = symbol_pair(bundled("52.2.a.a"))
    family = branch_family(pair, 2, 5, 1, 8, SIGMA0_52)
    alpha, raw, dressed = family
    assert built_once() == [1, 2, 3, 4] and list(raw) == list(dressed) == [1, 2, 3, 4]
    # the same arguments, as other types, or a set of all branches (the
    # default 1..p-1): an equal family, built anew
    for build in (lambda: branch_family(pair, F(2), 5, 1, 8, list(SIGMA0_52)),
                  lambda: branch_family(pair, 2, 5, 1, 8, SIGMA0_52, branches={4, 1, 3, 2})):
        again = build()
        assert built_once() == [1, 2, 3, 4]
        assert again[1][1] is not raw[1] and family_state(again) == family_state(family)
    # a list, a range or a set of fewer branches builds those alone, in order
    for branches in ({4, 3}, [4, 3], range(3, 5)):
        got = branch_family(pair, 2, 5, 1, 8, SIGMA0_52, branches=branches)
        assert list(got[1]) == list(got[2]) == [3, 4] and built_once() == [3, 4]
        assert family_state(got)[0] == family_state(family)[0]
        assert all(family_state(got)[k][j] == family_state(family)[k][j]
                   for k in (1, 2) for j in (3, 4))
    # with no factors, dressed is raw, and equals the raw above
    bare = branch_family(pair, 2, 5, 1, 8)
    assert bare[2] is bare[1] and family_state(bare)[1] == family_state(family)[1]
    # the handed-out mappings are read-only
    assert type(raw) is type(dressed) is MappingProxyType
    with pytest.raises(TypeError):
        raw[1] = dressed[1]


def test_branch_series_go_with_their_caller(monkeypatch):
    # neither the symbol nor its space keeps a family: its series are
    # freed once the caller drops them, while the symbol is still held
    class Tracked(BranchSeries):
        __slots__ = ("__weakref__",)

    monkeypatch.setattr(padic_l_module, "BranchSeries", Tracked)
    nf = bundled("11.2.a.a")
    pair = symbol_pair(nf)
    _, raw, dressed = branch_family(pair, 1, 5, 1, 8, ((2, (1, 2, 2)),))
    refs = [weakref.ref(bs) for bss in (raw, dressed) for bs in bss.values()]
    assert len(refs) == 8
    del raw, dressed
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert pair.level == 11


@pytest.mark.parametrize("ap, sigma0, error", [
    (5, (), OrdinarityError),  # a_5 = 0 mod 5
    (2, ((11, (1,)), (11, (1, 2))), ValueError),  # a factor twice
    (2, ((5, (1, 1)),), ValueError),  # a factor at p
    (2, ((11, (F(1, 5),)),), PadicPrecisionError),  # a factor of valuation -1
])
def test_a_failed_branch_family_keeps_nothing(ap, sigma0, error):
    # the same error on every call, and the symbol holds its rows alone
    kept = symbol_pair(bundled("52.2.a.a"))
    pair = SymbolPair(kept.plus, kept.minus, 52, kept.label)
    messages = []
    for _ in range(2):
        with pytest.raises(error) as exc:
            branch_family(pair, ap, 5, 1, 8, sigma0)
        messages.append(str(exc.value))
        assert sorted(vars(pair)) == ["_rows", "label", "level", "minus", "plus"]
    assert messages[0] == messages[1]


# -- Kubota-Leopoldt branches against the irregular primes --------------


def test_kubota_leopoldt_branches_read_the_irregular_primes():
    # branch j = 1 - k of the Bernoulli distribution is the Kubota-Leopoldt
    # series of omega^k: mu = 0 (Ferrero-Washington), lambda = 0 when p
    # does not divide B_k (Kummer), and when it does, lambda = 1 exactly
    # when B_k/k and B_(k+p-1)/(k+p-1) differ mod p^2 (Washington, GTM 83,
    # ch. 5 and 7); lambda >= 2 otherwise
    irregular = []
    for p in range(5, 60):
        if not is_prime(p):
            continue
        balls = b1_balls(p, 1, 4)
        for k in range(2, p - 2, 2):
            mu, lam = branch_series(balls, p, 1 - k, 4).invariants
            assert mu == 0, (p, k)
            b_k = bernoulli_number(k) / k
            if b_k.numerator % p:
                assert lam == 0, (p, k)
                continue
            irregular.append((p, k))
            gap = padic_valuation(b_k - bernoulli_number(k + p - 1) / (k + p - 1), p)
            assert (lam == 1) if gap == 1 else (lam >= 2), (p, k)
    assert irregular == [(37, 32), (59, 44)]


# -- group masses against the T-basis oracle ---------------------------


def _masses_with(rng, p, M, D, mu, lam):
    """Group masses of a T-series with invariants (mu, lam) mod p^M:
    p^(mu+1) multiples below T^lam, p^mu times a unit at T^lam and
    p^mu multiples above it."""
    t = [p ** (mu + 1) * rng.randrange(p**M) for _ in range(lam)]
    t.append(p**mu * rng.choice([x for x in range(1, p * p) if x % p]))
    t += [p**mu * rng.randrange(p**M) for _ in range(D - lam - 1)]
    return t_to_gamma(t)


def _random_branch(rng, p, M, D, j, kind=None):
    """A branch series with seeded random masses: invariants of every
    kind, a vanishing one, or one of negative valuation."""
    kind = kind or rng.choice(["random", "random", "mu0", "mu+", "zero",
                               "negative"])
    shift = 0
    if kind == "random":
        masses = [rng.randrange(p**M) for _ in range(D)]
    elif kind == "zero":
        masses = [p**M * rng.randrange(3) for _ in range(D)]
    elif kind == "negative":
        shift = -rng.randrange(1, 3)
        masses = [rng.randrange(p ** (M + 2)) for _ in range(D)]
        masses[rng.randrange(D)] = 1
    else:
        mu = 0 if kind == "mu0" else rng.randrange(1, M)
        masses = _masses_with(rng, p, M, D, mu, rng.randrange(D))
    return BranchSeries(p, M, masses, shift, j, "random")


def _edge_pair(rng, p, M, D, j, edge):
    """Two branch series at one edge of the verdict rule."""
    if edge == "zero and negative":
        return [_random_branch(rng, p, M, D, j, kind)
                for kind in ("zero", "negative")]
    if edge in ("zero", "negative"):
        return [_random_branch(rng, p, M, D, j, edge),
                _random_branch(rng, p, M, D, j)]
    l1 = rng.randrange(1, D)
    invariants = {"lambda sum p^n - 1": ((0, l1), (0, D - 1 - l1)),
                  "lambda sum p^n": ((0, l1), (0, D - l1)),
                  "mu > 0": ((1, 0), (0, 0))}[edge]
    return [BranchSeries(p, M, _masses_with(rng, p, M, D, mu, lam), 0, j, "edge")
            for mu, lam in invariants]


EDGES = ("lambda sum p^n - 1", "lambda sum p^n", "mu > 0", "zero",
         "negative", "zero and negative")


def _euler_oracle(poly, ell, j, p, M, D):
    """The Euler factor as a T-series, summed densely in Fractions."""
    n = next(k for k in range(1, 8) if p**k == D)
    c = _wild_coordinates(p, n)[ell % p ** (n + 1)]
    masses = [F(0)] * D
    for k, a in enumerate(poly):
        masses[k * c % D] += F(a) / ell ** (k * (j + 1))
    return PadicSeries(p, M, D, gamma_to_t(masses))


def _or_refusal(fn):
    """fn(), or the message of its precision refusal."""
    try:
        return fn()
    except PadicPrecisionError as exc:
        return f"refused: {exc}"


def test_group_masses_against_t_basis_oracle():
    """(mu, lambda) read off the masses, the verdict rule and the sparse
    sigma0 product agree with the T-basis oracle: `mu_lambda` of the
    Taylor-shifted series, `ideal_mod_pi` of the product built by cyclic
    convolution, and that product with the dense Euler factor.  Refusals
    for a factor of negative valuation carry the same message."""
    rng = random.Random(20261018)
    for p in (3, 5, 7):
        for n in (1, 2, 3):
            D = p**n
            for trial in range(48 if D < 100 else 12):
                M = rng.randrange(2, 6)
                j = rng.randrange(p - 1)
                if trial < len(EDGES):
                    pair = _edge_pair(rng, p, M, D, j, EDGES[trial])
                else:
                    pair = [_random_branch(rng, p, M, D, j) for _ in range(2)]
                where = (p, n, trial)
                t1, t2 = (t_series(bs) for bs in pair)
                for bs, t in zip(pair, (t1, t2)):
                    try:
                        want = mu_lambda(t)
                    except UndeterminedInvariants:
                        want = None
                    assert bs.invariants == want, where
                assert _or_refusal(lambda: product_congruence_verdict(*pair)) \
                    == _or_refusal(lambda: ideal_mod_pi(group_ring_mul(t1, t2))), where
                ell = rng.choice([x for x in (2, 7, 11, 13, 31) if x % p])
                poly = [F(rng.randrange(-30, 30), rng.choice([1, 1, 2, p]))
                        for _ in range(rng.randrange(1, 4))]
                fac = _euler_oracle(poly, ell, j, p, M, D)
                assert _or_refusal(
                    lambda: t_series(apply_sigma0(pair[0], [(ell, poly)]))) \
                    == _or_refusal(lambda: group_ring_mul(t1, fac)), where
