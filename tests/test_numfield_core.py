"""The integer-vector core of NFElement and CyclotomicNumber against a
reference that keeps one Fraction per coefficient and reduces by long
division."""

import ast
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from iwrank import numfield
from iwrank.cyclotomic import CyclotomicNumber, cyclotomic_polynomial, zeta
from iwrank.numfield import NumberField

F = Fraction

# a second order for each tested order, to mix them in one product
PARTNER = {1: 3, 2: 3, 3: 4, 4: 3, 12: 8, 60: 9, 1711: 2}


# reference arithmetic: lists of Fractions, low degree first -----------


def _ref_reduce(vec, poly):
    d = len(poly) - 1
    rem = list(vec) + [F(0)] * max(d - len(vec), 0)
    terms = [(t, c) for t, c in enumerate(poly[:d]) if c]
    for j in range(len(rem) - 1, d - 1, -1):
        c = rem[j]
        if c:
            for t, pt in terms:
                rem[j - d + t] -= c * pt
    return rem[:d]


def _ref_mul(a, b, poly):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ref_reduce(out, poly)


def _ref_monomials(pairs, order):
    # sum c x^e over (e, c) pairs, in Q(zeta_order)
    vec = [F(0)] * order
    for e, c in pairs:
        vec[e % order] += c
    return _ref_reduce(vec, cyclotomic_polynomial(order))


def _ref_repr_cyclotomic(ref, order):
    terms = []
    for j, c in enumerate(ref):
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
        else:
            z = f"z{order}" + (f"^{j}" if j > 1 else "")
            terms.append(f"{c}*{z}" if c != 1 else z)
    return " + ".join(terms) if terms else "0"


def _normal_form(ref):
    den = lcm(*(c.denominator for c in ref))
    return tuple(c.numerator * (den // c.denominator) for c in ref), den


def _check(x, ref):
    # the value, and the one (nums, den) in lowest terms that it has
    assert x.coeffs == tuple(ref)
    assert (x.nums, x.den) == _normal_form(ref)
    assert x.den > 0 and gcd(x.den, *x.nums) == 1


def _random_ref(rng, d, sparse):
    ref = [F(0)] * d
    slots = rng.sample(range(d), min(d, 4)) if sparse else range(d)
    for j in slots:
        if not sparse and rng.random() < 0.3:
            continue
        ref[j] = F(rng.randrange(-9, 10), rng.randrange(1, 7))
    return ref


# fields -----------------------------------------------------------------


def _cyclotomic(n):
    def make(ref):
        return CyclotomicNumber(n, ref)
    return cyclotomic_polynomial(n), make


def _number_field(poly):
    field = NumberField(poly)
    return list(poly), field.element


FIELDS = {f"zeta{n}": ("zeta", n) for n in (1, 2, 3, 4, 12, 60, 1711)}
FIELDS["sqrt5"] = ("poly", (-5, 0, 1))
FIELDS["cubic"] = ("poly", (-2, -1, 0, 1))      # x^3 - x - 2


@pytest.mark.parametrize("kind,arg", FIELDS.values(), ids=FIELDS.keys())
def test_core_matches_fraction_reference(kind, arg):
    poly, make = _cyclotomic(arg) if kind == "zeta" else _number_field(arg)
    d = len(poly) - 1
    large = d > 100
    rng = random.Random(f"{kind}{arg}")
    for _ in range(2 if large else 25):
        ra, rb = _random_ref(rng, d, large), _random_ref(rng, d, large)
        a, b = make(ra), make(rb)
        _check(a, ra)
        s = F(rng.randrange(-9, 10), rng.randrange(1, 7)) or F(1)

        _check(a + b, [x + y for x, y in zip(ra, rb)])
        _check(a - b, [x - y for x, y in zip(ra, rb)])
        _check(-a, [-x for x in ra])
        _check(a * b, _ref_mul(ra, rb, poly))
        _check(a * s, [x * s for x in ra])
        _check(s * a, [x * s for x in ra])
        _check(a / s, [x / s for x in ra])
        _check(a + 3, [ra[0] + 3] + ra[1:])
        _check(s - a, [s - ra[0]] + [-x for x in ra[1:]])
        _check(a ** 0, [F(1)] + [F(0)] * (d - 1))
        _check(a ** 3, _ref_mul(_ref_mul(ra, ra, poly), ra, poly))

        # equal values compare equal, and are stored alike
        assert a * b == b * a and (a * b).nums == (b * a).nums
        assert (a + b) - b == a
        assert a == make(list(ra))
        assert (a - a) == 0 and (a - a).den == 1
        assert (a * s == b * s) == (ra == rb)

        if not large and any(ra):
            one = [F(1)] + [F(0)] * (d - 1)
            inv = a.inverse()
            assert _ref_mul(list(inv.coeffs), ra, poly) == one
            _check(inv, list(inv.coeffs))
            q = b / a
            assert _ref_mul(list(q.coeffs), ra, poly) == rb
            assert a ** -2 * a * a == 1

        if kind == "poly":
            assert repr(a) == f"NF{ra!r}"
            continue
        n = arg
        assert repr(a) == _ref_repr_cyclotomic(ra, n)
        assert repr(a * b) == _ref_repr_cyclotomic(_ref_mul(ra, rb, poly), n)
        pairs = [(j, c) for j, c in enumerate(ra) if c]
        units = [t for t in range(1, n + 1) if gcd(t, n) == 1]
        t = rng.choice(units)
        _check(a.galois(t), _ref_monomials([(j * t, c) for j, c in pairs], n))
        _check(a.conjugate(), _ref_monomials([(-j, c) for j, c in pairs], n))
        m = lcm(n, PARTNER[n])
        _check(a.lift_to(m), _ref_monomials([(j * (m // n), c) for j, c in pairs], m))
        # an element of another order meets this one in Q(zeta_m)
        k = PARTNER[n]
        rc = _random_ref(rng, len(cyclotomic_polynomial(k)) - 1, False)
        c = CyclotomicNumber(k, rc)
        lifted = _ref_monomials([(j * (m // k), x) for j, x in enumerate(rc)], m)
        here = _ref_monomials([(j * (m // n), x) for j, x in pairs], m)
        prod = a * c
        assert prod.order == m
        _check(prod, _ref_mul(here, lifted, cyclotomic_polynomial(m)))
        _check(c + a, [x + y for x, y in zip(here, lifted)])
        assert (a == c) == (here == lifted)
        assert a == a.lift_to(m) and a.lift_to(m) == a


def test_zero_divisors_are_refused():
    """inverse raises on zero and, over a reducible polynomial, on a zero
    divisor, and inverts every other element."""
    K = NumberField((-5, 0, 1))
    with pytest.raises(ZeroDivisionError):
        K.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        K.one() / K.zero()
    R = NumberField((-1, 0, 1))          # x^2 - 1 = (x - 1)(x + 1)
    x = R.gen()
    with pytest.raises(ZeroDivisionError):
        (x - 1).inverse()
    assert (x + 2) * (x + 2).inverse() == 1


def test_only_numfield_folds_and_reduces():
    # how an element is reduced belongs to `numfield`, and its fold to
    # `kernels.fold`: no other module of the package names a numfield
    # `_fold` or `_reduce`
    private = {"_fold", "_reduce"}
    for path in sorted(Path(numfield.__file__).parent.glob("*.py")):
        if path.name == "numfield.py":
            continue
        tree = ast.parse(path.read_text())
        names = [node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in private
                 and isinstance(node.value, ast.Name) and node.value.id == "numfield"]
        names += [alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[-1] == "numfield"
                  for alias in node.names if alias.name in private]
        assert not names, (path.name, names)


def test_power_basis_is_read_once(monkeypatch):
    # nums and den reduce vec once per element, however often they are read
    K = NumberField((-5, 0, 1))
    elements = [K.element([F(1, 2), F(3, 4)]) * K.element([2, -1]),
                zeta(12) * F(1, 3) + zeta(12, 5) * zeta(8)]
    calls = []
    reduce = numfield._reduce

    def counted(vec, field):
        calls.append(field)
        return reduce(vec, field)

    monkeypatch.setattr(numfield, "_reduce", counted)
    for count, x in enumerate(elements, 1):
        for _ in range(3):
            assert x.nums and x.den > 0
            assert x.coeffs == tuple(F(c, x.den) for c in x.nums)
            assert not x.is_zero() and x == x and repr(x)
        assert len(calls) == count and calls[-1] is x.field


def test_product_is_reduced_at_every_step():
    # over a field with no period the stored vector is the power-basis
    # form: each product of a chain is reduced when it is made, and
    # equals the reference reduced at every step
    poly = (-5, 0, 1)
    K = NumberField(poly)
    rng = random.Random("sqrt5-chain")
    for _ in range(10):
        ref = _random_ref(rng, 2, False)
        x = K.element(ref)
        for _ in range(8):
            rb = _random_ref(rng, 2, False)
            x, ref = x * K.element(rb), _ref_mul(ref, rb, poly)
            _check(x, ref)
            assert len(x.vec) <= 2
            assert (tuple(x.vec) + (0,) * (2 - len(x.vec)), x.vden) == (x.nums, x.den)
