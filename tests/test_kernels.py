import ast
import math
import random
from pathlib import Path

import pytest

from iwrank import kernels
from iwrank.cyclotomic import _ring, cyclotomic_polynomial
from iwrank.numfield import NFElement, NumberField, _reduce


def _reduction_rows(modulus, extra):
    # modulus is monic; rows[k] = x^(deg+k) mod modulus
    deg = len(modulus) - 1
    rows = []
    cur = [-c for c in modulus[:deg]]
    rows.append(list(cur))
    for _ in range(extra - 1):
        cur = [0] + cur
        lead = cur.pop()
        if lead:
            for t in range(deg):
                cur[t] += lead * rows[0][t]
        rows.append(list(cur))
    return rows


def _fold_tail(vec, rows, deg):
    # the reduction by table: fold x^(deg+k) back through rows[k]
    out = list(vec[:deg]) + [0] * max(deg - len(vec), 0)
    for k in range(deg, len(vec)):
        c = vec[k]
        if not c:
            continue
        for t, rt in enumerate(rows[k - deg]):
            if rt:
                out[t] += c * rt
    return out


def _random_vec(rng, length, bound):
    return [rng.randrange(-bound, bound + 1) for _ in range(length)]


def _sparse_units(rng, length, count):
    vec = [0] * length
    for k in rng.sample(range(length), count):
        vec[k] = rng.choice((-1, 1))
    return vec


def test_convolve_known_values():
    assert kernels.convolve([1, 1], [1, -1]) == [1, 0, -1]
    assert kernels.convolve([2, 0, 3], [5]) == [10, 0, 15]
    assert kernels.convolve([], [1, 2]) == []
    assert kernels.convolve([7], []) == []


def test_selected_backend_exports():
    assert kernels.convolve([1, 2], [3]) == [3, 6]
    assert kernels.COMPILED is False


def _wrap(vec, period, sign):
    # the reference fold: x^k = sign^(k div period) x^(k mod period)
    if period is None or len(vec) <= period:
        return list(vec)
    out = [0] * period
    for k, c in enumerate(vec):
        out[k % period] += sign ** (k // period) * c
    return out


@pytest.fixture
def by_method(monkeypatch):
    """convolve(a, b, **fold) with the cost model forced to the loop or to
    Kronecker substitution, and the list fold of `_schoolbook` it must
    equal, as run(a, b, **fold) -> (loop, kronecker, reference)."""
    def run(a, b, period=None, sign=1):
        out = []
        for setup in (math.inf, -math.inf):
            monkeypatch.setattr(kernels, "KRONECKER_SETUP", setup)
            out.append(kernels.convolve(a, b, period=period, sign=sign))
        monkeypatch.undo()
        want = _wrap(kernels._schoolbook(a, b), period, sign) if a and b else []
        return (*out, want)
    return run


@pytest.mark.parametrize("bound", [1, 9, 2**31, 2**63, 10**40])
def test_kronecker_matches_schoolbook(bound, by_method):
    # every pair of lengths 0..40, around the crossover, both signs; the
    # bounds put the slots on and beyond the machine-word sizes; each pair
    # also folded by a period h of 1..40 with either sign, so products
    # fit below x^h, wrap once, and wrap more than once from operands
    # longer than 2h
    rng = random.Random(bound)
    for la in range(41):
        for lb in range(41):
            a, b = _random_vec(rng, la, bound), _random_vec(rng, lb, bound)
            if not (la and lb):
                assert kernels.convolve(a, b) == []
                assert kernels.convolve(a, b, period=3, sign=-1) == []
                continue
            expect = kernels._schoolbook(a, b)
            loop, kron, want = by_method(a, b)
            assert loop == kron == want == expect, (la, lb)
            assert kernels.convolve(a, b) == expect, (la, lb)
            h, sign = (la * 41 + lb) % 40 + 1, (-1) ** (la + lb)
            loop, kron, want = by_method(a, b, h, sign)
            assert loop == kron == want == kernels.convolve(a, b, period=h, sign=sign), \
                (la, lb, h, sign)


def test_kronecker_long_and_degenerate(by_method):
    rng = random.Random(1624)
    a, b = _random_vec(rng, 1624, 8), _random_vec(rng, 1624, 8)
    assert kernels.convolve(a, b) == kernels._schoolbook(a, b)
    big = _random_vec(rng, 1624, 10**40)
    assert kernels.convolve(big, a) == kernels._schoolbook(big, a)
    # a short operand against a long one, on both sides of the cost model
    for la in range(1, 13):
        short = _random_vec(rng, la, 8)
        assert kernels.convolve(short, b) == kernels._schoolbook(short, b)
        assert kernels.convolve(b, short) == kernels._schoolbook(short, b)
    # product coefficients of +-bound with bound just below a slot's
    # sign bit, for slots of 1, 2, 4 and 8 bytes and beyond; folded by
    # x^16 = +-1 every slot, or the top one, still reaches the bound
    # max|a| max|b| min(nonzero counts) that sizes the slots
    for bits in (7, 15, 31, 63, 64, 100):
        m = (2**bits - 1) // 16
        for x, y in ((m, 1), (m, -1), (-m, -1)):
            a16, b16 = [x] * 16, [y] * 16
            assert kernels.convolve(a16, b16) == kernels._schoolbook(a16, b16)
            for sign in (1, -1):
                loop, kron, want = by_method(a16, b16, 16, sign)
                assert loop == kron == want and abs(want[-1]) == 16 * m, (bits, sign)
    assert kernels.convolve([0] * 30, a) == [0] * 1653
    assert kernels.convolve(a, [0] * 30) == [0] * 1653
    assert kernels.convolve([], []) == []
    assert kernels.convolve([], a) == []
    # group-ring products in the largest rings of the Gauss-sum workload:
    # unit terms (a Gauss sum's shape) at each edge bound against unit
    # terms, dense +-1 and dense random operands, and a zero operand
    for n in (1711, 2756, 3422):
        ring = _ring(n)
        h, sign = ring.period, ring.sign
        units = [_sparse_units(rng, h, 58) for _ in range(2)]
        ones = [rng.choice((-1, 1)) for _ in range(h)]
        dense = _random_vec(rng, h, 8)
        pairs = [(units[0], units[1]), (units[0], ones), (ones, ones), (dense, units[1]),
                 (dense, dense), ([0] * h, dense)]
        pairs += [([bound * c for c in units[0]], units[1]) for bound in EDGE_BOUNDS[1:]]
        for x, y in pairs:
            loop, kron, want = by_method(x, y, h, sign)
            assert loop == kron == want and len(want) == h, n


def test_psi_is_the_cofactor_of_phi():
    # the Barrett quotient of Phi_n is the cofactor of Phi_n in the
    # binomial it folds through: x^n - 1 for odd n, x^(n/2) + 1 for even n
    for n in list(range(1, 61)) + [1711, 2162, 2756, 3422]:
        ring = _ring(n)
        k, sign = (n // 2, -1) if n % 2 == 0 else (n, 1)
        assert (ring.k, ring.period, ring.sign) == (k, k, sign)
        binomial = [-sign] + [0] * (k - 1) + [1]
        assert kernels.convolve(ring.barrett, ring.poly) == binomial


def _check_reduction(n, rng, lengths):
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = _reduction_rows(phi, max(max(lengths) - deg, 1))
    ring = _ring(n)
    for length in lengths:
        vec = _random_vec(rng, length, 10**6)
        assert _reduce(vec, ring) == _fold_tail(vec, rows, deg), (n, length)


def test_psi_reduction_matches_table_small_orders():
    rng = random.Random(300)
    for n in range(1, 301):
        _check_reduction(n, rng, sorted({0, n - 1, n, n + 1, 2 * n}))


def test_psi_reduction_matches_table_large_orders():
    # the largest orders of Gauss sums of characters mod 31..60:
    # phi(3422) = phi(1711) = 1624, phi(2756) = 1248
    rng = random.Random(3422)
    for n in (1711, 2756, 3422):
        deg = len(cyclotomic_polynomial(n)) - 1
        _check_reduction(n, rng, [deg + 1, 2 * deg - 1, n - 1, n, 2 * n])


def _monic_remainder(vec, poly):
    # schoolbook long division by a monic polynomial
    d = len(poly) - 1
    rem = list(vec)
    for j in range(len(rem) - 1, d - 1, -1):
        c = rem[j]
        for t in range(d + 1):
            rem[j - d + t] -= c * poly[t]
    return (rem[:d] + [0] * d)[:d]


def _sparse_remainder(vec, poly, period=None, sign=1):
    # long division by a monic polynomial, over its nonzero terms; with a
    # period h and sign e (poly divides x^h - e), after folding x^h to e
    d = len(poly) - 1
    rem = list(vec) + [0] * max(d - len(vec), 0)
    if period is not None and len(rem) > period:
        rem, tail = rem[:period], rem[period:]
        for k, c in enumerate(tail):
            rem[k % period] += sign ** (k // period + 1) * c
    terms = [(t, c) for t, c in enumerate(poly[:d]) if c]
    for j in range(len(rem) - 1, d - 1, -1):
        c = rem[j]
        if c:
            for t, pt in terms:
                rem[j - d + t] -= c * pt
    return rem[:d]


# coefficient sizes on and beyond the machine-word slot edges of
# `kernels._kronecker`, which the reductions of large fields run through
EDGE_BOUNDS = (1, 2**31, 2**63, 10**40)


def _edge_cases(rng, length, remainder, rand_bounds=EDGE_BOUNDS):
    """(vec, remainder(vec)) for the zero vector, vectors of +-bound at
    each edge bound and a random vector at each of rand_bounds.  The
    remainder is linear: those of the +-bound vectors are multiples of
    those of the all-ones and the alternating vector."""
    ones = remainder([1] * length)
    signs = remainder([1 if i % 2 else -1 for i in range(length)])
    cases = [([0] * length, [0] * len(ones))]
    for bound in EDGE_BOUNDS:
        cases += [([bound] * length, [bound * c for c in ones]),
                  ([-bound] * length, [-bound * c for c in ones]),
                  ([bound if i % 2 else -bound for i in range(length)],
                   [bound * c for c in signs])]
    for bound in rand_bounds:
        vec = _random_vec(rng, length, bound)
        cases.append((vec, remainder(vec)))
    return cases


def test_barrett_matches_long_division():
    # x^k div f with k = 2d - 2 reduces every product of two reduced
    # vectors, up to length k + 1
    rng = random.Random(2026)
    for d in range(1, 7):
        for _ in range(40):
            poly = _random_vec(rng, d, 50) + [1]
            field = NumberField(poly)
            assert field.k == 2 * d - 2
            for length in range(0, 2 * d):
                vec = _random_vec(rng, length, 10**9)
                assert _reduce(vec, field) == _monic_remainder(vec, poly), (poly, vec)
    # Q(sqrt 5) and x^3 - x - 2 at the edge bounds, just above d and at
    # a product's length 2d - 1
    for poly in ([-5, 0, 1], [-2, -1, 0, 1]):
        field, d = NumberField(poly), len(poly) - 1
        for length in sorted({d + 1, 2 * d - 1}):
            for vec, want in _edge_cases(
                    rng, length, lambda v, f=poly: _monic_remainder(v, f)):
                assert _reduce(vec, field) == want, (poly, length)


RING_ORDERS = list(range(1, 301)) + [1711, 1806, 2162, 2756, 3422]


def test_binomial_fold_matches_long_division():
    # every field of `_ring` against long division by Phi_n with no fold
    # at all; the lengths are just above d (a one-term quotient), just
    # above the fold x^h, a monomial sum, a product and a double fold;
    # one random vector per length fills the widest slots; each vector is
    # read twice, the second time through the packed forms the first kept
    rng = random.Random(18)
    for n in RING_ORDERS:
        ring = _ring(n)
        poly, h, d = list(ring.poly), ring.period, ring.degree
        for length in sorted({d + 1, h + 1, n, 2 * d - 1, 2 * n}):
            for vec, want in _edge_cases(
                    rng, length, lambda v: _sparse_remainder(v, poly), EDGE_BOUNDS[-1:]):
                assert _reduce(vec, ring) == want == _reduce(vec, ring), (n, length)


PRODUCT_ORDERS = list(range(1, 301)) + [1711, 2756, 3422]


def _edge_vectors(rng, length, bound):
    # vectors of +-bound, on the slot edge the width is chosen for, and a
    # random one
    return [[bound] * length, [-bound] * length,
            [bound if i % 2 else -bound for i in range(length)],
            _random_vec(rng, length, bound)]


def test_product_matches_long_division():
    # NFElement products in the fields of `_ring`, Q(sqrt 5) and
    # x^3 - x - 2, against long division of the product (after the fold
    # by x^h = e where the field has one)
    fields = [_ring(n) for n in PRODUCT_ORDERS]
    fields += [NumberField([-5, 0, 1]), NumberField([-2, -1, 0, 1])]
    # each product is taken twice, the second time through the packed
    # forms the first kept
    rng = random.Random(88)
    for field in fields:
        d = field.degree
        zero, big = NFElement(field, [0] * d, 1), NFElement(field, [10**40] * d, 1)
        assert (zero * big).is_zero() and (big * zero).is_zero()
        for bound in EDGE_BOUNDS:
            plus, minus, alternating, rand = _edge_vectors(rng, d, bound)
            # a square too: the product of one vector with itself
            for a, b in ((plus, minus), (alternating, rand), (rand, rand)):
                want = _sparse_remainder(kernels.convolve(a, b), field.poly,
                                         field.period, field.sign)
                for _ in range(2):
                    x, y = NFElement(field, a, 1), NFElement(field, b, 1)
                    prod = x * x if a is b else x * y
                    assert list(prod.nums) == want, (field, bound)


def test_fixed_operand_keeps_a_packed_form_per_slot_width():
    # one constant operand, first against small coefficients (one-byte
    # slots), then against vectors at each edge bound, which need wider
    # slots: a form packed for one width must not serve another
    rng = random.Random(25)
    fixed = kernels.FixedOperand(_random_vec(rng, 300, 1))
    small = _random_vec(rng, 60, 1)
    assert kernels.convolve_fixed(small, fixed) == kernels._schoolbook(small, fixed)
    for bound in EDGE_BOUNDS:
        for vec in _edge_vectors(rng, 60, bound):
            assert kernels.convolve_fixed(vec, fixed) == kernels._schoolbook(vec, fixed), bound
    # every product took the packed path, which kept one form per width
    # on the operand
    assert sorted(fixed.packed) == [1, 8, 9, 18]


def test_public_functions_are_the_kernels_own():
    # perfbench's tracer wraps every public function `kernels` binds and
    # puts the wrapper wherever another module binds the same object, so
    # a function imported by name (operator.sub, say) would be traced,
    # and billed as a kernel, in every module that uses it
    public = {name: obj for name, obj in vars(kernels).items()
              if not name.startswith("_") and callable(obj) and not isinstance(obj, type)}
    assert {"convolve", "convolve_fixed", "fold"} <= public.keys()
    assert all(obj.__module__ == kernels.__name__ for obj in public.values()), public


def test_only_kernels_reads_its_private_names():
    # the slot format (`_kronecker`, `_pack`, `_bias`) and the cost
    # model's choice (`_prefers_kronecker`) belong to `kernels`: no other
    # module of the package names a private attribute of it
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        if path.name == "kernels.py":
            continue
        tree = ast.parse(path.read_text())
        names = [node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                 and isinstance(node.value, ast.Name) and node.value.id == "kernels"]
        names += [alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[-1] == "kernels"
                  for alias in node.names if alias.name.startswith("_")]
        assert not names, (path.name, names)
