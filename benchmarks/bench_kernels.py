"""Kernel microbenchmark: Kronecker substitution against schoolbook, the
reduction in Q(zeta_n), and the group-ring products of `cyclotomic`.

Usage: python benchmarks/bench_kernels.py [--repeat N]

It times the two ways `iwrank.kernels.convolve` can multiply two random
vectors with coefficients in [-8, 8]: the schoolbook loop over the
nonzero terms and Kronecker substitution.  The first row set has equal
operand lengths from 1 to 1624 (the largest field degree of the
Gauss-sum workload).  The second has a short operand of length 1 to 16
against one of length 1624, the shape of the quotient-times-Phi_n
products of `numfield._reduce`.  Each row gives both
times, their ratio and the method `convolve` picks; each set ends with
its measured crossover, the first length from which Kronecker
substitution stays faster.

The third row set times `numfield._reduce`, the one reduction modulo
the field polynomial, per field.  A cyclotomic field is built as
`cyclotomic._ring` builds it, so its Barrett quotient is
(x^h - e)/Phi_n for the binomial the code folds through (x^n - 1, or
x^(n/2) + 1 for even n).  The shapes are the reduction of one root of
unity x^(h-1), of a random vector of h slots (a dense group-ring
element, as `CyclotomicNumber` reads one), and of one product of two
random reduced elements (`convolve`, then the reduction); without a
period h is 2d - 1, a product's length.  The fields are those of
`verify`, small cyclotomic ones, and the orders 1711, 2162, 2756 and
3422, the largest of the Gauss-sum workload.

The last row set times `CyclotomicNumber` as the Gauss-sum workload
uses it: g(chi) g(chibar) for a character of each of the four largest
orders, split into building the two Gauss sums, their group-ring
product, and the first read of the product (one reduction modulo Phi_n
and its repr, on a fresh copy).  Its last rows are a product of two
dense random elements at 210 and 903, where h (105 and 903) is well
above phi(n) (48 and 504), and its first read: a dense product pays for
the group ring's longer vectors.

The last row set times `NFElement.inverse`, which solves the
multiplication matrix of an element through `linalg`, on random dense
elements of Q(sqrt 5), Q(zeta_5), Q(zeta_16), Q(zeta_45) and
Q(zeta_100), of degrees 2, 4, 8, 24 and 40.  The large `FIELDS` are
left out: an inverse in degree 1624 is out of reach.
"""

import argparse
import random
import time

from iwrank import kernels, numfield
from iwrank.characters import parse_descriptor
from iwrank.cyclotomic import CyclotomicNumber, _ring

# coefficients are drawn from [-COEFF_BOUND, COEFF_BOUND]
COEFF_BOUND = 8

EQUAL_LENGTHS = list(range(1, 41)) + [48, 64, 96, 128, 192, 256, 384, 512,
                                      768, 1024, 1624]
SHORT_LENGTHS = list(range(1, 17))
LONG_LENGTH = 1624
# (name, field): the fields of `verify` (Q(sqrt 5) is the coefficient
# field of 23.2.a), small cyclotomic fields, and the largest orders of the
# Gauss-sum workload
FIELDS = ([("sqrt5", numfield.NumberField([-5, 0, 1]))]
          + [(f"zeta{n}", _ring(n))
             for n in (2, 4, 10, 5, 7, 9, 11, 13, 15, 1711, 2162, 2756, 3422)])
# characters of the Gauss-sum workload whose sums live in Q(zeta_n) for
# its four largest orders n = lcm(conductor, order)
GAUSS_CHARACTERS = ("mod=59;gens=2:2;ord=29", "mod=47;gens=5:1;ord=46",
                    "mod=53;gens=2:1;ord=52", "mod=59;gens=2:1;ord=58")
DENSE_ORDERS = (210, 903)
# (name, field) of the inverse rows, of degrees 2, 4, 8, 24 and 40
INVERSE_FIELDS = FIELDS[:1] + [(f"zeta{n}", _ring(n)) for n in (5, 16, 45, 100)]


def best_time(fn, a, b, repeat):
    """Best over `repeat` rounds of the mean time of one call; a round
    makes enough calls to last about 20 ms."""
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(a, b)
        if time.perf_counter() - t0 >= 0.02 or calls >= 1 << 16:
            break
        calls *= 2
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(a, b)
        dt = (time.perf_counter() - t0) / calls
        best = dt if best is None else min(best, dt)
    return best


def row_set(title, shapes, rng, repeat):
    """Time each (la, lb) shape; print the rows and the crossover in la."""
    print(title)
    print(f"{'la':>5} {'lb':>5} {'schoolbook':>12} {'kronecker':>12} "
          f"{'speedup':>8} {'picks':>10}")
    faster = []
    for la, lb in shapes:
        a = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(la)]
        b = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(lb)]
        assert kernels._kronecker(a, b) == kernels._schoolbook(a, b)
        ts = best_time(kernels._schoolbook, a, b, repeat)
        tk = best_time(kernels._kronecker, a, b, repeat)
        faster.append(tk < ts)
        terms = (la - a.count(0)) * (lb - b.count(0))
        pick = ("kronecker" if kernels._prefers_kronecker(la, lb, terms)
                else "schoolbook")
        print(f"{la:>5} {lb:>5} {ts * 1e6:>10.1f}us {tk * 1e6:>10.1f}us "
              f"{ts / tk:>7.2f}x {pick:>10}")
    # the first length from which Kronecker substitution stays faster
    crossover = next((la for i, (la, _) in enumerate(shapes)
                      if all(faster[i:])), None)
    first_pick = next((la for la, lb in shapes
                       if kernels._prefers_kronecker(la, lb, la * lb)), None)
    print(f"measured crossover: {crossover}; convolve switches at "
          f"{first_pick}\n")


def field_rows(rng, repeat):
    """Time the reduction of a root of unity, a dense vector and a
    product, per field."""
    print("reduction modulo the field polynomial")
    print(f"{'field':>8} {'d':>5} {'root':>12} {'dense':>12} {'product':>12}")
    for name, field in FIELDS:
        d = field.degree
        length = field.period or 2 * d - 1
        root = [0] * (length - 1) + [1]
        dense = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(length)]
        a, b = ([rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(d)]
                for _ in range(2))
        times = [best_time(numfield._reduce, x, field, repeat) for x in (root, dense)]
        times.append(best_time(lambda u, v: numfield._reduce(
            kernels.convolve(u, v), field), a, b, repeat))
        print(f"{name:>8} {d:>5} " + " ".join(f"{t * 1e6:>10.1f}us" for t in times))
    print()


def cyclotomic_rows(rng, repeat):
    """Time the group-ring steps of g(chi) g(chibar), and of a product of
    two dense elements."""
    print("Q(zeta_n) products: build, group-ring product, first read")
    print(f"{'n':>5} {'h':>5} {'d':>5} {'terms':>11} {'build':>12} "
          f"{'product':>12} {'read':>12}")
    cases = []
    for desc in GAUSS_CHARACTERS:
        chi = parse_descriptor(desc)
        chibar = chi.conjugate()
        cases.append((lambda u, v: (u.gauss_sum(), v.gauss_sum()), chi, chibar))
    for n in DENSE_ORDERS:
        d = _ring(n).degree
        x, y = ([rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(d)]
                for _ in range(2))
        cases.append((lambda u, v, n=n: (CyclotomicNumber(n, u, 1),
                                         CyclotomicNumber(n, v, 1)), x, y))
    for build, u, v in cases:
        a, b = build(u, v)
        prod = a * b
        n, field = prod.order, prod.field
        terms = "x".join(str(len(w.vec) - w.vec.count(0)) for w in (a, b))
        tb = best_time(build, u, v, repeat)
        tm = best_time(lambda x, y: x * y, a, b, repeat)
        tr = best_time(lambda w, den: repr(CyclotomicNumber(n, w, den)),
                       prod.vec, prod.vden, repeat)
        print(f"{n:>5} {field.period:>5} {field.degree:>5} {terms:>11} "
              f"{tb * 1e6:>10.1f}us {tm * 1e6:>10.1f}us {tr * 1e6:>10.1f}us")
    print()


def inverse_rows(rng, repeat):
    """Time the inverse of a random dense element, per field."""
    print("field inverses")
    print(f"{'field':>8} {'d':>5} {'inverse':>12}")
    for name, field in INVERSE_FIELDS:
        d = field.degree
        a = field.element([rng.randint(-COEFF_BOUND, COEFF_BOUND) or 1
                           for _ in range(d)])
        assert a * a.inverse() == 1
        t = best_time(lambda x, _: x.inverse(), a, None, repeat)
        print(f"{name:>8} {d:>5} {t * 1e6:>10.1f}us")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing rounds per row (the best is kept)")
    args = ap.parse_args()

    rng = random.Random(2024)
    print(f"cost model: KRONECKER_SETUP = {kernels.KRONECKER_SETUP}, "
          f"KRONECKER_PER_COEFF = {kernels.KRONECKER_PER_COEFF}\n")
    row_set("equal lengths", [(n, n) for n in EQUAL_LENGTHS], rng,
            args.repeat)
    row_set(f"short against {LONG_LENGTH}",
            [(n, LONG_LENGTH) for n in SHORT_LENGTHS], rng, args.repeat)
    field_rows(rng, args.repeat)
    cyclotomic_rows(rng, args.repeat)
    inverse_rows(rng, args.repeat)


if __name__ == "__main__":
    main()
