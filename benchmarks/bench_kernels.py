"""Kernel-only microbenchmark: Kronecker substitution against schoolbook.

Usage: python benchmarks/bench_kernels.py [--repeat N]

It times the two ways `iwrank.kernels.convolve` can multiply two random
vectors with coefficients in [-8, 8]: the schoolbook loop and Kronecker
substitution.  The first row set has equal operand lengths from 1 to 1624
(the largest field degree of the Gauss-sum workload).  The second has a
short operand of length 1 to 16 against one of length 1624, the shape of
the quotient-times-Phi_n products in `numfield._reduce`.  Each row
gives both times, their ratio and the method `convolve` picks; each set
ends with its measured crossover, the first length from which Kronecker
substitution stays faster.
"""

import argparse
import random
import time

from iwrank import kernels

# coefficients are drawn from [-COEFF_BOUND, COEFF_BOUND]
COEFF_BOUND = 8

EQUAL_LENGTHS = list(range(1, 41)) + [48, 64, 96, 128, 192, 256, 384, 512,
                                      768, 1024, 1624]
SHORT_LENGTHS = list(range(1, 17))
LONG_LENGTH = 1624


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
        pick = ("kronecker" if kernels._prefers_kronecker(la, lb)
                else "schoolbook")
        print(f"{la:>5} {lb:>5} {ts * 1e6:>10.1f}us {tk * 1e6:>10.1f}us "
              f"{ts / tk:>7.2f}x {pick:>10}")
    # the first length from which Kronecker substitution stays faster
    crossover = next((la for i, (la, _) in enumerate(shapes)
                      if all(faster[i:])), None)
    first_pick = next((la for la, lb in shapes
                       if kernels._prefers_kronecker(la, lb)), None)
    print(f"measured crossover: {crossover}; convolve switches at "
          f"{first_pick}\n")


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


if __name__ == "__main__":
    main()
