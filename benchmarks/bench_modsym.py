"""Symbol-space microbenchmark: the P^1 table and the Manin-symbol quotient.

Usage: python benchmarks/bench_modsym.py [--repeat N]

For each level N it times `iwrank.modsym.P1List(N)` (the flat point
table) and `iwrank.modsym.build_space(N)` with no cache directory (the
table, the sparse quotient and the dimension check), and prints the best
of `--repeat` rounds together with |P^1(Z/N)| and the quotient dimension.
"""

import argparse
import time

from iwrank import modsym

LEVELS = (52, 200, 389)


def best_time(fn, arg, repeat):
    """Best wall time of one call over `repeat` rounds."""
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(arg)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing rounds per level (the best is kept)")
    args = ap.parse_args()

    print(f"{'N':>5} {'|P1|':>6} {'dim':>5} {'P1List':>10} {'build_space':>12}")
    for N in LEVELS:
        space = modsym.build_space(N)
        tp = best_time(modsym.P1List, N, args.repeat)
        tb = best_time(modsym.build_space, N, args.repeat)
        print(f"{N:>5} {len(space.p1):>6} {space.dim:>5} "
              f"{tp * 1e3:>8.1f}ms {tb * 1e3:>10.1f}ms")


if __name__ == "__main__":
    main()
