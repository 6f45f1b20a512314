"""Symbol-space microbenchmark: the P^1 table, the Manin-symbol quotient,
Hecke images, eigenfunctionals and the cuspidal restriction.

Usage: python benchmarks/bench_modsym.py [--repeat N]

For each level N it times `iwrank.modsym.P1List(N)` (the points and
their divisor index), a fresh `iwrank.modsym.ModularSymbolSpace(N)` (the
index, the sparse quotient and the dimension check), the Hecke images
T_2, T_3, T_5, T_7 together on a fresh space, and, at the levels in
`TARGETS`, the rational `eigen_functional` of each sign (the T_ell
eigenvalue there).  Every eigen-solve is timed cold: on a space built
outside the timing, with the Hecke images it builds inside it, as a
space keeps neither images nor kernels.  It prints the best of
`--repeat` rounds together with |P^1(Z/N)| and the quotient dimension;
`/build` is T_2..T_7 plus both cold eigen-solves as a multiple of the
fresh build, and `peak` the most memory that Python allocations (per
`tracemalloc`) held at once in one untimed fresh build of the space and
its four Hecke images.

Then, at the levels in `CUSPIDAL` (prime and composite), it times
`boundary_data()` on its own (a cusp key per basis symbol, both ends)
and `restrict_to_cuspidal(T_2)` (the boundary data and its kernel, the
images of its basis and the check that they stay cuspidal), with T_2
built outside the timing; the plus eigenfunctional of 23.2.a over
Q(sqrt 5) (a_2 = (-1 - sqrt 5)/2); both signs of the three-target solve
`MULTI` at level 364; and the loop of `examples.symbol_pair` over those
targets' primes through the steps
of `modsym` (both signs' `sign_kernel`; per prime, one `hecke_images`
and both kernels restricted by it, `restrict_kernel`, then each sign's
`line_functional`), all cold.  Last it times `merel_matrices(l)`
at the l in `MEREL`, and on each sign of that level-364 line the
eigenvalue reader (`SymbolFunctional.eigenvalue`, one Hecke row per l)
at the l in `READ`.
"""

import argparse
import time
import tracemalloc
from fractions import Fraction

from iwrank import modsym
from iwrank.numfield import NumberField

LEVELS = (52, 389, 997, 2003, 4001)
HECKE = (2, 3, 5, 7)
# (ell, a_ell) cutting a line out of a level's plus space: the bundled
# 52.2.a.a at 5, and rational newforms of levels 389 and 997 at 2 (none is
# given at 2003 and 4001, which time no eigenfunctional)
TARGETS = {52: (5, 2), 389: (2, -2), 997: (2, 0)}
CUSPIDAL = (52, 389, 360, 1000)
# the newform of level 364 congruent to 52.2.a.a mod 5: a line on both
# signs only with all three targets, each one after the first cutting a
# kernel of dimension 8 (then 4, on the plus sign) down
MULTI = (364, [(3, 0), (5, -3), (11, -2)])
MEREL = (97, 599)
READ = (7, 13, 17, 19, 23, 29, 31, 97)


def best_time(fn, repeat):
    """Best wall time of fn() over `repeat` rounds."""
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def cold_time(N, fn, repeat):
    """Best wall time of fn(space) over `repeat` rounds, each on a fresh
    space at N built untimed."""
    best = None
    for _ in range(repeat):
        space = modsym.ModularSymbolSpace(N)
        t0 = time.perf_counter()
        fn(space)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def prime_loop(space, targets):
    """`examples.symbol_pair`'s loop over the primes of targets: both
    signs' kernels, restricted by each T_l's images, built once, and each
    sign's line read after each prime, an eigenspace that is not a line
    included."""
    kernels = [modsym.sign_kernel(space, sign, None) for sign in (1, -1)]
    for ell, a in targets:
        images = space.hecke_images(ell)
        kernels = [modsym.restrict_kernel(kern, images, a) for kern in kernels]
        for kern in kernels:
            try:
                modsym.line_functional(kern)
            except modsym.EigenspaceError:
                pass


def hecke_on_fresh_space(N):
    """T_2, T_3, T_5, T_7 on a space with no memoized images."""
    space = modsym.ModularSymbolSpace(N)
    t0 = time.perf_counter()
    for ell in HECKE:
        space.hecke_images(ell)
    return time.perf_counter() - t0


def peak_mb(N):
    """Peak traced memory, in MB, of building a fresh space at N and its
    Hecke images T_2, T_3, T_5, T_7."""
    tracemalloc.start()
    try:
        space = modsym.ModularSymbolSpace(N)
        for ell in HECKE:
            space.hecke_images(ell)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing rounds per level (the best is kept)")
    args = ap.parse_args()

    print(f"{'N':>5} {'|P1|':>6} {'dim':>5} {'P1List':>10} {'fresh':>10} "
          f"{'T2,3,5,7':>10} {'eigen+':>10} {'eigen-':>10} {'/build':>7} "
          f"{'peak':>9}")
    for N in LEVELS:
        space = modsym.ModularSymbolSpace(N)
        tp = best_time(lambda: modsym.P1List(N), args.repeat)
        tb = best_time(lambda: modsym.ModularSymbolSpace(N), args.repeat)
        th = min(hecke_on_fresh_space(N) for _ in range(args.repeat))
        eigen, ratio = ["-", "-"], "-"
        if N in TARGETS:
            target = [TARGETS[N]]
            te = [cold_time(N, lambda sp: modsym.eigen_functional(sp, target, sign), args.repeat)
                  for sign in (1, -1)]
            eigen, ratio = [f"{t * 1e3:.1f}ms" for t in te], f"{(th + sum(te)) / tb:.2f}"
        print(f"{N:>5} {len(space.p1):>6} {space.dim:>5} "
              f"{tp * 1e3:>8.2f}ms {tb * 1e3:>8.1f}ms "
              f"{th * 1e3:>8.1f}ms {eigen[0]:>10} {eigen[1]:>10} {ratio:>7} "
              f"{peak_mb(N):>7.2f}MB")

    print()
    for N in CUSPIDAL:
        space = modsym.ModularSymbolSpace(N)
        t2 = space.hecke_images(2)
        tb = best_time(space.boundary_data, args.repeat)
        tr = best_time(lambda: space.restrict_to_cuspidal(t2), args.repeat)
        print(f"boundary_data()          N={N:<4} "
              f"({len(space.boundary_data()[0]):>3} cusp classes) {tb * 1e3:>8.2f}ms")
        print(f"restrict_to_cuspidal(T2) N={N:<4} "
              f"(cuspidal dim {space.cuspidal_dimension():>3}) {tr * 1e3:>8.2f}ms")
    K = NumberField((-5, 0, 1))
    a2 = K.one() * Fraction(-1, 2) + K.gen() * Fraction(-1, 2)
    tf = cold_time(23, lambda sp: modsym.eigen_functional(sp, [(2, a2)], +1), args.repeat)
    print(f"eigen_functional 23.2.a over Q(sqrt5)            {tf * 1e3:>8.2f}ms")
    N, targets = MULTI
    for sign in (1, -1):
        tm = cold_time(N, lambda sp: modsym.eigen_functional(sp, targets, sign), args.repeat)
        print(f"eigen_functional {N} {targets} sign {sign:+d} {tm * 1e3:>8.2f}ms")
    tl = cold_time(N, lambda sp: prime_loop(sp, targets), args.repeat)
    print(f"symbol_pair's loop over l = 3, 5, 11, both signs {tl * 1e3:>8.2f}ms")

    print()
    for n in MEREL:
        tm = best_time(lambda: modsym.merel_matrices(n), args.repeat)
        print(f"merel_matrices({n:>3}) {len(modsym.merel_matrices(n)):>6} matrices {tm * 1e3:>8.2f}ms")
    space = modsym.ModularSymbolSpace(N)
    for sign in (1, -1):
        phi = modsym.eigen_functional(space, targets, sign)
        tr = best_time(lambda: [phi.eigenvalue(ell) for ell in READ], args.repeat)
        print(f"eigenvalue at {N} sign {sign:+d}, l in {READ} {tr * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
