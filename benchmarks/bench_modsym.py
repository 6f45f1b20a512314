"""Symbol-space microbenchmark: the P^1 table, the Manin-symbol quotient,
Hecke images, eigenfunctionals and the cuspidal restriction.

Usage: python benchmarks/bench_modsym.py [--repeat N]

For each level N it times `iwrank.modsym.P1List(N)` (the points and
their divisor index), a fresh `iwrank.modsym.ModularSymbolSpace(N)` (the
index, the sparse quotient and the dimension check), the Hecke images
T_2, T_3, T_5, T_7 together on a fresh space, and, at the levels in
`TARGETS`, the rational `eigen_functional` of each sign (the T_ell
eigenvalue there).  An eigenfunctional is timed cold, on a fresh space
whose Hecke images are built outside the timing, as a space keeps what
it solves; `repeat` after the eigen columns is a repeat call of the
plus one on one space, which keeps the eigenspace kernel and builds the
functional anew.  It prints
the best of `--repeat` rounds together with |P^1(Z/N)| and the quotient
dimension; `/build` is Hecke plus both cold eigenfunctionals as a
multiple of the fresh build, and `peak` the most memory that Python
allocations (per `tracemalloc`) held at once in one untimed fresh build
of the space and its four Hecke images.

Then it times `restrict_to_cuspidal(T_2)` at the levels in `CUSPIDAL`
(the boundary kernel, the images of its basis and the check that they
stay cuspidal), with T_2 memoized; the plus eigenfunctional of 23.2.a
over Q(sqrt 5) (a_2 = (-1 - sqrt 5)/2), cold and repeated; both signs
of the three-target solve `MULTI` at level 364, cold and repeated; and the
loop of `examples.symbol_pair` over the prefixes of those targets,
[:1], [:2], [:3], on both signs, cold.  Last it times
`merel_matrices(l)` at the l in `MEREL`, and on each sign of that
level-364 line the eigenvalue reader (`SymbolFunctional.eigenvalue`,
one Hecke row per l, none memoized) at the l in `READ`.
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
CUSPIDAL = (52, 389)
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


def cold_time(N, ells, fn, repeat):
    """Best wall time of fn(space) over `repeat` rounds, each on a fresh
    space at N whose Hecke images at the l in ells are built untimed."""
    best = None
    for _ in range(repeat):
        space = modsym.ModularSymbolSpace(N)
        for ell in ells:
            space.hecke_images(ell)
        t0 = time.perf_counter()
        fn(space)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def prefix_loop(space, targets):
    """`examples.symbol_pair`'s solves: each prefix of targets on both
    signs, an eigenspace that is not a line included."""
    for k in range(1, len(targets) + 1):
        for sign in (1, -1):
            try:
                modsym.eigen_functional(space, targets[:k], sign)
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
          f"{'T2,3,5,7':>10} {'eigen+':>10} {'eigen-':>10} {'repeat':>8} {'/build':>7} "
          f"{'peak':>9}")
    for N in LEVELS:
        space = modsym.ModularSymbolSpace(N)
        tp = best_time(lambda: modsym.P1List(N), args.repeat)
        tb = best_time(lambda: modsym.ModularSymbolSpace(N), args.repeat)
        th = min(hecke_on_fresh_space(N) for _ in range(args.repeat))
        eigen, repeat, ratio = ["-", "-"], "-", "-"
        if N in TARGETS:
            target = [TARGETS[N]]
            te = [cold_time(N, [target[0][0]],
                            lambda sp: modsym.eigen_functional(sp, target, sign), args.repeat)
                  for sign in (1, -1)]
            modsym.eigen_functional(space, target, 1)
            tr = best_time(lambda: modsym.eigen_functional(space, target, 1), args.repeat)
            eigen, ratio = [f"{t * 1e3:.1f}ms" for t in te], f"{(th + sum(te)) / tb:.2f}"
            repeat = f"{tr * 1e6:.1f}us"
        print(f"{N:>5} {len(space.p1):>6} {space.dim:>5} "
              f"{tp * 1e3:>8.2f}ms {tb * 1e3:>8.1f}ms "
              f"{th * 1e3:>8.1f}ms {eigen[0]:>10} {eigen[1]:>10} {repeat:>8} {ratio:>7} "
              f"{peak_mb(N):>7.2f}MB")

    print()
    for N in CUSPIDAL:
        space = modsym.ModularSymbolSpace(N)
        t2 = space.hecke_images(2)
        tr = best_time(lambda: space.restrict_to_cuspidal(t2), args.repeat)
        print(f"restrict_to_cuspidal(T2) N={N:<4} "
              f"(cuspidal dim {space.cuspidal_dimension():>3}) {tr * 1e3:>8.2f}ms")
    K = NumberField((-5, 0, 1))
    a2 = K.one() * Fraction(-1, 2) + K.gen() * Fraction(-1, 2)
    tf = cold_time(23, [2], lambda sp: modsym.eigen_functional(sp, [(2, a2)], +1),
                   args.repeat)
    space = modsym.ModularSymbolSpace(23)
    modsym.eigen_functional(space, [(2, a2)], +1)
    tr = best_time(lambda: modsym.eigen_functional(space, [(2, a2)], +1), args.repeat)
    print(f"eigen_functional 23.2.a over Q(sqrt5)            {tf * 1e3:>8.2f}ms "
          f"repeat {tr * 1e6:>6.1f}us")
    N, targets = MULTI
    ells = [ell for ell, _ in targets]
    space = modsym.ModularSymbolSpace(N)
    for sign in (1, -1):
        tm = cold_time(N, ells, lambda sp: modsym.eigen_functional(sp, targets, sign),
                       args.repeat)
        modsym.eigen_functional(space, targets, sign)
        tr = best_time(lambda: modsym.eigen_functional(space, targets, sign), args.repeat)
        print(f"eigen_functional {N} {targets} sign {sign:+d} {tm * 1e3:>8.2f}ms "
              f"repeat {tr * 1e6:>6.1f}us")
    tl = cold_time(N, ells, lambda sp: prefix_loop(sp, targets), args.repeat)
    print(f"prefixes [:1], [:2], [:3] of those, both signs   {tl * 1e3:>8.2f}ms")

    print()
    for n in MEREL:
        tm = best_time(lambda: modsym.merel_matrices(n), args.repeat)
        print(f"merel_matrices({n:>3}) {len(modsym.merel_matrices(n)):>6} matrices {tm * 1e3:>8.2f}ms")
    for sign in (1, -1):
        phi = modsym.eigen_functional(space, targets, sign)
        tr = best_time(lambda: [phi.eigenvalue(ell) for ell in READ], args.repeat)
        print(f"eigenvalue at {N} sign {sign:+d}, l in {READ} {tr * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
