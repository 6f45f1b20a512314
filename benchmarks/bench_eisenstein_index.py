"""Mazur's Eisenstein-ideal index at every prime level below 1,000.

Usage: python benchmarks/bench_eisenstein_index.py

For every prime N < 1,000 it builds `iwrank.modsym.ModularSymbolSpace(N)`
and reads, through `tests/reference.eisenstein_indices`, the index
[C : I'C] of the integral cuspidal symbols C (the saturated kernel of
`boundary_data` in Z^dim) under I', spanned by the T_l - 1 - l for the
primes l < 20 with l != N (`hecke_images`), and the same index on the
plus and minus quotients (1 + star)C and (1 - star)C (`star_images`).
Mazur (Publ. Math. IHES 47, 1977, ch. II) gives n^2, n and n, with
n = num((N - 1)/12); `tests/test_modsym.py` asserts it below 200.

Z^dim is the lattice of the Manin symbols only when the quotient's `den`
is 1, so `den` is checked at every level (it is known to be 1 only up to
400), and a level with den > 1 is reported, not read in another lattice.
It prints the levels, those with den > 1, every mismatch, the slowest
level and the wall time, and exits 1 on a mismatch or a den > 1.
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from iwrank.arith import is_prime  # noqa: E402
from iwrank.modsym import ModularSymbolSpace  # noqa: E402
from reference import eisenstein_indices  # noqa: E402

BOUND = 1000
ELLS = [l for l in range(2, 20) if is_prime(l)]


def main():
    mismatches, big_den, slowest = [], [], (0.0, None)
    levels = [N for N in range(2, BOUND) if is_prime(N)]
    t0 = time.perf_counter()
    for N in levels:
        t = time.perf_counter()
        space = ModularSymbolSpace(N)
        if space.den != 1:
            big_den.append((N, space.den))
            continue
        got = eisenstein_indices(space, [l for l in ELLS if l != N])
        n = Fraction(N - 1, 12).numerator
        if got != (n * n, n, n):
            mismatches.append((N, f"indices {got}, expected {(n * n, n, n)}"))
        slowest = max(slowest, (time.perf_counter() - t, N))
    dt = time.perf_counter() - t0
    print(f"prime levels N < {BOUND}: {len(levels)}, l in {ELLS} (l != N)")
    print(f"levels with den > 1: {big_den or 'none'}")
    print(f"slowest level: N = {slowest[1]}, {slowest[0]:.1f}s")
    print(f"wall time: {dt:.1f}s")
    print(f"mismatches: {len(mismatches)}")
    for N, why in mismatches:
        print(f"  N = {N}: {why}")
    return 1 if mismatches or big_den else 0


if __name__ == "__main__":
    sys.exit(main())
