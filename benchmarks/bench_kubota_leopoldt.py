"""Kubota-Leopoldt oracle over every prime below 500: the branch series of
the Bernoulli distribution against the irregular-prime table.

Usage: python benchmarks/bench_kubota_leopoldt.py

For every prime 5 <= p < 500 it builds the ball masses
`tests/reference.b1_balls(p, 1, 4)` (the Bernoulli distribution
E_1(a + p^2 Z_p) = B_1({a/p^2}), with no level and no alpha) once,
projects them with one `padic_l.branch_series` call at wild level 1
mod p^4 onto branch j = 1 - k mod p - 1 for each even k in [2, p - 3],
the Kubota-Leopoldt series of omega^k, and checks each by the rules of
`tests/test_padic_l.py::test_kubota_leopoldt_branches_read_the_irregular_primes`:

- mu = 0 (Ferrero-Washington);
- lambda = 0 when p does not divide B_k (Kummer);
- when it does, (p, k) is an irregular pair, and lambda = 1 exactly when
  B_k/k and B_(k+p-1)/(k+p-1) differ mod p^2, lambda >= 2 otherwise
  (Washington, GTM 83, ch. 5 and 7).

The Bernoulli numbers are exact (`qseries.bernoulli_number`).  It prints
each irregular pair with its lambda, the number of cases, every mismatch
and the wall time, and exits 1 on a mismatch or when the irregular pairs
below 160 are not the nine of the published table: (37, 32), (59, 44),
(67, 58), (101, 68), (103, 24), (131, 22), (149, 130), (157, 62) and
(157, 110).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from iwrank.arith import is_prime  # noqa: E402
from iwrank.padic_l import branch_series  # noqa: E402
from iwrank.padics import padic_valuation  # noqa: E402
from iwrank.qseries import bernoulli_number  # noqa: E402
from reference import b1_balls  # noqa: E402

BOUND = 500
M = 4
# the irregular pairs (p, k) with p < 160 (Buhler, Crandall, Ernvall,
# Metsankyla and Shokrollahi, J. Symbolic Comput. 31, 2001)
TABLE_160 = [(37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22),
             (149, 130), (157, 62), (157, 110)]


def check_prime(p, irregular, mismatches):
    """Check every even k in [2, p - 3] at p; the number of cases."""
    ks = range(2, p - 2, 2)
    bss = branch_series(b1_balls(p, 1, M), p, [1 - k for k in ks], M)
    for k in ks:
        mu, lam = bss[1 - k].invariants
        b_k = bernoulli_number(k) / k
        if b_k.numerator % p:
            ok = mu == 0 and lam == 0
        else:
            irregular.append((p, k, lam))
            gap = padic_valuation(b_k - bernoulli_number(k + p - 1) / (k + p - 1), p)
            ok = mu == 0 and ((lam == 1) if gap == 1 else (lam >= 2))
        if not ok:
            mismatches.append((p, k, mu, lam))
    return len(ks)


def main():
    irregular, mismatches = [], []
    t0 = time.perf_counter()
    cases = sum(check_prime(p, irregular, mismatches)
                for p in range(5, BOUND) if is_prime(p))
    dt = time.perf_counter() - t0
    print(f"irregular pairs (p, k, lambda), p < {BOUND}: {len(irregular)}")
    for pair in irregular:
        print("  ", *pair)
    below = [(p, k) for p, k, _ in irregular if p < 160]
    if below != TABLE_160:
        mismatches.append(("irregular pairs below 160", below))
    print(f"cases: {cases}, {dt:.1f}s")
    print(f"mismatches: {len(mismatches)}")
    for m in mismatches:
        print("  ", *m)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
