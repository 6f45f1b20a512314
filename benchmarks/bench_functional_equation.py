"""Functional-equation oracle over the full twist range: root-number
parity on branch 0 and the j <-> -j symmetry of branch records.

Usage: python benchmarks/bench_functional_equation.py

Runs `padic-l` in process for 11.2.a.a, 19.2.a.a and 52.2.a.a (root
number w(f) = +1 each), untwisted (d = 1) and twisted by quad(d) for
every fundamental discriminant d prime to Np, by the rules of
`tests/test_cli.py::test_padic_l_quadratic_twists_keep_the_functional_equation`:

- parity, at p in {5, 7, 13, 17, ..., 43} with |d| < 200, on branch
  p - 1 (= 0) alone: (-1)^lambda = w(f x chi_d) = chi_d(-N), times -1 at
  an exceptional zero (p | N and a_p(f x chi_d) = chi_d(p) a_p(f) = 1);
- symmetry, at p in {7, 13, 17, 19, 23} with |d| < 80, on every branch:
  branches j and p - 1 - j have one (mu, lambda).

A command that exits 2 is a refusal and is not checked: the refusals
are counted by their error message, "no unit root" (not ordinary),
"product of series" (ROADMAP item 22) or any other.  It prints the
records checked, the records that printed no lambda, the pairs, the
refusals, every mismatch and the wall time of each half, and exits 1 on
a mismatch.
"""

import io
import json
import os
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr
from math import gcd

from iwrank import cli
from iwrank.characters import kronecker
from iwrank.newforms import bundled

FORMS = (("11.2.a.a", 11), ("19.2.a.a", 19), ("52.2.a.a", 52))
PARITY_PRIMES = (5, 7, 13, 17, 19, 23, 29, 31, 37, 41, 43)
PARITY_BOUND = 200
SYMMETRY_PRIMES = (7, 13, 17, 19, 23)
SYMMETRY_BOUND = 80


def fundamental(d):
    """d is a fundamental discriminant other than 1."""
    m = d // 4 if d % 4 == 0 else d
    if d == 1 or d % 4 not in (0, 1) or d % 4 == 0 and m % 4 not in (2, 3):
        return False
    return all(m % (q * q) for q in range(2, abs(m) + 1) if q * q <= abs(m))


def twists(N, p, bound):
    """1 (untwisted), then every fundamental |d| < bound prime to Np."""
    return [1] + [d for d in range(1 - bound, bound)
                  if fundamental(d) and gcd(d, N * p) == 1]


REASONS = ("no unit root", "product of series")


def run(label, p, d, out, refused, branches=None):
    """{j: (mu, lambda)} of one `padic-l` command, or None when it exits 2,
    with the refusal counted in `refused` by its reason."""
    argv = ["padic-l", "--newform", label, "--prime", str(p), "--out", out]
    if d != 1:
        argv += ["--char", f"quad{d}"]
    if branches is not None:
        argv += ["--branches", branches]
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main(argv)
    if code == 2:
        refused[next((r for r in REASONS if r in err.getvalue()), "other")] += 1
        return None
    if code != 0:
        raise SystemExit(f"padic-l {label} at {p}, d = {d} exited {code}: {err.getvalue()}")
    with open(out) as fh:
        return {r["j"]: (r["mu"], r["lambda"]) for r in map(json.loads, fh)}


def parity(out, mismatches, refused):
    records = no_lambda = 0
    for label, N in FORMS:
        a = bundled(label).a
        for p in PARITY_PRIMES:
            for d in twists(N, p, PARITY_BOUND):
                recs = run(label, p, d, out, refused, f"{p - 1}..{p - 1}")
                if recs is None:
                    continue
                lam = recs[0][1]
                if lam is None:
                    no_lambda += 1
                    continue
                records += 1
                exceptional = N % p == 0 and kronecker(d, p) * a(p) == 1
                sign = kronecker(d, -N) * (-1 if exceptional else 1)
                if (-1) ** lam != sign:
                    mismatches.append(("parity", label, p, d, 0, lam, sign))
    return records, no_lambda


def symmetry(out, mismatches, refused):
    pairs = 0
    for label, N in FORMS:
        for p in SYMMETRY_PRIMES:
            for d in twists(N, p, SYMMETRY_BOUND):
                recs = run(label, p, d, out, refused)
                if recs is None:
                    continue
                for j in range(1, (p - 1) // 2):
                    pairs += 1
                    if recs[j] != recs[p - 1 - j]:
                        mismatches.append(("symmetry", label, p, d, j, recs[j],
                                           recs[p - 1 - j]))
    return pairs


def main():
    mismatches = []
    refused_p, refused_s = Counter(), Counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.jsonl")
        t0 = time.perf_counter()
        records, no_lambda = parity(out, mismatches, refused_p)
        t1 = time.perf_counter()
        pairs = symmetry(out, mismatches, refused_s)
        t2 = time.perf_counter()
    print(f"parity: primes {PARITY_PRIMES}, |d| < {PARITY_BOUND}: "
          f"{records} records checked, {no_lambda} without lambda, "
          f"refused {dict(refused_p)}, {t1 - t0:.1f}s")
    print(f"symmetry: primes {SYMMETRY_PRIMES}, |d| < {SYMMETRY_BOUND}: "
          f"{pairs} pairs, refused {dict(refused_s)}, {t2 - t1:.1f}s")
    print(f"mismatches: {len(mismatches)}")
    for m in mismatches:
        print("  ", *m)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
