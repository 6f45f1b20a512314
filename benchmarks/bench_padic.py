"""p-adic series microbenchmark: branch series at growing wild level.

Usage: python benchmarks/bench_padic.py [--repeat N]

For each series length D = 5^n it times one `padic-l --newform 11.2.a.a
--prime 5 --precision 8,D` run in-process (alpha, the symbol pair and
its rows, the four branch series, their values at the trivial character
and the four product verdicts).  Nothing is kept between runs: each
builds its symbol space of level 11 anew, as every command does.  Then
it times cold `padic-l --newform 11.2.a.a --prime P` runs (D = P) at
P = 101 and 401, every cached table of `padic_l` dropped before each
round, and `padic_l.branch_family` alone at each D = 5^n, with a sigma0
factor at 2, on one pair whose rows the first round builds.  At the
largest D it reports, by `tracemalloc`, the peak memory of one `padic-l`
run and the memory still held after it, and times reading (mu, lambda)
off the group masses of the branch-2 series.  It times `verify-example 2` cold
(the kept bundled runs dropped before each round) and with its run
kept.  It times `verify-example 1`'s symbol, which each call builds on
a new space: `examples.symbol_pair` of 11.2.a.a, `twist_symbol` by
quad(-23) at 11 and its rows at 11^2 on both signs.  Last it times the
symbol rows of both signs as the symbol measure reads them
(`padic_l.symbol_measure`): at 5^(n+1), and 5^n as a slice of it, for
11.2.a.a and for 52.2.a.a (a composite level); at 3^8 and 3^7 for
19.2.a.a; at 11^(n+1) alone for the twist of 11.2.a.a by quad(-23), as
11 divides the twist's level, with the twist itself (its scales
included) built inside the timing.  Each figure is the best of
`--repeat` rounds.

The host's speed drifts between runs, so between figures it times the
calibration piece of `perfbench/run.py` (`time_calibration`), and prints
every figure at the speed where that piece takes `CALIBRATION_REF_S`,
after the calibration median and the scale, with the figure as measured
in brackets.
"""

import argparse
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from iwrank import cli
from iwrank import padic_l as padic_l_module
from iwrank.characters import DirichletCharacter
from iwrank.examples import kept_example, symbol_pair
from iwrank.iwasawa import mass_mu_lambda
from iwrank.modsym import (ModularSymbolSpace, SymbolPair, TwistedSymbol, eigen_functional,
                           twist_symbol)
from iwrank.newforms import bundled
from iwrank.padic_l import branch_family, branch_series, symbol_measure

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import CALIBRATION_REF_S, time_calibration  # noqa: E402

# wild levels n; the series length is D = 5^n
LEVELS = (2, 3, 4, 5, 6)
# wild levels of the twisted rows of verify-example 1 (p = 11)
TWIST_LEVELS = (1, 2)
M = 8
# the sigma0 factor of the timed `branch_family` calls
SIGMA0 = ((2, (1, 2, 2)),)
# primes of the cold `padic-l` runs, where the p - 1 projections dominate
LARGE_PRIMES = (101, 401)
# calibration pieces timed after each figure
CALIBRATIONS_PER_FIGURE = 3


def best_time(fn, repeat, before=None):
    """Best wall time of one call over `repeat` rounds, each after a call
    of `before` (untimed) if given."""
    best = None
    for _ in range(repeat):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def fresh_pair(N, targets):
    """A fresh symbol pair on a fresh space at level N: nothing evaluated,
    nothing cached."""
    space = ModularSymbolSpace(N)
    return SymbolPair(*(eigen_functional(space, targets, sign)
                        for sign in (1, -1)), N)


def pair11():
    return fresh_pair(11, [(2, -2)])


def pair19():
    return fresh_pair(19, [(2, 0)])


def pair52():
    return fresh_pair(52, [(5, 2)])


def read_rows(sym, p, n):
    """Both signs of the rows `padic_l.symbol_measure` reads at p and wild
    level n: at p^(n+1), and at p^n unless p divides the level."""
    for sign in (1, -1):
        sym.evaluate_row(p ** (n + 1), sign)
        if sym.level % p:
            sym.evaluate_row(p**n, sign)


def rows_time(make, p, n, repeat, chi=None):
    """Best time, over `repeat` fresh symbols from `make`, of reading both
    signs of the rows a branch series at p and wild level n sums.  With a
    character chi, the fresh pair is twisted by chi inside the timing
    (scales on the row at p, as `verify-example 1` does) and the twist's
    rows are read."""
    best = None
    for _ in range(repeat):
        sym = make()
        t0 = time.perf_counter()
        if chi is not None:
            sym = TwistedSymbol(sym, chi, p)
        read_rows(sym, p, n)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def padic_l(D):
    argv = ["padic-l", "--newform", "11.2.a.a", "--prime", "5",
            "--precision", f"{M},{D}", "--out", os.devnull]
    if cli.main(argv) != 0:
        raise SystemExit(f"padic-l at D = {D} failed")


def padic_l_at(p):
    argv = ["padic-l", "--newform", "11.2.a.a", "--prime", str(p), "--out", os.devnull]
    if cli.main(argv) != 0:
        raise SystemExit(f"padic-l at p = {p} failed")


def drop_padic_tables():
    """Drop every cached table of `padic_l` (the balls by tame and wild
    coordinate), so a run builds them as the first run of a process."""
    for fn in vars(padic_l_module).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def verify2():
    # exits 1: the contract's three level-52 claims fail, as recorded
    cli.main(["verify-example", "2", "--out", os.devnull])


def drop_kept():
    """Drop the kept bundled runs."""
    kept_example.cache_clear()


def example1_symbol():
    """`verify-example 1`'s symbol: the pair of 11.2.a.a twisted by
    quad(-23), its scales at 11, and its rows at 11^2 on both signs."""
    sym = twist_symbol(symbol_pair(bundled("11.2.a.a")),
                       DirichletCharacter.quadratic_by_discriminant(-23), 11,
                       label="11.2.a.ax-23")
    read_rows(sym, 11, 1)


class Report:
    """Lines of figures, printed at the end at the reference host speed:
    each figure in seconds fills a "{}" of its line, and calibration
    pieces are timed after it."""

    def __init__(self):
        self.lines = []
        self.calibrations = [time_calibration()]

    def line(self, text, *seconds):
        self.lines.append((text, seconds))
        for _ in range(CALIBRATIONS_PER_FIGURE if seconds else 0):
            self.calibrations.append(time_calibration())

    def print(self):
        median = statistics.median(self.calibrations)
        scale = CALIBRATION_REF_S / median
        print(f"host speed: calibration median {median:.5f} s over "
              f"{len(self.calibrations)} pieces, reference {CALIBRATION_REF_S} s, "
              f"times scaled by {scale:.4f} (as measured in brackets)")
        for text, seconds in self.lines:
            print(text.format(*(f"{t * scale * 1e3:.2f}ms ({t * 1e3:.2f})"
                                for t in seconds)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing rounds per figure (the best is kept)")
    args = ap.parse_args()
    report = Report()

    report.line(f"padic-l: {'D':>5} {'time':>10}")
    for n in LEVELS:
        t = best_time(lambda: padic_l(5**n), args.repeat)
        report.line(f"         {5**n:>5} {{}}", t)

    report.line(f"padic-l, cold: {'p':>5} {'time':>10}")
    for p in LARGE_PRIMES:
        t = best_time(lambda: padic_l_at(p), args.repeat, drop_padic_tables)
        report.line(f"               {p:>5} {{}}", t)

    pair = symbol_pair(bundled("11.2.a.a"))
    report.line(f"branch_family, sigma0 at 2: {'D':>5} {'time':>10}")
    for n in LEVELS:
        t = best_time(lambda: branch_family(pair, 1, 5, n, M, SIGMA0), args.repeat)
        report.line(f"                            {5**n:>5} {{}}", t)

    n = LEVELS[-1]
    tracemalloc.start()
    padic_l(5**n)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    report.line(f"D = {5**n}: padic-l peaks at {peak / 2**20:.2f} MiB traced and "
                f"holds {held / 2**20:.2f} MiB after it")

    sym = pair11()
    # a_5 of 11.2.a.a is 1; branch 2 projects the plus balls, the first yielded
    bs = branch_series(next(symbol_measure(sym, 1, 5, n, M))[2], 5, [2], M)[2]
    ti = best_time(lambda: mass_mu_lambda(5, bs.shift, bs.masses), args.repeat)
    report.line(f"D = {5**n}: (mu, lambda) = {bs.invariants} off the masses in {{}}", ti)

    verify2()
    cold = best_time(verify2, args.repeat, drop_kept)
    kept = best_time(verify2, args.repeat)
    report.line("verify-example 2: {} cold, {} with its run kept", cold, kept)

    t = best_time(example1_symbol, args.repeat)
    report.line("verify-example 1 symbol (11.2.a.a x quad(-23), rows at 121): {}", t)

    report.line("symbol rows (both signs)")
    for make, label in ((pair11, "11.2.a.a"), (pair52, "52.2.a.a")):
        for n in LEVELS:
            t = rows_time(make, 5, n, args.repeat)
            report.line(f"  {label} at {5**(n + 1)}, {5**n}: {{}}", t)
    t = rows_time(pair19, 3, 7, args.repeat)
    report.line(f"  19.2.a.a at {3**8}, {3**7}: {{}}", t)
    chi = DirichletCharacter.quadratic_by_discriminant(-23)
    for n in TWIST_LEVELS:
        t = rows_time(pair11, 11, n, args.repeat, chi)
        report.line(f"  11.2.a.a x quad(-23) at {11**(n + 1)}: {{}}", t)
    report.print()


if __name__ == "__main__":
    main()
