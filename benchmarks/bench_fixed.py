"""Fixed costs of a `verify` round, timed in process.

Usage: python benchmarks/bench_fixed.py

Prints best and median wall time (ms) of: loading each bundled newform
and building the CLI parser, both cold (through `__wrapped__`, past the
caches that serve every later call in a process), the residual
Eisenstein partner and its check (`examples.eisenstein_partner`, which
keeps nothing) plus the Mazur series through the same Sturm bound, for
each bundled example, and `verify-example 1`, `2`, `3` and the round of
all three, each cold and kept side by side.  Cold drops the kept
bundled runs (`examples.kept_example`) before each call; kept keeps
them, so a call builds only its report.  Both read the forms and the
parser from their caches.
"""

import os
import shutil
import statistics
import tempfile
import time

from iwrank import cli
from iwrank.examples import EXAMPLES, eisenstein_partner, kept_example
from iwrank.newforms import bundled, bundled_labels
from iwrank.qseries import mazur_eisenstein

REPEAT = 50


def timings(fn, before=None):
    """Wall times (ms) of REPEAT calls of fn after one to warm up, each
    after a call of `before` (untimed) if given."""
    fn()
    times = []
    for _ in range(REPEAT):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def report(name, *runs):
    print(f"{name:<34}" + "".join(f" {min(t):8.3f} {statistics.median(t):8.3f}"
                                  for t in runs))


def drop_kept():
    kept_example.cache_clear()


def eisenstein_side(cfg):
    h, p = bundled(cfg["h"]), cfg["p"]

    def run():
        # the ideal is built inside the timed call, as each run builds it
        bound = eisenstein_partner(h, p, h.congruence_ideal(p))[0]
        return mazur_eisenstein(cfg["mazur_t"], bound)
    return run


def main():
    print(f"{'ms':<34} {'best':>8} {'median':>8}")
    for label in bundled_labels():
        report(f"bundled({label}), cold", timings(lambda: bundled.__wrapped__(label)))
    columns = shutil.get_terminal_size().columns
    report("cli._build_parser(columns), cold",
           timings(lambda: cli._build_parser.__wrapped__(columns)))
    for number, cfg in sorted(EXAMPLES.items()):
        report(f"partner + mazur, example {number}", timings(eisenstein_side(cfg)))
    print(f"{'ms, cold then kept':<34} {'best':>8} {'median':>8} {'best':>8} {'median':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.jsonl")
        for numbers in ((1,), (2,), (3,), (1, 2, 3)):
            def run():
                for n in numbers:
                    cli.main(["verify-example", str(n), "--out", out])
            report(f"verify-example {'..'.join(map(str, numbers[::2]))}",
                   timings(run, drop_kept), timings(run))


if __name__ == "__main__":
    main()
