"""Fixed costs of a warm `verify` round, timed in process.

Usage: python benchmarks/bench_fixed.py

Prints best and median wall time (ms) of: loading each bundled newform
and building the CLI parser, both cold (through `__wrapped__`, past the
caches that serve every later call in a process), the residual
Eisenstein partner and its check (`examples.eisenstein_partner`, the
function `verify` calls, built anew: the checks kept on the form are
dropped first) plus the Mazur series through the same Sturm bound, for
each bundled example, and one warm
`verify-example 1..3` round, which reads the forms and the parser from
those caches.
"""

import os
import shutil
import statistics
import tempfile
import time

from iwrank import cli
from iwrank.examples import EXAMPLES, eisenstein_partner
from iwrank.newforms import bundled, bundled_labels
from iwrank.qseries import mazur_eisenstein

REPEAT = 50


def report(name, fn):
    fn()  # warm up
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    print(f"{name:<34} {min(times):8.3f} {statistics.median(times):8.3f}")


def eisenstein_side(cfg):
    h, p = bundled(cfg["h"]), cfg["p"]

    def run():
        # the ideal is built inside the timed call, as each run builds it;
        # dropping the kept checks makes the call build the partner
        h._partners.clear()
        bound = eisenstein_partner(h, p, h.congruence_ideal(p))[0]
        return mazur_eisenstein(cfg["mazur_t"], bound)
    return run


def main():
    print(f"{'ms':<34} {'best':>8} {'median':>8}")
    for label in bundled_labels():
        report(f"bundled({label}), cold", lambda: bundled.__wrapped__(label))
    columns = shutil.get_terminal_size().columns
    report("cli._build_parser(columns), cold",
           lambda: cli._build_parser.__wrapped__(columns))
    for number, cfg in sorted(EXAMPLES.items()):
        report(f"partner + mazur, example {number}", eisenstein_side(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.jsonl")
        report("verify-example 1..3", lambda: [
            cli.main(["verify-example", str(n), "--out", out]) for n in (1, 2, 3)])


if __name__ == "__main__":
    main()
