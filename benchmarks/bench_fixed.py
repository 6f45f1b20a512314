"""Fixed costs of a warm `verify` round, timed in process.

Usage: python benchmarks/bench_fixed.py

Prints best and median wall time (ms) of: loading each bundled newform
and building the CLI parser, both cold (through `__wrapped__`, past the
caches that serve every later call in a process), the residual
Eisenstein partner plus the Mazur series of each bundled example
(through the Sturm bound, as `verify` builds them), and one warm
`verify-example 1..3` round, which reads the forms and the parser from
those caches.
"""

import os
import shutil
import statistics
import tempfile
import time

from iwrank import cli
from iwrank.characters import DirichletCharacter
from iwrank.examples import EXAMPLES
from iwrank.newforms import bundled, bundled_labels, residual_eisenstein_partner
from iwrank.qseries import mazur_eisenstein, sturm_bound

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
    bound = sturm_bound(2, h.level)
    # the characters are built inside the timed call, as each run builds them
    return lambda: (residual_eisenstein_partner(
        p, DirichletCharacter.teichmuller(p), DirichletCharacter.trivial(1),
        h.level, 2, bound), mazur_eisenstein(cfg["mazur_t"], bound))


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
