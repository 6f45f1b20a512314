"""The workloads: job lists made from a seed, the program call each job
makes, and the check of its output against the golden references.

Every workload hands out its jobs in blocks.  A block is a fixed mix of
the workload's inputs in an order (and, for `gauss`, a choice within
each cost stratum) set by the seed.  A timed run is a whole number of
blocks, worked out from --seconds and the block's time on the reference
machine (BLOCK_SECONDS), so every run of a seed does the same jobs and
every seed the same mix of cheap and expensive ones.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

# --- verify: the three bundled verification runs ------------------------

VERIFY_NUMBERS = (1, 2, 3)
# A block is this many shuffled rounds of the three runs (about 8 s).
VERIFY_ROUNDS = 4

# M > 14 crashes today (ROADMAP item 3).  It is run once per `verify` run,
# outside the timing, so the defect stays visible.
KNOWN_DEFECT = ("padic-l-precision-16",
                ["padic-l", "--newform", "52.2.a.a", "--prime", "5",
                 "--precision", "16,25"])


# --- gauss: Gauss-sum identities over cyclotomic fields -----------------

GAUSS_MODULI = range(31, 61)
FACTOR_MODULI = (3, 4, 5, 7, 8, 9, 11, 13)
# Characters are ranked by the degree of the field their Gauss sums live
# in, phi(lcm(modulus, order)), and cut into strata.  A block takes this
# many characters from each stratum (about 8 s of work).  Single
# characters take 1 ms to 0.5 s, too short and too uneven to time
# steadily, so a job checks a batch: one character from each of
# GAUSS_BATCH cost bands.  One more job per block checks a few
# factorisation pairs.
GAUSS_STRATA = 20
GAUSS_PER_STRATUM = 7
GAUSS_BATCH = 4
GAUSS_PAIRS = 4


def _strata(items, key, count):
    """Split items, sorted by cost key, into `count` near-equal runs."""
    ranked = sorted(items, key=key)
    return [ranked[i * len(ranked) // count:(i + 1) * len(ranked) // count]
            for i in range(count)]


class _StratumQueues:
    """One seed-shuffled queue per stratum; a block takes the same number
    of items from the head of each."""

    def __init__(self, strata, rng):
        self.strata = strata
        self.rng = rng
        self.queues = [[] for _ in strata]

    def take(self, per_stratum=1):
        out = []
        for stratum, queue in zip(self.strata, self.queues):
            for _ in range(per_stratum):
                if not queue:
                    queue.extend(stratum)
                    self.rng.shuffle(queue)
                out.append(queue.pop())
        return out


# Time of one block on the reference machine (2 vCPUs, Python 3.11, pure
# kernel); only used to turn --seconds into a block count.
BLOCK_SECONDS = {"verify": 8.0, "gauss": 8.5}


def block_count(workload, seconds):
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def blocks(workload, seed):
    """Endless iterator of job blocks for a workload; the same seed gives
    the same jobs in the same order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        while True:
            block = []
            for _ in range(VERIFY_ROUNDS):
                one = [("verify", n) for n in VERIFY_NUMBERS]
                rng.shuffle(one)
                block += one
            yield block
    elif workload == "gauss":
        pool = load_gauss_pool()
        q = _StratumQueues(_strata(pool["characters"],
                                   lambda c: (c["degree"], c["descriptor"]),
                                   GAUSS_STRATA), rng)
        pairs = _StratumQueues([pool["pairs"]], rng)
        while True:
            chars = [c["descriptor"] for c in q.take(GAUSS_PER_STRATUM)]
            bands = [chars[i * len(chars) // GAUSS_BATCH:
                           (i + 1) * len(chars) // GAUSS_BATCH]
                     for i in range(GAUSS_BATCH)]
            for band in bands:
                rng.shuffle(band)
            block = [("gauss", batch) for batch in zip(*bands)]
            block.append(("gauss-pairs",
                          tuple(tuple(p) for p in pairs.take(GAUSS_PAIRS))))
            rng.shuffle(block)
            yield block
    else:
        raise ValueError(f"unknown workload {workload!r}")


def load_gauss_pool():
    with open(REFS / "gauss_pool.json") as fh:
        return json.load(fh)


# --- set-up --------------------------------------------------------------


def prepare(mods):
    """Set-up after the import: load and validate the bundled newforms."""
    for label in mods["newforms"].bundled_labels():
        mods["newforms"].bundled(label)


# --- one job ---------------------------------------------------------------


def execute(job, mods, jobdir):
    """Run one job through the public API; returns its output as bytes."""
    kind, arg = job
    if kind == "verify":
        out = os.path.join(jobdir, "report.jsonl")
        rc = mods["cli"].main(["verify-example", str(arg), "--out", out])
        with open(out, "rb") as fh:
            return b"exit %d\n" % rc + fh.read()
    parse = mods["characters"].parse_descriptor
    out = []
    if kind == "gauss":
        for desc in arg:
            chi = parse(desc)
            out.append(repr(chi.gauss_sum() * chi.conjugate().gauss_sum()))
    else:
        # g(chi psi) = chi(q) psi(m) g(chi) g(psi) for coprime moduli m, q
        for a, b in arg:
            chi, psi = parse(a), parse(b)
            lhs = (chi * psi).gauss_sum()
            rhs = (chi(psi.modulus) * psi(chi.modulus)
                   * chi.gauss_sum() * psi.gauss_sum())
            out.append(str(lhs == rhs))
    return ";".join(out).encode()


# --- checks ------------------------------------------------------------------


class References:
    """Golden outputs recorded from the reference commit."""

    def __init__(self):
        self._reports = {}
        with open(REFS / "exit_codes.json") as fh:
            self._codes = json.load(fh)
        pool = load_gauss_pool()
        self._gauss = {c["descriptor"]: c["expected"] for c in pool["characters"]}

    def expected(self, job):
        kind, arg = job
        if kind == "verify":
            key = f"{kind}/{arg}"
            if key not in self._reports:
                with open(REFS / f"{key}.jsonl", "rb") as fh:
                    self._reports[key] = b"exit %d\n" % self._codes[key] + fh.read()
            return self._reports[key]
        if kind == "gauss":
            return ";".join(self._gauss[d] for d in arg).encode()
        return ";".join("True" for _ in arg).encode()
