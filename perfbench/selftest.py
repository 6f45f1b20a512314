"""Self-tests of the benchmark harness.

Usage: python3 perfbench/selftest.py

Kept out of the repository's pytest suite on purpose (the file name
does not match test_*.py): it runs real jobs and takes about 15 s.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def first_jobs(workload, seed, nblocks=4):
    return [job for block in itertools.islice(workloads.blocks(workload, seed), nblocks)
            for job in block]


def snapshot(mods):
    """Every attribute of every iwrank module and of the classes they define."""
    out = {}
    for mod in mods.values():
        out[(mod.__name__,)] = dict(vars(mod))
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                out[(mod.__name__, obj.__qualname__)] = dict(vars(obj))
    return out


class JobLists(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for w in run.WORKLOADS:
            self.assertEqual(first_jobs(w, 7), first_jobs(w, 7), w)

    def test_different_seeds_differ(self):
        for w in run.WORKLOADS:
            self.assertNotEqual(first_jobs(w, 7), first_jobs(w, 8), w)

    def test_blocks_keep_the_mix(self):
        # every verify block runs each example equally often
        for block in itertools.islice(workloads.blocks("verify", 3), 3):
            counts = collections.Counter(arg for _, arg in block)
            self.assertEqual(counts, {n: workloads.VERIFY_ROUNDS
                                      for n in workloads.VERIFY_NUMBERS})


class References(unittest.TestCase):
    def test_every_menu_entry_has_a_reference(self):
        refs = workloads.References()
        jobs = [("verify", n) for n in workloads.VERIFY_NUMBERS]
        jobs += [("gauss", (c["descriptor"],))
                 for c in workloads.load_gauss_pool()["characters"]]
        for job in jobs:
            self.assertTrue(refs.expected(job), job)

    def test_verify_2_reference_keeps_the_level_52_failures(self):
        ref = workloads.References().expected(("verify", 2)).decode()
        self.assertTrue(ref.startswith("exit 1\n"))
        fails = [json.loads(line) for line in ref.splitlines()[1:]
                 if '"status": "fail"' in line]
        self.assertEqual([r["check_id"] for r in fails],
                         ["ex2.series.j2.invariants", "ex2.verdict.j1",
                          "ex2.verdict.j2"])


class Tracing(unittest.TestCase):
    def setUp(self):
        self.work = Path(tempfile.mkdtemp(prefix="perfbench-selftest-", dir=run.ROOT))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_restore_puts_every_original_back(self):
        mods = run.import_iwrank()
        before = snapshot(mods)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # the wrap reaches the name where callers look it up
            self.assertIsNot(mods["modsym"].rref, before[("iwrank.modsym",)]["rref"])
            self.assertIs(mods["modsym"].rref, mods["linalg"].rref)
            self.assertGreater(len(tracer.patched()), 100)
        finally:
            tracer.restore()
        after = snapshot(mods)
        self.assertEqual(before.keys(), after.keys())
        for key, attrs in before.items():
            self.assertEqual(attrs.keys(), after[key].keys(), key)
            for name, value in attrs.items():
                self.assertIs(after[key][name], value, (key, name))

    def test_traced_and_untraced_outputs_are_identical(self):
        refs = workloads.References()
        pool = workloads.load_gauss_pool()
        cheap = {
            "verify": [("verify", 3)],
            "gauss": [("gauss", (pool["characters"][0]["descriptor"],)),
                      ("gauss-pairs", (tuple(pool["pairs"][0]),))],
        }
        for w, jobs in cheap.items():
            outs = []
            for traced in (False, True):
                mods, _ = run.setup()
                tracer = tracing.Tracer() if traced else None
                if tracer:
                    tracer.install()
                try:
                    res = run.run_jobs([jobs], mods, refs, self.work,
                                       tracer=tracer)
                finally:
                    if tracer:
                        tracer.restore()
                self.assertEqual(res.failures, {}, w)
                outs.append(res.outputs)
            self.assertEqual(outs[0], outs[1], w)
            if tracer is not None:
                self.assertGreater(sum(s[0] for s in tracer.stats.values()), len(jobs))


class Output(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [name for name, _, _ in run.per_layer_spec()])
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = run.main(["--workload", "verify", "--seed", "1", "--seconds", "0"])
        self.assertEqual(rc, 0)
        result = json.loads(buf.getvalue().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        for m in spec["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_missing_program_is_an_error(self):
        saved = run.SRC
        run.SRC = run.ROOT / "perfbench-no-such-src"
        try:
            with self.assertRaises(run.MissingProgram):
                run.import_iwrank()
        finally:
            run.SRC = saved


if __name__ == "__main__":
    unittest.main()
