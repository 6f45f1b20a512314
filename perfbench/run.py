"""End-to-end benchmark of iwrank.

Usage:
    python3 perfbench/run.py --workload {verify,gauss} \
        --seed N --seconds S --trace {0,1}

One process, one client, closed loop: each job starts when the previous
one has returned and its output has been checked against the golden
references in perfbench/refs.  The program is imported from ./src of
the checkout this file sits in.

--trace 0 times the jobs untraced and prints the end-to-end metrics,
with the times scaled to the reference host speed (see "host speed").
--trace 1 replays the same jobs three times, each after a fresh import:
untraced, with every public iwrank function wrapped in a span, and under
cProfile; it prints the per-layer metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a human
summary and a `provenance` record.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify", "gauss")
# set-up is short and noisy: time it this many times in a run, report the
# median
SETUP_REPEATS = 11
# In a traced run the untraced pass and the profiled replay each take
# this share of --seconds; the traced replay of the same jobs the rest.
TRACE_BASE_SHARE = 0.25
# An untraced run stops early, at a block boundary, past this multiple of
# --seconds.
GUARD = 3


class MissingProgram(RuntimeError):
    pass


def clean_environment():
    """$IWR_CACHE would silently turn symbol builds into cache reads."""
    os.environ.pop("IWR_CACHE", None)


def _is_iwrank(name):
    return name == "iwrank" or name.startswith("iwrank.")


def import_iwrank():
    """Import every iwrank layer afresh from ./src; returns layer -> module."""
    if not (SRC / "iwrank" / "__init__.py").is_file():
        raise MissingProgram(f"no iwrank sources under {SRC}")
    for name in [m for m in sys.modules if _is_iwrank(m)]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    mods = {layer: importlib.import_module(f"iwrank.{layer}")
            for layer in tracing.LAYERS}
    pkg = Path(sys.modules["iwrank"].__file__).resolve()
    if SRC not in pkg.parents:
        raise MissingProgram(f"imported iwrank from {pkg}, not from {SRC}")
    return mods


def setup():
    """Import iwrank and load the bundled newforms; returns (mods, seconds)."""
    # Do not bill the previous pass's garbage to this set-up, and let the
    # collector see only what the set-up makes, as in a fresh process:
    # otherwise whether a full collection over the jobs' heap falls into
    # the set-up decides its time.
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        mods = import_iwrank()
        workloads.prepare(mods)
        return mods, time.perf_counter() - t0
    finally:
        gc.unfreeze()


def shadow_setup():
    """Time one more set-up, then put back the modules the jobs are using
    (their lazy imports resolve through sys.modules)."""
    saved = {k: v for k, v in sys.modules.items() if _is_iwrank(k)}
    try:
        return setup()[1]
    finally:
        for k in [k for k in sys.modules if _is_iwrank(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


class Pass:
    """Jobs run by one pass, with their times and outputs."""

    def __init__(self):
        self.jobs = []
        self.times = []      # wall time of each job, failed ones included
        self.outputs = []
        self.failures = {}   # index of a failed job -> reason
        self.window = 0.0    # time in the loop, `between` calls excluded


def run_jobs(blocks, mods, refs, work, seconds=None, tracer=None,
             profiler=None, between=None):
    """Run blocks of jobs until they run out or, at the first block
    boundary after `seconds`, time is up; at least one block always runs.
    `between(i)` is called untimed after the i-th job."""
    res = Pass()
    jobdir = work / "job"
    start = time.perf_counter()
    paused = 0.0
    for block in blocks:
        for job in block:
            jobdir.mkdir()
            out = None
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    out = tracer.call("bench.job", workloads.execute, job, mods,
                                      str(jobdir))
                elif profiler is not None:
                    out = profiler.runcall(workloads.execute, job, mods,
                                           str(jobdir))
                else:
                    out = workloads.execute(job, mods, str(jobdir))
            except Exception as exc:  # a job that raises is a failed job
                res.failures[len(res.jobs)] = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            shutil.rmtree(jobdir)
            if out is not None and out != refs.expected(job):
                res.failures[len(res.jobs)] = "output differs from the reference"
            res.jobs.append(job)
            res.times.append(dt)
            res.outputs.append(out)
            if between is not None:
                t1 = time.perf_counter()
                between(len(res.jobs))
                paused += time.perf_counter() - t1
        if seconds is not None and time.perf_counter() - start - paused >= seconds:
            break
    res.window = time.perf_counter() - start - paused
    return res


# --- host speed ----------------------------------------------------------
#
# The reference machine is a 2-vCPU share of a busy host, and its speed
# drifts by up to 50 % over minutes: the same jobs of the same code took
# 35 s in one run and 50 s in a run a few minutes later, and a set-up or
# a loop of plain Python slows down by the same share.  A longer run does
# not average that out.  So every run also times a fixed piece of
# standard-library Python between its jobs, and the end-to-end times are
# reported at the speed where that piece takes CALIBRATION_REF_S.  The
# piece does not touch iwrank, so a change to the program moves the
# reported times exactly as much as it moves the measured ones.

# a round figure for the median time of calibration_piece() on the
# reference machine (0.019 to 0.027 s there)
CALIBRATION_REF_S = 0.025
# pieces timed in a run, spread evenly between its jobs (about 2 s)
CALIBRATIONS = 72


def calibration_piece():
    """Exact rational sums and an integer convolution, the two kinds of
    work iwrank spends its time on (Fraction bookkeeping and the pure
    Python kernel)."""
    acc = Fraction(0)
    for i in range(1, 1400):
        acc += Fraction(i % 7 + 1, i * i + 1)
    a = [(i * 7919) % 1009 - 500 for i in range(300)]
    b = [(i * 104729) % 1013 - 500 for i in range(300)]
    out = [0] * 600
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return acc, out


def time_calibration():
    """Seconds of one calibration piece; the collector is off, so the
    heap the jobs left behind does not change it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_piece()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def spread(njobs, count):
    """The job numbers after which to do `count` - 1 evenly spread things."""
    return {max(1, njobs * k // count) for k in range(1, count)}


def tail(times):
    """(value, percentile, samples beyond): the highest percentile that
    still has ten samples beyond it, or the maximum for ten or fewer."""
    ranked = sorted(times)
    n = len(ranked)
    if n <= 10:
        return ranked[-1], 100.0, 0
    return ranked[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- provenance -----------------------------------------------------------


def provenance(seed, mods):
    digest = hashlib.sha256()
    for path in sorted((SRC / "iwrank").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = "unknown"  # a checkout without .git is named by src_sha256
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "kernels_compiled": bool(mods["kernels"].COMPILED),
        "IWRANK_PURE": os.environ.get("IWRANK_PURE"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# --- end-to-end run -------------------------------------------------------


def end_to_end(args, refs, work):
    mods, dt = setup()
    setups = [dt]
    calibrations = [time_calibration()]
    # a fixed number of whole blocks, so the job mix of a run is set by the
    # seed alone; the time limit only guards against a much slower program
    nblocks = workloads.block_count(args.workload, args.seconds)
    blocks = list(itertools.islice(workloads.blocks(args.workload, args.seed), nblocks))
    njobs = sum(len(b) for b in blocks)
    # The host's speed drifts over seconds, so the other set-ups and the
    # calibration pieces are spread evenly through the run instead of
    # being timed back to back.
    setup_marks = spread(njobs, SETUP_REPEATS)
    calibration_marks = spread(njobs, CALIBRATIONS)

    def another_setup():
        setups.append(shadow_setup())

    def between_jobs(i):
        if i in calibration_marks:
            calibrations.append(time_calibration())
        if i in setup_marks:
            another_setup()

    res = run_jobs(blocks, mods, refs, work, seconds=GUARD * args.seconds,
                   between=between_jobs)
    while len(setups) < SETUP_REPEATS:  # marks collide when jobs are few
        another_setup()
    # measured seconds -> seconds at the reference host speed
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    ok_times = [t for i, t in enumerate(res.times) if i not in res.failures]
    nfail = len(res.jobs) - len(ok_times)
    if ok_times:
        tail_s, tail_pct, beyond = tail(ok_times)
        p50_s = statistics.median(ok_times)
    else:
        tail_s, tail_pct, beyond, p50_s = 0.0, 100.0, 0, 0.0
    setup_s = statistics.median(setups)
    per_s = len(ok_times) / res.window
    metrics = {
        "setup_s": (setup_s * scale, "s"),
        "job_s_p50": (p50_s * scale, "s"),
        "job_s_tail": (tail_s * scale, "s"),
        "jobs_per_s": (per_s / scale, "1/s"),
        "ok_frac": ((len(res.jobs) - nfail) / len(res.jobs), "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = [
        f"{args.workload}: {len(res.jobs)} jobs in {res.window:.2f} s, "
        f"{nfail} failed (fail_frac {nfail / len(res.jobs):.4f})",
        f"job_s_tail is p{tail_pct:.1f} of {len(ok_times)} successful "
        f"jobs ({beyond} beyond it); setup runs "
        + ", ".join(f"{s:.4f}" for s in setups) + " s",
        f"host speed: calibration median {statistics.median(calibrations):.5f} s "
        f"over {len(calibrations)} pieces, reference {CALIBRATION_REF_S} s, "
        f"times scaled by {scale:.4f}; as measured: setup_s {setup_s:.4f}, "
        f"job_s_p50 {p50_s:.4f}, job_s_tail {tail_s:.4f}, jobs_per_s {per_s:.4f}",
    ]
    if args.workload == "verify":
        lines.append(probe_known_defect(mods, work))
    return res, metrics, lines, mods


def probe_known_defect(mods, work):
    """Run the M > 14 crash of ROADMAP item 3 once, outside the timing."""
    name, argv = workloads.KNOWN_DEFECT
    try:
        rc = mods["cli"].main(argv + ["--out", str(work / "probe.jsonl")])
    except mods["padics"].PadicPrecisionError as exc:
        return f"known failure {name}: PadicPrecisionError: {exc}"
    except Exception as exc:  # report, never abort the benchmark
        return f"known defect {name} now fails differently: {type(exc).__name__}: {exc}"
    return f"known defect {name} no longer reproduces: exit {rc}"


# --- traced run -----------------------------------------------------------


def _names(stats, prefixes):
    out = []
    for name in stats:
        for pre in prefixes:
            if name == pre or name.startswith(pre + "."):
                out.append(name)
                break
    return out


def span_calls(stats, *prefixes):
    return sum(stats[n][0] for n in _names(stats, prefixes))


def span_self(stats, *prefixes):
    return sum(stats[n][2] for n in _names(stats, prefixes))


_PADIC_ARITH = tuple(f"padics.PadicNumber.{op}" for op in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse"))
_EVALUATE = tuple(f"modsym.{cls}.{m}" for cls in ("SymbolFunctional", "SymbolPair",
                                                  "TwistedSymbol")
                  for m in ("evaluate", "evaluate_from_zero", "raw_value"))


def _calls(*names):
    return "count", "lower", lambda t: span_calls(t.stats, *names)


def _self(*names):
    return "s", "lower", lambda t: span_self(t.stats, *names)


def _hit_ratio(t):
    builds = span_calls(t.stats, "modsym.build_space")
    return t.counters["modsym.cache_hits"] / builds if builds else 0.0


# name -> (unit, better, value from the tracer)
PER_LAYER = {
    "kernels.calls": _calls("kernels"),
    "kernels.self_s": _self("kernels"),
    "kernels.mul_ops": ("count", "lower", lambda t: t.counters["kernels.mul_ops"]),
    "cyclotomic.mul.calls": _calls("cyclotomic.CyclotomicNumber.__mul__"),
    "cyclotomic.mul.self_s": _self("cyclotomic.CyclotomicNumber.__mul__"),
    "cyclotomic.from_monomials.calls": _calls("cyclotomic.CyclotomicNumber.from_monomials"),
    "cyclotomic.orders": ("count", "lower", lambda t: len(t.orders)),
    "characters.gauss_sum.calls": _calls("characters.DirichletCharacter.gauss_sum"),
    "characters.gauss_sum.self_s": _self("characters.DirichletCharacter.gauss_sum"),
    "characters.value.calls": _calls("characters.DirichletCharacter.value_exponent"),
    "qseries.eisenstein.calls": _calls("qseries.eisenstein_series"),
    "qseries.eisenstein.self_s": _self("qseries.eisenstein_series"),
    "qseries.congruence.self_s": _self("qseries.check_congruence"),
    "newforms.partner.self_s": _self("newforms.residual_eisenstein_partner"),
    "newforms.load.self_s": _self("newforms.bundled", "newforms.NewformData.from_dict",
                                  "newforms.NewformData.load"),
    "linalg.rref.calls": _calls("linalg.rref"),
    "linalg.rref.self_s": _self("linalg.rref"),
    "linalg.solve.self_s": _self("linalg.solve_right"),
    "linalg.charpoly.self_s": _self("linalg.charpoly"),
    "modsym.build.calls": _calls("modsym.build_space"),
    "modsym.build.self_s": _self("modsym.build_space", "modsym.ModularSymbolSpace.__init__"),
    "modsym.cache_hit_ratio": ("frac", "higher", _hit_ratio),
    "modsym.cache_write_bytes": ("B", "lower",
                                 lambda t: t.counters["modsym.cache_write_bytes"]),
    "modsym.cache_read_s": ("s", "lower", lambda t: t.counters["modsym.cache_read_s"]),
    "modsym.hecke.calls": _calls("modsym.ModularSymbolSpace.hecke_images"),
    "modsym.hecke.self_s": _self("modsym.ModularSymbolSpace.hecke_images"),
    "modsym.eigen.self_s": _self("modsym.eigen_functional"),
    "modsym.evaluate.calls": _calls("modsym.SymbolFunctional.evaluate"),
    "modsym.evaluate.self_s": _self(*_EVALUATE),
    "padics.arith.calls": _calls(*_PADIC_ARITH),
    "padics.arith.self_s": _self(*_PADIC_ARITH),
    "padics.lift.self_s": _self("padics.teichmuller_lift", "padics.hensel_root",
                                "padics.padic_log"),
    "iwasawa.series_mul.calls": _calls("iwasawa.PadicSeries.__mul__"),
    "iwasawa.series_mul.self_s": _self("iwasawa.PadicSeries.__mul__", "iwasawa.series_mul"),
    "iwasawa.reduce_gamma.self_s": _self("iwasawa.PadicSeries.reduce_gamma"),
    "iwasawa.invariants.self_s": _self("iwasawa.invariants"),
    "padic_l.branch_series.self_s": _self("padic_l.branch_series"),
    "padic_l.sigma0.self_s": _self("padic_l.apply_sigma0"),
    "padic_l.value.self_s": _self("padic_l.branch_value_trivial"),
    "padic_l.verdict.self_s": _self("padic_l.product_congruence_verdict"),
    "padic_l.unit_root.self_s": _self("padic_l.unit_root", "padic_l.choose_alpha"),
    "numfield.mul.calls": _calls("numfield.NFElement.__mul__"),
}
PER_LAYER.update({f"{layer}.self_s": _self(layer)
                  for layer in tracing.LAYERS if layer != "kernels"})
PROFILE_BUCKETS = tracing.LAYERS + ("fractions", "other")
TRACE_METRICS = {
    "kernels.compiled": ("flag", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.remainder_frac": ("frac", "lower"),
    "bench.self_s": ("s", "lower"),
}


def per_layer_spec():
    """[(name, unit, better)] of every metric a traced run prints."""
    spec = [(name, unit, better) for name, (unit, better, _) in PER_LAYER.items()]
    spec += [(f"{b}.profile_share", "frac", "lower") for b in PROFILE_BUCKETS]
    spec += [(name, unit, better) for name, (unit, better) in TRACE_METRICS.items()]
    return spec


def traced(args, refs, work):
    mods, _ = setup()
    base_seconds = max(args.seconds * TRACE_BASE_SHARE, 0.001)
    jobs = (job for block in workloads.blocks(args.workload, args.seed)
            for job in block)
    base = run_jobs(([job] for job in jobs), mods, refs, work,
                    seconds=base_seconds)
    # replay exactly the jobs of the untraced pass
    replay = [base.jobs]

    mods, _ = setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spans = run_jobs(replay, mods, refs, work, tracer=tracer)
    finally:
        tracer.restore()

    # cProfile slows Python code three- to fourfold, so it profiles the
    # replay one job at a time only until its own share of --seconds is used
    mods, _ = setup()
    profiler = cProfile.Profile()
    prof = run_jobs(([job] for job in base.jobs), mods, refs, work,
                    seconds=base_seconds, profiler=profiler)
    shares = tracing.profile_shares(profiler, str(SRC / "iwrank"))

    stats = tracer.stats
    values = {name: fn(tracer) for name, (_, _, fn) in PER_LAYER.items()}
    for b in PROFILE_BUCKETS:
        values[f"{b}.profile_share"] = shares.get(b, 0.0)
    self_sum = sum(s[2] for s in stats.values())
    values.update({
        "kernels.compiled": int(bool(mods["kernels"].COMPILED)),
        "trace.overhead_frac": sum(spans.times) / sum(base.times) - 1.0,
        "trace.wall_s": spans.window,
        "trace.self_sum_s": self_sum,
        "trace.remainder_frac": (spans.window - self_sum) / spans.window,
        "bench.self_s": span_self(stats, "bench.job"),
    })
    metrics = {name: (values[name], unit) for name, unit, _ in per_layer_spec()}

    passes = (base, spans, prof)
    mismatched = sum(1 for a, b in zip(base.outputs, spans.outputs) if a != b)
    lines = [f"{args.workload}: {len(base.jobs)} jobs untraced "
             f"{sum(base.times):.2f} s, traced {sum(spans.times):.2f} s; "
             f"first {len(prof.jobs)} of them profiled {sum(prof.times):.2f} s",
             f"span self times sum to {self_sum:.3f} s of the {spans.window:.3f} s "
             f"traced window; the remainder is output checking between jobs",
             f"traced and untraced outputs differ on {mismatched} jobs"]
    return passes, mismatched, metrics, lines, mods


# --- entry point -----------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description="iwrank end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    clean_environment()

    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        work.mkdir(parents=True)
        refs = workloads.References()
        if args.trace:
            passes, extra_failed, metrics, lines, mods = traced(args, refs, work)
        else:
            res, metrics, lines, mods = end_to_end(args, refs, work)
            passes, extra_failed = (res,), 0
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(len(p.jobs) for p in passes)
    failures = [(p.jobs[i], why) for p in passes for i, why in p.failures.items()]
    failed = len(failures) + extra_failed
    for job, reason in failures[:10]:
        print(f"failed job {job}: {reason}", file=sys.stderr)
    for line in lines:
        print(line)
    print("provenance " + json.dumps(provenance(args.seed, mods), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
