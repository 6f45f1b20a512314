"""Record the golden references the benchmark checks every job against.

Usage: python3 perfbench/record_refs.py

Writes perfbench/refs/: the JSONL and exit code of each `verify-example`
run, and the pool of `gauss` characters with the value g(chi) g(conj chi)
must take.  Run it
only from a commit whose outputs are known good; a refactor must
reproduce these files, not rewrite them.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import clean_environment, import_iwrank  # noqa: E402


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def record_gauss(mods, refs):
    characters = mods["characters"]
    chars = []
    for m in workloads.GAUSS_MODULI:
        for chi in characters.all_characters(m):
            if not chi.is_primitive():
                continue
            desc = chi.to_descriptor()
            product = chi.gauss_sum() * chi.conjugate().gauss_sum()
            # the identity g(chi) g(conj chi) = chi(-1) m, checked here once
            if product != chi(-1) * m:
                raise SystemExit(f"identity fails for {desc}")
            chars.append({"descriptor": desc, "modulus": m, "order": chi.order,
                          "degree": _phi(math.lcm(m, chi.order)),
                          "expected": repr(product)})
    prims = {m: [c.to_descriptor() for c in characters.all_characters(m)
                 if c.is_primitive()] for m in workloads.FACTOR_MODULI}
    pairs = [[a, b] for m in workloads.FACTOR_MODULI
             for q in workloads.FACTOR_MODULI
             if m < q and math.gcd(m, q) == 1 and m * q <= max(workloads.GAUSS_MODULI)
             for a in prims[m] for b in prims[q]]
    with open(refs / "gauss_pool.json", "w") as fh:
        json.dump({"characters": chars, "pairs": pairs}, fh, indent=1)
        fh.write("\n")
    return len(chars), len(pairs)


def main():
    clean_environment()
    mods = import_iwrank()
    refs = workloads.REFS
    work = Path(tempfile.mkdtemp(prefix="perfbench-refs-", dir=ROOT))
    try:
        (refs / "verify").mkdir(parents=True, exist_ok=True)
        codes = {}
        for n in workloads.VERIFY_NUMBERS:
            out = workloads.execute(("verify", n), mods, str(work))
            status, report = out.split(b"\n", 1)
            codes[f"verify/{n}"] = int(status.split()[1])
            with open(refs / "verify" / f"{n}.jsonl", "wb") as fh:
                fh.write(report)
        with open(refs / "exit_codes.json", "w") as fh:
            json.dump(codes, fh, indent=1, sort_keys=True)
            fh.write("\n")
        nchars, npairs = record_gauss(mods, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"recorded {len(codes)} reports, {nchars} characters, "
          f"{npairs} pairs in {refs}")


if __name__ == "__main__":
    main()
