"""Compare two saved benchmark outputs metric by metric.

Usage: python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file is the stdout of one `perfbench/run.py` run.  The comparison
is refused (exit 2) when the two runs used a different kernel selection
(compiled extension or the IWRANK_PURE switch) or different workloads,
because their timings would not measure the same program.
"""

from __future__ import annotations

import json
import sys

# provenance keys that must agree for two results to be comparable
KERNEL_KEYS = ("kernels_compiled", "IWRANK_PURE")


def load(path):
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    prov = None
    for line in lines:
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
    if prov is None:
        raise ValueError(f"{path}: no provenance line")
    return prov, json.loads(lines[-1]), lines[0].split(":", 1)[0]


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (pa, ra, wa), (pb, rb, wb) = (load(p) for p in argv)
    for key in KERNEL_KEYS:
        if pa.get(key) != pb.get(key):
            print(f"refused: {key} differs ({pa.get(key)!r} vs {pb.get(key)!r})",
                  file=sys.stderr)
            return 2
    if wa != wb:
        print(f"refused: workloads differ ({wa} vs {wb})", file=sys.stderr)
        return 2
    print(f"workload {wa}: {pa['commit'][:12]} (seed {pa['seed']}) -> "
          f"{pb['commit'][:12]} (seed {pb['seed']})")
    for name, before in ra["metrics"].items():
        after = rb["metrics"].get(name)
        if after is None:
            continue
        a, b = before["value"], after["value"]
        ratio = f"{b / a:8.3f}x" if a else "      n/a"
        print(f"{name:34} {a:14.6g} {b:14.6g} {ratio} {before['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
