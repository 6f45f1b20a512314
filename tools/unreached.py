"""List the src/iwrank functions that no bundled CLI run enters.

Usage: python3 tools/unreached.py

Runs every `iwrank ...` line of the README's CLI section and
`verify-example 1..3` in process under `sys.setprofile`, then prints each
function or method of src/iwrank that was never entered, with its line
count, and the total.  Tests, the data generator and perfbench are not
run, so the list is an upper bound for a deletion, not a list to delete.
"""

import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "iwrank")
sys.path.insert(0, os.path.join(ROOT, "src"))
# the in-process import would leave .pyc files in the tree, and a timed
# set-up that later reads them no longer times compilation
sys.dont_write_bytecode = True


def readme_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = [line.split("#")[0].split() for line in fh]
    runs = [words[1:] for words in lines if words[:1] == ["iwrank"]]
    for n in ("1", "2", "3"):
        if not any(argv[:2] == ["verify-example", n] for argv in runs):
            runs.append(["verify-example", n])
    return runs


def functions(code):
    """Every function code object nested in `code`, comprehensions aside."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & 2 and not const.co_name.startswith("<"):
                yield const
            yield from functions(const)


def main():
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            co = frame.f_code
            entered.add((co.co_filename, co.co_firstlineno, co.co_name))

    sys.setprofile(hook)
    from iwrank import cli  # module bodies run under the hook too
    with tempfile.TemporaryDirectory() as tmp:
        for argv in readme_runs():
            if "--out" in argv:
                i = argv.index("--out")
                argv[i + 1] = os.path.join(tmp, "out.jsonl")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            print(f"exit {rc}: iwrank {' '.join(argv)}", file=sys.stderr)
    sys.setprofile(None)

    total = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.abspath(os.path.join(SRC, name))
        with open(path) as fh:
            module = compile(fh.read(), path, "exec")
        for co in functions(module):
            key = (co.co_filename, co.co_firstlineno, co.co_name)
            if key not in entered:
                lines = max(line for _, _, line in co.co_lines() if line) - co.co_firstlineno + 1
                total += lines
                print(f"{lines:4d}  {name}:{co.co_firstlineno} {co.co_qualname}")
    print(f"{total:4d}  lines in functions never entered")


if __name__ == "__main__":
    main()
