"""The CLI contract, fuzzed: every input gives records or `error:`.

A seeded generator draws argument vectors over all seven subcommands and
every flag that `--help` lists, valid and invalid values alike, and runs
each one twice through `cli.main` in process.  Every run must end in
exit 0, 1 or 2 with no uncaught exception; exit 2 must come with an
`error:` line on stderr (argparse's usage errors included); on exit 0
or 1 every line written (to stdout, or to `--out`) must be one JSON
object; and the second run must print the same bytes as the first.
A failure here is mended in the program, never by narrowing the draws
or changing the seed.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

from iwrank.cli import main

SEED = 2024
RUNS = 1500

# (well-formed, malformed) values of each flag.  A run is clean (only
# well-formed values), spoils one flag the command reads (so the run gets
# as far as that flag's check), or spoils any value a quarter of the time
# and adds flags the command does not read.  Well-formed values may
# still be refused (5:1,2 at p = 5).
LABELS = (("11.2.a.a", "19.2.a.a", "23.2.a", "52.2.a.a"), ("bogus",))
PRIMES = (("3", "5", "5", "7", "11", "13", "19"), ("2", "1", "0", "-5", "9", "x"))
CHARS = (("triv1", "quad-23", "quad-4", "quad-3", "quad5", "teich5", "teich7",
          "teich5^2", "teich11^3", "mod=7;gens=3:1;ord=6"),
         ("quad6", "teich4", "mod=7;gens=3:1;ord=0", "mod=7;gens=3:1;ord=-6",
          "mod=7;gens=2:1;ord=6", "bogus^^", ""))
BRANCHES = (("1..4", "2..2", "3..6", "1..1", "0..0", "-1..2", "4..1", "1..9"),
            ("a..b", "3", "1..2..3"))
SIGMA0 = (("11:1,-1,11", "7:1,-2,7", "2:1,2,2", "13:1", "5:1,2", "7:1,1/5"),
          ("11:1/0", "13:1,x", "x:1", "11", "3:"))
COEFFS = (("5,10,3,1", "0", "0,0,0", "1/5,3", "3,6,9", "7,1", "2,5", "1,2,3",
           "25,50"), ("1/0", "0,1/0", "a", ""))
WEIGHTS = (("3", "2", "1", "0", "-1"), ("x",))
TERMS = (("6", "0", "20", "-3"), ("y",))
NUMBERS = (("1", "2", "3"), ("9", "x"))

# the flags each subcommand reads
READS = {
    "chars": {"--char"},
    "eisenstein": {"--char", "--weight", "--terms"},
    "congruence": {"--prime", "--newform"},
    "modsym-table": {"--prime", "--newform", "--char"},
    "padic-l": {"--prime", "--newform", "--char", "--precision", "--branches",
                "--sigma0"},
    "iwasawa": {"--prime", "--precision", "--coeffs"},
    "verify-example": {"--prime", "--precision"},
}
# how many --char each subcommand is given
CHAR_COUNTS = {"chars": (1, 1, 2, 3), "eisenstein": (2,)}
OWN = {"--weight", "--terms", "--sigma0", "--coeffs"}  # known to one subparser


def _form_files(tmp_path):
    """--newform FILE copies: valid, malformed, short and non-integral."""
    data = resources.files("iwrank.data")
    f11 = json.loads(data.joinpath("11.2.a.a.json").read_text())
    f23 = json.loads(data.joinpath("23.2.a.json").read_text())
    bad23 = dict(f23, an=f23["an"][:-1] + [f23["an"][-1][:-1] + ["1/3"]])
    texts = {
        "copy": json.dumps(dict(f11, label="copy-11a")),
        "short": json.dumps(dict(f11, an=f11["an"][:1])),
        "null": json.dumps(dict(f11, an=f11["an"][:3] + [[None]])),
        "level13": json.dumps(dict(f11, label="triv13", level=13,
                                   nebentypus="triv13")),
        "nonintegral": json.dumps(bad23),
        "nolevel": json.dumps({k: v for k, v in f11.items() if k != "level"}),
        "malformed": "{not json",
    }
    files = []
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        files.append(str(path))
    return files + [str(tmp_path / "absent.json")]


def _precision(rng, p, spoilt):
    if spoilt("--precision"):
        return rng.choice(("8", "a,b", "8,5,", "", "8,x", "0,5", "-1,5", "8,0",
                           "8,6"))
    p = int(p) if p.isdigit() and int(p) > 1 else 5
    d = rng.choice((p, p, p * p if p * p <= 625 else p, 25))
    return f"{rng.choice((8, 8, 4, 16, 1))},{d}"


def _argv(rng, forms, out):
    cmd = rng.choice(tuple(READS))
    mode = rng.choice(("clean", "one", "one", "many"))
    target = rng.choice(sorted(READS[cmd]) + ["number"] * (cmd == "verify-example"))
    pre, post = [], []

    def spoilt(flag):
        if mode == "many":
            return rng.random() < 0.25
        return mode == "one" and flag == target

    def draw(flag, values, files=()):
        well, malformed = values
        if spoilt(flag):
            return rng.choice(malformed + tuple(files))
        return rng.choice(well + tuple(files[:1]))

    def put(flag, value, wanted=0.85):
        if flag not in READS[cmd]:
            if mode != "many" or rng.random() > (0.02 if flag in OWN else 0.1):
                return
        elif rng.random() > wanted:
            return
        side = post if flag in OWN or rng.random() < 0.7 else pre
        # --flag=value passes values that start with "-"
        side.extend([f"{flag}={value}"] if rng.random() < 0.3 else [flag, value])

    prime = draw("--prime", PRIMES)
    put("--prime", prime, wanted=0.95)
    put("--precision", _precision(rng, prime, spoilt),
        wanted=1 if target == "--precision" else 0.4)
    # forms[0] is a valid copy of 11.2.a.a; a spoilt run may give 0 or 2
    for _ in range(rng.choice((1, 1, 2, 0)) if spoilt("--newform") else 1):
        put("--newform", draw("--newform", LABELS, forms), wanted=1)
    counts = CHAR_COUNTS.get(cmd, (0, 0, 1))
    for _ in range(rng.choice((0, 1, 2, 3)) if spoilt("--char") else rng.choice(counts)):
        put("--char", draw("--char", CHARS), wanted=1)
    put("--branches", draw("--branches", BRANCHES),
        wanted=1 if target == "--branches" else 0.35)
    for _ in range(rng.choice((1, 1, 2)) if target == "--sigma0" else rng.choice((0, 1))):
        put("--sigma0", draw("--sigma0", SIGMA0), wanted=1)
    put("--coeffs", draw("--coeffs", COEFFS), wanted=0.95)
    put("--weight", draw("--weight", WEIGHTS), wanted=0.95)
    put("--terms", draw("--terms", TERMS), wanted=0.6)
    if rng.random() < 0.1:
        side = post if rng.random() < 0.5 else pre
        side += ["--out", rng.choice((out, out, out + ".d/x"))]
    if rng.random() < 0.01:
        post.append(rng.choice(("-h", "--help")))
    number = [draw("number", NUMBERS)] if cmd == "verify-example" else []
    return pre + [cmd] + number + post


def _run(argv, out):
    """(exit code, stdout, stderr, --out text) of one run; an uncaught
    exception propagates."""
    if out.exists():
        out.unlink()
    so, se = io.StringIO(), io.StringIO()
    with redirect_stdout(so), redirect_stderr(se):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    written = out.read_text() if out.exists() else None
    return code, so.getvalue(), se.getvalue(), written


def _broken(argv, first):
    code, stdout, stderr, written = first
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    if code == 2:
        return None if "error:" in stderr else "exit 2 without error:"
    if "-h" in argv or "--help" in argv:
        return None if stdout.startswith("usage: iwrank") else "help text"
    lines = (stdout if written is None else written).splitlines()
    if not lines:
        return "no records"
    for line in lines:
        try:
            if not isinstance(json.loads(line), dict):
                return f"not a JSON object: {line!r}"
        except ValueError:
            return f"not JSON: {line!r}"
    return None


def test_cli_contract_holds_on_fuzzed_input(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(SEED)
    forms = _form_files(tmp_path)
    out = tmp_path / "out.jsonl"
    faults, codes = [], {0: 0, 1: 0, 2: 0}
    for _ in range(RUNS):
        argv = _argv(rng, forms, str(out))
        try:
            first = _run(argv, out)
            again = _run(argv, out)
        except Exception as exc:  # an uncaught exception breaks the contract
            faults.append((argv, f"{type(exc).__name__}: {exc}"))
            continue
        fault = _broken(argv, first) or (None if again == first else "second run differs")
        if fault:
            faults.append((argv, fault))
        else:
            codes[first[0]] += 1
    assert not faults, f"{len(faults)} of {RUNS} runs break the contract: {faults[:5]}"
    # the draws reach records, failed checks and errors alike
    assert min(codes.values()) > 0, codes
