"""Command-line surface: character and Eisenstein inspection, congruence
checks, symbol tables, branch L-series, and the bundled verification runs.

Each `cmd_*` takes the parsed command line and returns its exit code and
its records, one dict each.  `main` alone checks the shared flags
(refusing one that the command does not read), writes the records (one
`padic_l.format_report` line each, to stdout or `--out`) and turns a
refused input into `error: ...` on stderr.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 the
configuration or an input file could not be used, or the requested
p-adic precision could not be reached.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from fractions import Fraction
from functools import lru_cache, partial

from .arith import is_prime
from .characters import parse_descriptor
from .examples import (
    EXAMPLES,
    VerificationReport,
    add_partner_check,
    eisenstein_partner,
    run_example,
    symbol_pair,
)
from .iwasawa import PadicSeries, UndeterminedInvariants, ideal_mod_pi, mu_lambda
from .modsym import twist_symbol
from .newforms import IngestionError, NewformData, _prime_to_p, bundled, bundled_labels
from .padic_l import (
    OrdinarityError,
    branch_family,
    branch_report,
    branch_value_trivial,
    format_report,
    product_congruence_verdict,
)
from .padics import PadicPrecisionError
from .qseries import check_congruence, eisenstein_series, sigma0_and_m


class ConfigError(Exception):
    pass


# --- shared flags -----------------------------------------------------


def _pair(text, flag, shape):
    """The two integers of a --precision M,D or --branches a..b value."""
    try:
        a, b = text.split(shape[1:-1])
        return int(a), int(b)
    except ValueError as exc:
        raise ConfigError(f"{flag} wants {shape}, got {text!r}") from exc


def _checked(args):
    """Check the shared flags of a parsed command line, in place: the
    command must read every one given (--out is read by `main`), a given
    --precision and --branches become integer pairs, --prime must be an
    odd prime and the branch range must not repeat residues mod p - 1."""
    for flag in ("prime", "precision", "newform", "char", "branches"):
        if getattr(args, flag) is not None and flag not in args.reads:
            raise ConfigError(f"{args.command} does not read --{flag}")
    if args.precision:
        args.precision = _pair(args.precision, "--precision", "M,D")
    if args.branches:
        args.branches = _pair(args.branches, "--branches", "a..b")
    p = args.prime
    if p is not None:
        if p < 3 or p % 2 == 0:
            raise ConfigError(f"prime must be odd, got {p}")
        if not is_prime(p):
            raise ConfigError(f"{p} is not prime")
    if args.precision and min(args.precision) < 1:
        raise ConfigError("precision components must be positive: "
                          f"{args.precision[0]},{args.precision[1]}")
    if args.branches and p is not None:
        a, b = args.branches
        if a > b:
            raise ConfigError(f"empty branch range {a}..{b}")
        if b - a > p - 2:
            raise ConfigError(f"branch range {a}..{b} repeats residues mod {p - 1}")
    return args


def _precision(args):
    """(M, D): --precision, else 8 digits and D = --prime (8 without one)."""
    return args.precision or (8, args.prime or 8)


def _wild_level(args, p):
    """n with D = p^n, D the series length; the branch series need it."""
    d = D = _precision(args)[1]
    n = 0
    while d % p == 0:
        d //= p
        n += 1
    if d != 1 or n < 1:
        raise ConfigError(f"series length {D} is not a power of {p}")
    return n


def _fractions(text):
    """The rationals of a comma list c0,c1,...; ValueError on an entry
    that is none, n/0 included."""
    try:
        return [Fraction(c) for c in text.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _character(desc, prefix="bad character descriptor"):
    try:
        return parse_descriptor(desc)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{prefix}: {exc}")


def _load_newform(ref):
    """A --newform value is a JSON file path or a bundled label."""
    if os.path.exists(ref):
        try:
            with open(ref) as fh:
                payload = json.load(fh)
            return NewformData.from_dict(payload)
        except (OSError, ValueError, KeyError, IngestionError) as exc:
            raise ConfigError(f"cannot ingest newform file {ref}: {exc}")
    try:
        return bundled(ref)
    except IngestionError as exc:
        raise ConfigError(str(exc))


def _one_newform(args):
    """(p, form): the --prime and the one --newform the command needs."""
    if args.prime is None:
        raise ConfigError(f"{args.command} needs --prime")
    if len(args.newform or ()) != 1:
        raise ConfigError(f"{args.command} needs exactly one --newform")
    return args.prime, _load_newform(args.newform[0])


# --- commands: each maps the checked flags to (exit code, records) ------


def cmd_chars(args):
    if not args.char:
        raise ConfigError("chars needs at least one --char descriptor")
    records = []
    for desc in args.char:
        chi = _character(desc, f"bad character descriptor {desc!r}")
        values = {}
        for a in range(1, min(chi.modulus, 20) + 1):
            e = chi.value_exponent(a)
            if e is not None:
                values[str(a)] = e
        records.append({
            "descriptor": desc,
            "modulus": chi.modulus,
            "order": chi.order,
            "conductor": chi.conductor(),
            "parity": chi.parity(),
            "trivial": chi.is_trivial(),
            "primitive_modulus": chi.primitive_part().modulus,
            "value_exponents": values,
            "value_convention": f"exponent k means zeta_{chi.order}^k",
        })
    return 0, records


def cmd_eisenstein(args):
    if len(args.char or ()) != 2:
        raise ConfigError("eisenstein needs exactly two --char descriptors "
                          "(theta and phi)")
    if args.terms < 0:
        raise ConfigError(f"--terms must be >= 0, got {args.terms}")
    theta, phi = map(_character, args.char)
    try:
        series = eisenstein_series(theta, phi, args.weight, args.terms)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return 0, [{
        "label": series.label,
        "weight": series.weight,
        "level": series.level,
        "coefficients": [str(series.a(n)) for n in range(args.terms + 1)],
    }]


def _check_cyclotomic_pattern(h, p):
    """The one residual pair recognized is (omega_bar, 1): check that the
    stored coefficients follow its pattern a_ell = 1 + ell mod p."""
    ideal = h.congruence_ideal(p)
    for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        if ell > h.n_max:
            break
        if (h.level * p) % ell == 0:
            continue
        if ideal.reduce(h.a(ell)) != (1 + ell) % p:
            raise ConfigError(
                f"{h.label}: coefficients at {ell} do not follow the "
                f"cyclotomic pattern 1 + ell mod {p}; cannot derive the "
                f"residual pair")


def cmd_congruence(args):
    p, h = _one_newform(args)
    try:
        ideal = h.congruence_ideal(p)
        _check_cyclotomic_pattern(h, p)
        bound, _, g, m, dep = eisenstein_partner(h, p, ideal)
    except (IngestionError, ValueError) as exc:
        raise ConfigError(str(exc))
    sigma0 = list(sigma0_and_m(_prime_to_p(h.level, p), 1)[0])
    rep = VerificationReport(h.label)
    rep.add("congruence.m", "congruence multiplier", True, m, m, "exact")
    rep.add("congruence.sigma0", "primes needing imprimitive Euler factors",
            True, sigma0, sigma0, "exact")
    add_partner_check(rep, "congruence.partner", h, p, dep)
    try:
        rep.add_match("congruence.self", "the partner matches itself",
                      check_congruence(g, g, ideal, bound))
    except ValueError as exc:
        # a coefficient that does not reduce mod the ideal (the partner's
        # a(0) = (p - 1)/24 at p = 3) leaves the self-check undefined
        rep.skip("congruence.self", "the partner matches itself", exc)
    return (1 if rep.failures() else 0), rep.records


def _symbol_for(args, nf):
    """The (possibly twisted) symbol pair for a table or L-series, and the
    --char twist (None without one)."""
    try:
        pair = symbol_pair(nf)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not args.char:
        return pair, None
    if len(args.char) > 1:
        raise ConfigError("at most one --char twist is supported here")
    chi = _character(args.char[0])
    try:
        return twist_symbol(pair, chi, args.prime,
                            label=f"{nf.label}x{args.char[0]}"), chi
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_modsym_table(args):
    p, nf = _one_newform(args)
    sym, _ = _symbol_for(args, nf)
    scales = getattr(sym, "scales", None)
    records = [{
        "form": getattr(sym, "label", nf.label),
        "prime": p,
        "convention": "values of the symbol at b/p relative to its value "
                      "at 0; one row per sign",
        "normalization": ("per-sign scalar clearing denominators, first "
                          "nonzero value positive"
                          if scales else "eigenfunctional sends its pivot "
                          "path to 1"),
        "scales": {"plus": str(scales[1]), "minus": str(scales[-1])}
        if scales else None,
    }]
    plus, minus = sym.evaluate_row(p, +1), sym.evaluate_row(p, -1)
    for b in range(1, p):
        records.append({
            "b": b,
            "plus": str(plus[b] - plus[0]),
            "minus": str(minus[b] - minus[0]),
        })
    return 0, records


def _sigma0_factors(specs):
    out = []
    for text in specs or ():
        try:
            ell_s, coeff_s = text.split(":")
            out.append((int(ell_s), tuple(_fractions(coeff_s))))
        except ValueError as exc:
            raise ConfigError(
                f"--sigma0 wants ell:c0,c1,..., got {text!r}") from exc
    return tuple(out)


def cmd_padic_l(args):
    p, nf = _one_newform(args)
    if p > nf.n_max:
        raise ConfigError(
            f"{nf.label} stores a(1..{nf.n_max}), so a({p}) is unknown")
    ap = nf.a(p)
    sym, chi = _symbol_for(args, nf)
    n = _wild_level(args, p)
    span = p - 1
    lo, hi = args.branches or (1, span)
    factors = _sigma0_factors(args.sigma0)
    if chi is not None:
        if chi.order > 2:
            raise ConfigError(
                "only quadratic twists keep the Hecke data rational; "
                f"{args.char[0]} has order {chi.order}")
        e = chi.value_exponent(p)
        if e is None:
            raise ConfigError(f"twist character ramified at {p}")
        if e:
            ap = -ap  # the twist multiplies a_p by chi(p) = -1
    # each record reads its branch and the partner branch
    wanted = {(j - 1) % span + 1 for j in range(lo, hi + 1)}
    wanted |= {jj % span + 1 for jj in wanted}
    try:
        alpha, _, series = branch_family(sym, ap, p, n, _precision(args)[0],
                                         factors, branches=wanted)
    except (OrdinarityError, ValueError) as exc:
        # no unit root, or a sigma0 factor at p or repeated
        raise ConfigError(str(exc))
    records = []
    for j in range(lo, hi + 1):
        jj = (j - 1) % span + 1
        value = branch_value_trivial(sym, p, alpha, jj)
        verdict = product_congruence_verdict(series[jj], series[jj % span + 1])
        records.append(branch_report(
            series[jj], value=value, exact_zero=value.is_zero(), verdict=verdict))
    return 0, records


def cmd_iwasawa(args):
    if args.prime is None:
        raise ConfigError("iwasawa needs --prime")
    if not args.coeffs:
        raise ConfigError("iwasawa needs --coeffs c0,c1,...")
    try:
        coeffs = _fractions(args.coeffs)
    except ValueError as exc:
        raise ConfigError(f"bad --coeffs: {exc}")
    m, d = _precision(args)
    if len(coeffs) > d:
        raise ConfigError(
            f"{len(coeffs)} coefficients exceed series length {d}")
    f = PadicSeries(args.prime, m, d, coeffs)
    try:
        mu, lam = mu_lambda(f)
    except UndeterminedInvariants as exc:
        return 1, [{"undetermined": str(exc)}]
    return 0, [{
        "mu": mu,
        "lambda": lam,
        "precision": str(f.M - mu),  # digits left after dividing by p^mu
        "ideal_mod_pi": ideal_mod_pi(f),
    }]


def cmd_verify_example(args):
    number = args.number
    p = EXAMPLES[number]["p"]
    if args.prime not in (None, p):
        raise ConfigError(
            f"example {number} runs at p = {p}, not at --prime {args.prime}")
    M, wild = 8, 1
    if args.precision is not None:
        M, wild = _precision(args)[0], _wild_level(args, p)
    rep = run_example(number, wild_level=wild, M=M)
    npass, nfail, nskip = rep.counts()
    return (0 if rep.ok else 1), rep.records + [{
        "example": number,
        "pass": npass,
        "fail": nfail,
        "skipped": nskip,
        "ok": rep.ok,
    }]


# --- entry point ------------------------------------------------------


def _add_common(parser, suppress, labels):
    """The shared flags; the subcommands' parent suppresses their defaults
    so a value parsed before the subcommand is not clobbered afterwards.
    `labels` lists the bundled newforms for the --newform help."""
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--prime", type=int, default=d, help="odd prime p")
    parser.add_argument("--precision", default=d, metavar="M,D",
                        help="p-adic digits M and series length D")
    parser.add_argument("--out", default=d,
                        help="write the report here instead of stdout")
    parser.add_argument("--newform", action="append", default=d,
                        metavar="FILE|LABEL",
                        help=f"newform JSON file or bundled label ({labels})")
    parser.add_argument("--char", action="append", default=d,
                        metavar="DESCRIPTOR",
                        help="character descriptor, e.g. quad-23 or teich5^2")
    parser.add_argument("--branches", default=d, metavar="a..b",
                        help="branch range (reduced mod p-1)")


@lru_cache(maxsize=1)  # rebuilt only when the terminal width changes
def _build_parser(columns):
    # one terminal-width probe in main, not one per HelpFormatter
    fmt = partial(argparse.HelpFormatter, width=columns - 2)
    ap = argparse.ArgumentParser(
        prog="iwrank",
        description="analytic Iwasawa invariants at Eisenstein primes",
        formatter_class=fmt,
    )
    labels = ", ".join(bundled_labels())
    _add_common(ap, suppress=False, labels=labels)
    common = argparse.ArgumentParser(add_help=False, formatter_class=fmt)
    _add_common(common, suppress=True, labels=labels)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, reads, **kw):
        p = sub.add_parser(name, parents=[common], formatter_class=fmt, **kw)
        p.set_defaults(run=run, reads=reads)
        return p

    command("chars", cmd_chars, {"char"}, help="describe Dirichlet characters")
    eis = command("eisenstein", cmd_eisenstein, {"char"},
                  help="Eisenstein q-expansion")
    eis.add_argument("--weight", type=int, required=True)
    eis.add_argument("--terms", type=int, default=20)
    command("congruence", cmd_congruence, {"prime", "newform"},
            help="residual Eisenstein congruence")
    command("modsym-table", cmd_modsym_table, {"prime", "newform", "char"},
            help="symbol values at the p-division points")
    pl = command("padic-l", cmd_padic_l,
                 {"prime", "newform", "char", "precision", "branches"},
                 help="branch L-values and series")
    pl.add_argument("--sigma0", action="append", default=None,
                    metavar="ELL:C0,C1,...",
                    help="imprimitive Euler factor at ELL")
    iw = command("iwasawa", cmd_iwasawa, {"prime", "precision"},
                 help="invariants of a power series")
    iw.add_argument("--coeffs", default=None, metavar="C0,C1,...")
    ver = command("verify-example", cmd_verify_example, {"prime", "precision"},
                  help="full bundled verification")
    ver.add_argument("number", type=int, choices=(1, 2, 3))
    return ap


def main(argv=None):
    args = _build_parser(shutil.get_terminal_size().columns).parse_args(argv)
    try:
        code, records = args.run(_checked(args))
        text = "\n".join(map(format_report, records)) + "\n"
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write --out {args.out}: {exc}")
        else:
            sys.stdout.write(text)
    except (ConfigError, IngestionError, PadicPrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
