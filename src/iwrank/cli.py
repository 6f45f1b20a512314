"""Command-line surface: character and Eisenstein inspection, congruence
checks, symbol tables, branch L-series, and the bundled verification runs.

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
from functools import partial

from .arith import is_prime
from .characters import DirichletCharacter, parse_descriptor
from .examples import EXAMPLES, VerificationReport, run_example, symbol_pair
from .iwasawa import PadicSeries, UndeterminedInvariants, ideal_mod_pi, mu_lambda
from .modsym import twist_symbol
from .newforms import (
    IngestionError,
    NewformData,
    _prime_to_p,
    bundled,
    bundled_labels,
    residual_eisenstein_partner,
)
from .padic_l import (
    OrdinarityError,
    branch_family,
    branch_report,
    branch_value_trivial,
    format_report,
    product_congruence_verdict,
)
from .padics import PadicPrecisionError
from .qseries import (
    check_congruence,
    eisenstein_series,
    sigma0_and_m,
    sturm_bound,
)


class ConfigError(Exception):
    pass


# --- configuration ----------------------------------------------------


class JobConfig:
    """Validated run parameters shared by the computing commands."""

    def __init__(self, prime=None, precision=None, newforms=(), chars=(),
                 branches=None, out=None):
        if prime is not None:
            if prime < 3 or prime % 2 == 0:
                raise ConfigError(f"prime must be odd, got {prime}")
            if not is_prime(prime):
                raise ConfigError(f"{prime} is not prime")
        self.prime = prime
        if precision is None:
            precision = (8, prime if prime else 8)
        m, d = precision
        if m < 1 or d < 1:
            raise ConfigError(f"precision components must be positive: {m},{d}")
        self.precision = (m, d)
        self.newforms = tuple(newforms)
        self.chars = tuple(chars)
        if branches is not None and prime is not None:
            a, b = branches
            if a > b:
                raise ConfigError(f"empty branch range {a}..{b}")
            if b - a > prime - 2:
                raise ConfigError(
                    f"branch range {a}..{b} repeats residues mod {prime - 1}")
        self.branches = branches
        self.out = out

    def wild_level(self, p=None):
        """D must be p^n (p defaults to --prime) for the branch-series
        layout; return n."""
        p = p or self.prime
        d = self.precision[1]
        n = 0
        while d % p == 0:
            d //= p
            n += 1
        if d != 1 or n < 1:
            raise ConfigError(
                f"series length {self.precision[1]} is not a power of {p}")
        return n


def _parse_precision(text):
    try:
        m, d = text.split(",")
        return int(m), int(d)
    except ValueError as exc:
        raise ConfigError(f"--precision wants M,D, got {text!r}") from exc


def _parse_branches(text):
    try:
        a, b = text.split("..")
        return int(a), int(b)
    except ValueError as exc:
        raise ConfigError(f"--branches wants a..b, got {text!r}") from exc


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


def _config_from(args):
    prec = _parse_precision(args.precision) if args.precision else None
    branches = _parse_branches(args.branches) if args.branches else None
    return JobConfig(
        prime=args.prime,
        precision=prec,
        newforms=tuple(args.newform or ()),
        chars=tuple(args.char or ()),
        branches=branches,
        out=args.out,
    )


class _Sink:
    """Collects report lines and writes them to --out or stdout."""

    def __init__(self, out=None):
        self.out = out
        self.lines = []

    def emit(self, line):
        self.lines.append(line)

    def emit_json(self, obj):
        self.emit(format_report(obj))

    def close(self):
        text = "\n".join(self.lines) + "\n"
        if self.out:
            try:
                with open(self.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write --out {self.out}: {exc}")
        else:
            sys.stdout.write(text)


# --- commands ---------------------------------------------------------


def cmd_chars(cfg):
    if not cfg.chars:
        raise ConfigError("chars needs at least one --char descriptor")
    sink = _Sink(cfg.out)
    for desc in cfg.chars:
        try:
            chi = parse_descriptor(desc)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad character descriptor {desc!r}: {exc}")
        prim = chi.primitive_part()
        values = {}
        for a in range(1, min(chi.modulus, 20) + 1):
            e = chi.value_exponent(a)
            if e is not None:
                values[str(a)] = e
        sink.emit_json({
            "descriptor": desc,
            "modulus": chi.modulus,
            "order": chi.order,
            "conductor": chi.conductor(),
            "parity": chi.parity(),
            "trivial": chi.is_trivial(),
            "primitive_modulus": prim.modulus,
            "value_exponents": values,
            "value_convention": f"exponent k means zeta_{chi.order}^k",
        })
    sink.close()
    return 0


def cmd_eisenstein(cfg, weight, terms):
    if len(cfg.chars) != 2:
        raise ConfigError("eisenstein needs exactly two --char descriptors "
                          "(theta and phi)")
    if terms < 0:
        raise ConfigError(f"--terms must be >= 0, got {terms}")
    try:
        theta = parse_descriptor(cfg.chars[0])
        phi = parse_descriptor(cfg.chars[1])
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad character descriptor: {exc}")
    try:
        series = eisenstein_series(theta, phi, weight, terms)
    except ValueError as exc:
        raise ConfigError(str(exc))
    sink = _Sink(cfg.out)
    sink.emit_json({
        "label": series.label,
        "weight": series.weight,
        "level": series.level,
        "coefficients": [str(series.a(n)) for n in range(terms + 1)],
    })
    sink.close()
    return 0


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


def cmd_congruence(cfg):
    if cfg.prime is None:
        raise ConfigError("congruence needs --prime")
    if len(cfg.newforms) != 1:
        raise ConfigError("congruence needs exactly one --newform")
    h = _load_newform(cfg.newforms[0])
    p = cfg.prime
    # the series are compared through the Sturm bound, so built that far
    bound = sturm_bound(h.weight, h.level)
    try:
        ideal = h.congruence_ideal(p)
        _check_cyclotomic_pattern(h, p)
        g, m = residual_eisenstein_partner(
            p, DirichletCharacter.teichmuller(p), DirichletCharacter.trivial(1),
            h.level, h.weight, bound)
        hq = h.q_expansion(bound)
        dep = check_congruence(hq.deplete(p), g.deplete(p), ideal, bound)
    except (IngestionError, ValueError) as exc:
        raise ConfigError(str(exc))
    sigma0 = list(sigma0_and_m(_prime_to_p(h.level, p), 1)[0])
    rep = VerificationReport(h.label)
    rep.add("congruence.m", "congruence multiplier", True, m, m, "exact")
    rep.add("congruence.sigma0", "primes needing imprimitive Euler factors",
            True, sigma0, sigma0, "exact")
    rep.add("congruence.partner",
            f"{h.label} matches its residual Eisenstein partner through the "
            f"Sturm bound away from {p}",
            dep.ok, f"checked={dep.checked} mismatches={len(dep.mismatches)}",
            "0 mismatches", "exact")
    try:
        own = check_congruence(g, g, ideal, bound)
        rep.add("congruence.self", "the partner matches itself", own.ok,
                f"checked={own.checked} mismatches={len(own.mismatches)}",
                "0 mismatches", "exact")
    except ValueError as exc:
        # a coefficient that does not reduce mod the ideal (the partner's
        # a(0) = (p - 1)/24 at p = 3) leaves the self-check undefined
        rep.skip("congruence.self", "the partner matches itself", exc)
    sink = _Sink(cfg.out)
    for line in rep.to_lines():
        sink.emit(line)
    sink.close()
    return 1 if rep.failures() else 0


def _symbol_for(cfg, nf):
    """Build the (possibly twisted) symbol pair for a table or L-series."""
    try:
        pair = symbol_pair(nf)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not cfg.chars:
        return pair
    if len(cfg.chars) > 1:
        raise ConfigError("at most one --char twist is supported here")
    try:
        chi = parse_descriptor(cfg.chars[0])
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad character descriptor: {exc}")
    try:
        return twist_symbol(pair, chi, cfg.prime,
                            label=f"{nf.label}x{cfg.chars[0]}")
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_modsym_table(cfg):
    if cfg.prime is None:
        raise ConfigError("modsym-table needs --prime")
    if len(cfg.newforms) != 1:
        raise ConfigError("modsym-table needs exactly one --newform")
    nf = _load_newform(cfg.newforms[0])
    sym = _symbol_for(cfg, nf)
    p = cfg.prime
    sink = _Sink(cfg.out)
    scales = getattr(sym, "scales", None)
    sink.emit_json({
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
    })
    plus, minus = sym.evaluate_row(p, +1), sym.evaluate_row(p, -1)
    for b in range(1, p):
        sink.emit_json({
            "b": b,
            "plus": str(plus[b] - plus[0]),
            "minus": str(minus[b] - minus[0]),
        })
    sink.close()
    return 0


def _sigma0_factors(specs):
    out = []
    for text in specs or ():
        try:
            ell_s, coeff_s = text.split(":")
            ell = int(ell_s)
            coeffs = tuple(Fraction(c) for c in coeff_s.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"--sigma0 wants ell:c0,c1,..., got {text!r}") from exc
        out.append((ell, coeffs))
    return tuple(out)


def cmd_padic_l(cfg, sigma0_specs=None):
    if cfg.prime is None:
        raise ConfigError("padic-l needs --prime")
    if len(cfg.newforms) != 1:
        raise ConfigError("padic-l needs exactly one --newform")
    nf = _load_newform(cfg.newforms[0])
    p = cfg.prime
    if p > nf.n_max:
        raise ConfigError(
            f"{nf.label} stores a(1..{nf.n_max}), so a({p}) is unknown")
    ap = nf.a(p)
    sym = _symbol_for(cfg, nf)
    n = cfg.wild_level()
    span = p - 1
    lo, hi = cfg.branches if cfg.branches else (1, span)
    factors = _sigma0_factors(sigma0_specs)
    if cfg.chars:
        chi = parse_descriptor(cfg.chars[0])
        if chi.order > 2:
            raise ConfigError(
                "only quadratic twists keep the Hecke data rational; "
                f"{cfg.chars[0]} has order {chi.order}")
        e = chi.value_exponent(p)
        if e is None:
            raise ConfigError(f"twist character ramified at {p}")
        if e:
            ap = -ap  # the twist multiplies a_p by chi(p) = -1
    # each record reads its branch and the partner branch
    wanted = {(j - 1) % span + 1 for j in range(lo, hi + 1)}
    wanted |= {jj % span + 1 for jj in wanted}
    try:
        alpha, _, series = branch_family(sym, ap, p, n, cfg.precision[0],
                                         factors, branches=wanted)
    except (OrdinarityError, ValueError) as exc:
        # no unit root, or a sigma0 factor at p or repeated
        raise ConfigError(str(exc))
    sink = _Sink(cfg.out)
    for j in range(lo, hi + 1):
        jj = (j - 1) % span + 1
        value = branch_value_trivial(sym, p, alpha, jj)
        verdict = product_congruence_verdict(series[jj], series[jj % span + 1])
        sink.emit(format_report(branch_report(
            series[jj], value=value, exact_zero=value.is_zero(), verdict=verdict)))
    sink.close()
    return 0


def cmd_iwasawa(cfg, coeff_text):
    if cfg.prime is None:
        raise ConfigError("iwasawa needs --prime")
    if not coeff_text:
        raise ConfigError("iwasawa needs --coeffs c0,c1,...")
    try:
        coeffs = [Fraction(c) for c in coeff_text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --coeffs: {exc}")
    m, d = cfg.precision
    if len(coeffs) > d:
        raise ConfigError(
            f"{len(coeffs)} coefficients exceed series length {d}")
    f = PadicSeries(cfg.prime, m, d, coeffs)
    sink = _Sink(cfg.out)
    code = 0
    try:
        mu, lam = mu_lambda(f)
        sink.emit_json({
            "mu": mu,
            "lambda": lam,
            "precision": str(f.M - mu),  # digits left after dividing by p^mu
            "ideal_mod_pi": ideal_mod_pi(f),
        })
    except UndeterminedInvariants as exc:
        sink.emit_json({"undetermined": str(exc)})
        code = 1
    sink.close()
    return code


def cmd_verify_example(cfg, number, precision_given):
    if number not in EXAMPLES:
        raise ConfigError(f"verify-example wants 1, 2, or 3, got {number}")
    p = EXAMPLES[number]["p"]
    if cfg.prime not in (None, p):
        raise ConfigError(
            f"example {number} runs at p = {p}, not at --prime {cfg.prime}")
    M, wild = 8, 1
    if precision_given:
        M, wild = cfg.precision[0], cfg.wild_level(p)
    rep = run_example(number, wild_level=wild, M=M)
    sink = _Sink(cfg.out)
    for line in rep.to_lines():
        sink.emit(line)
    npass, nfail, nskip = rep.counts()
    sink.emit_json({
        "example": number,
        "pass": npass,
        "fail": nfail,
        "skipped": nskip,
        "ok": rep.ok,
    })
    sink.close()
    return 0 if rep.ok else 1


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


def _build_parser():
    # one terminal-width probe, not one per HelpFormatter (per add_argument)
    fmt = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
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

    def command(name, run, **kw):
        p = sub.add_parser(name, parents=[common], formatter_class=fmt, **kw)
        p.set_defaults(run=run)  # run(cfg, args) is the command's exit code
        return p

    command("chars", lambda cfg, a: cmd_chars(cfg), help="describe Dirichlet characters")
    eis = command("eisenstein", lambda cfg, a: cmd_eisenstein(cfg, a.weight, a.terms),
                  help="Eisenstein q-expansion")
    eis.add_argument("--weight", type=int, required=True)
    eis.add_argument("--terms", type=int, default=20)
    command("congruence", lambda cfg, a: cmd_congruence(cfg),
            help="residual Eisenstein congruence")
    command("modsym-table", lambda cfg, a: cmd_modsym_table(cfg),
            help="symbol values at the p-division points")
    pl = command("padic-l", lambda cfg, a: cmd_padic_l(cfg, a.sigma0),
                 help="branch L-values and series")
    pl.add_argument("--sigma0", action="append", default=None,
                    metavar="ELL:C0,C1,...",
                    help="imprimitive Euler factor at ELL")
    iw = command("iwasawa", lambda cfg, a: cmd_iwasawa(cfg, a.coeffs),
                 help="invariants of a power series")
    iw.add_argument("--coeffs", default=None, metavar="C0,C1,...")
    ver = command("verify-example",
                  lambda cfg, a: cmd_verify_example(cfg, a.number, a.precision is not None),
                  help="full bundled verification")
    ver.add_argument("number", type=int, choices=(1, 2, 3))
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.run(_config_from(args), args)
    except (ConfigError, IngestionError, PadicPrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
