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
import sys
from fractions import Fraction

from .characters import DirichletCharacter, ResidualCharacter, parse_descriptor
from .examples import EXAMPLES, run_example
from .iwasawa import (
    IwasawaContext,
    UndeterminedInvariants,
    ideal_mod_pi,
    invariants,
)
from .newforms import (
    IngestionError,
    NewformData,
    ResidualPair,
    bundled,
    bundled_labels,
    residual_eisenstein_partner,
)
from .padic_l import (
    DEFAULT_DIGITS,
    OrdinarityError,
    apply_sigma0,
    branch_report,
    branch_series,
    branch_value_trivial,
    choose_alpha,
    format_report,
    product_congruence_verdict,
    working_precision,
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
                 branches=None, cache_dir=None, out=None):
        if prime is not None:
            if prime < 3 or prime % 2 == 0:
                raise ConfigError(f"prime must be odd, got {prime}")
            for q in range(2, prime):
                if q * q > prime:
                    break
                if prime % q == 0:
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
        self.cache_dir = cache_dir or os.environ.get("IWR_CACHE")
        self.out = out

    def wild_level(self):
        """D must be p^n for the branch-series layout; return n."""
        p = self.prime
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
        cache_dir=args.cache_dir,
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
        self.emit(json.dumps(obj, sort_keys=True, separators=(", ", ": ")))

    def close(self):
        text = "\n".join(self.lines) + "\n"
        if self.out:
            with open(self.out, "w") as fh:
                fh.write(text)
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


def _derive_residual_pair(h, p):
    """Infer (xi1_bar, xi2_bar) from the coefficients at the stored prime.

    Currently recognizes the cyclotomic pattern a_ell = 1 + ell mod the
    prime, whose residual pair is (omega_bar, 1)."""
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
    return ResidualPair(p, ResidualCharacter.teichmuller(p),
                        ResidualCharacter.trivial(1, p), h.level)


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
        hbar = _derive_residual_pair(h, p)
        xi1, xi2, g, m = residual_eisenstein_partner(hbar, h.weight, bound)
        hq = h.q_expansion(bound)
        # a coefficient that does not reduce mod the ideal (the partner's
        # a(0) = (p - 1)/24 at p = 3) leaves the congruence undefined
        dep = check_congruence(hq.deplete(p), g.deplete(p), ideal, bound)
        self_rep = check_congruence(g, g, ideal, bound)
    except (IngestionError, ValueError) as exc:
        raise ConfigError(str(exc))
    lvl = h.level
    while lvl % p == 0:
        lvl //= p
    sigma0, _ = sigma0_and_m(lvl, 1)
    sink = _Sink(cfg.out)
    ok = True
    for rec in (
        {"check_id": "congruence.m", "claim": "congruence multiplier",
         "status": "pass", "computed": str(m), "expected": str(m),
         "tolerance_kind": "exact"},
        {"check_id": "congruence.sigma0",
         "claim": "primes needing imprimitive Euler factors",
         "status": "pass", "computed": str(list(sigma0)),
         "expected": str(list(sigma0)), "tolerance_kind": "exact"},
        {"check_id": "congruence.partner",
         "claim": f"{h.label} matches its residual Eisenstein partner "
                  f"through the Sturm bound away from {p}",
         "status": "pass" if dep.ok else "fail",
         "computed": f"checked={dep.checked} mismatches={len(dep.mismatches)}",
         "expected": "0 mismatches", "tolerance_kind": "exact"},
        {"check_id": "congruence.self",
         "claim": "the partner matches itself",
         "status": "pass" if self_rep.ok else "fail",
         "computed": f"checked={self_rep.checked} "
                     f"mismatches={len(self_rep.mismatches)}",
         "expected": "0 mismatches", "tolerance_kind": "exact"},
    ):
        ok = ok and rec["status"] == "pass"
        sink.emit_json(rec)
    sink.close()
    return 0 if ok else 1


def _symbol_for(cfg, nf):
    """Build the (possibly twisted) symbol pair for a table or L-series."""
    from .examples import _TARGET_PRIMES, _symbol_pair
    from .modsym import twist_symbol

    if nf.label not in _TARGET_PRIMES:
        raise ConfigError(
            f"no stored Hecke probes for {nf.label}; symbol commands "
            f"currently cover the bundled rational forms")
    pair = _symbol_pair(nf, cfg.cache_dir)
    if not cfg.chars:
        return pair
    if len(cfg.chars) > 1:
        raise ConfigError("at most one --char twist is supported here")
    try:
        chi = parse_descriptor(cfg.chars[0])
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad character descriptor: {exc}")
    p = cfg.prime
    probes = [Fraction(0)] + [Fraction(b, p) for b in range(1, p)]
    return twist_symbol(pair, chi, probes, label=f"{nf.label}x{cfg.chars[0]}")


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
    for b in range(1, p):
        r = Fraction(b, p)
        sink.emit_json({
            "b": b,
            "plus": str(sym.evaluate_from_zero(r, +1)),
            "minus": str(sym.evaluate_from_zero(r, -1)),
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
    sym = _symbol_for(cfg, nf)
    n = cfg.wild_level()
    m = cfg.precision[0]
    span = p - 1
    lo, hi = cfg.branches if cfg.branches else (1, span)
    factors = _sigma0_factors(sigma0_specs)
    try:
        if cfg.chars:
            chi = parse_descriptor(cfg.chars[0])
            if chi.order > 2:
                raise ConfigError(
                    "only quadratic twists keep the Hecke data rational; "
                    f"{cfg.chars[0]} has order {chi.order}")
            e = chi.value_exponent(p)
            if e is None:
                raise ConfigError(f"twist character ramified at {p}")
            # the twist multiplies a_p by chi(p) = +-1
            ap = (-1 if e else 1) * nf.a(p)
        else:
            ap = nf.a(p)
        digits = max(DEFAULT_DIGITS, working_precision(sym, p, n, m))
        alpha = choose_alpha(ap, p, sym.level, prec=digits)
    except OrdinarityError as exc:
        raise ConfigError(str(exc))
    ctx = IwasawaContext(p, M=m, D=p ** n)
    series = {}
    for j in range(1, span + 1):
        bs = branch_series(sym, p, alpha, j, n=n, ctx=ctx,
                           twist_label=getattr(sym, "label", nf.label))
        series[j] = apply_sigma0(bs, factors, ctx=ctx) if factors else bs
    sink = _Sink(cfg.out)
    for j in range(lo, hi + 1):
        jj = (j - 1) % span + 1
        partner = jj % span + 1
        value = branch_value_trivial(sym, p, alpha, jj)
        verdict = product_congruence_verdict(series[jj], series[partner])
        sink.emit(format_report(branch_report(
            series[jj], value=value, exact_zero=value.zero, verdict=verdict)))
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
    ctx = IwasawaContext(cfg.prime, M=m, D=d)
    if len(coeffs) > d:
        raise ConfigError(
            f"{len(coeffs)} coefficients exceed series length {d}")
    f = ctx.series(coeffs)
    sink = _Sink(cfg.out)
    code = 0
    try:
        w = invariants(f)
        sink.emit_json({
            "mu": w.mu,
            "lambda": w.lam,
            "precision": str(w.precision),
            "ideal_mod_pi": str(ideal_mod_pi(f)),
        })
    except UndeterminedInvariants as exc:
        sink.emit_json({"undetermined": str(exc)})
        code = 1
    sink.close()
    return code


def cmd_verify_example(cfg, number):
    if number not in EXAMPLES:
        raise ConfigError(f"verify-example wants 1, 2, or 3, got {number}")
    wild = 1
    if cfg.precision and cfg.prime:
        wild = cfg.wild_level()
    rep = run_example(number, cache_dir=cfg.cache_dir, wild_level=wild,
                      M=cfg.precision[0] if cfg.precision else 8)
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


def _add_common(parser, suppress):
    """The shared flags; subcommand copies suppress their defaults so a
    value parsed before the subcommand is not clobbered afterwards."""
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--prime", type=int, default=d, help="odd prime p")
    parser.add_argument("--precision", default=d, metavar="M,D",
                        help="p-adic digits M and series length D")
    parser.add_argument("--cache-dir", default=d,
                        help="symbol-space cache (default: $IWR_CACHE)")
    parser.add_argument("--out", default=d,
                        help="write the report here instead of stdout")
    parser.add_argument("--newform", action="append", default=d,
                        metavar="FILE|LABEL",
                        help=f"newform JSON file or bundled label "
                             f"({', '.join(bundled_labels())})")
    parser.add_argument("--char", action="append", default=d,
                        metavar="DESCRIPTOR",
                        help="character descriptor, e.g. quad-23 or teich5^2")
    parser.add_argument("--branches", default=d, metavar="a..b",
                        help="branch range (reduced mod p-1)")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="iwrank",
        description="analytic Iwasawa invariants at Eisenstein primes",
    )
    _add_common(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, **kw):
        p = sub.add_parser(name, **kw)
        _add_common(p, suppress=True)
        return p

    command("chars", help="describe Dirichlet characters")
    eis = command("eisenstein", help="Eisenstein q-expansion")
    eis.add_argument("--weight", type=int, required=True)
    eis.add_argument("--terms", type=int, default=20)
    command("congruence", help="residual Eisenstein congruence")
    command("modsym-table", help="symbol values at the p-division points")
    pl = command("padic-l", help="branch L-values and series")
    pl.add_argument("--sigma0", action="append", default=None,
                    metavar="ELL:C0,C1,...",
                    help="imprimitive Euler factor at ELL")
    iw = command("iwasawa", help="invariants of a power series")
    iw.add_argument("--coeffs", default=None, metavar="C0,C1,...")
    ver = command("verify-example", help="full bundled verification")
    ver.add_argument("number", type=int, choices=(1, 2, 3))
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "chars":
            return cmd_chars(cfg)
        if args.command == "eisenstein":
            return cmd_eisenstein(cfg, args.weight, args.terms)
        if args.command == "congruence":
            return cmd_congruence(cfg)
        if args.command == "modsym-table":
            return cmd_modsym_table(cfg)
        if args.command == "padic-l":
            return cmd_padic_l(cfg, args.sigma0)
        if args.command == "iwasawa":
            return cmd_iwasawa(cfg, args.coeffs)
        if args.command == "verify-example":
            return cmd_verify_example(cfg, args.number)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, IngestionError, PadicPrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
