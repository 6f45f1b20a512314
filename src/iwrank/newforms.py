"""Newform coefficient ingestion.

Coefficient data is loaded from structured files (or the bundled set under
iwrank/data), validated against the Hecke relations, and adapted to
QExpansion for the congruence checks.  Eigenforms are
never recomputed here; only their stored coefficients are consumed.  The
residual Eisenstein partner of a form is built from the Teichmuller lifts
of its residual characters, passed in as Dirichlet characters.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from importlib import resources
from itertools import chain
from math import lcm
from operator import mul
from types import MappingProxyType

from . import kernels
from .characters import DirichletCharacter, parse_descriptor
from .numfield import NFElement, NumberField, _reduce
from .qseries import (
    CongruenceIdealSpec, QExpansion, eisenstein_series, sigma0_and_m,
)


class IngestionError(ValueError):
    pass


def _parse_frac(s) -> Fraction:
    """A coefficient entry as Fraction(s) reads it (so a JSON float is
    never truncated, and "1_0" or " 3" read as Fraction reads them)."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise IngestionError(f"bad coefficient entry {s!r}") from exc


def _parse_vectors(raw_an, deg: int) -> tuple[list[int], list[int]]:
    """Numerators and denominators > 0 of all entries in order, the values
    _parse_frac gives them.  Lists of deg plain "n" or "n/d" strings, as
    in the bundled files, are read in one pass with no Fraction built."""
    plain = set(map(type, raw_an)) <= {list} and set(map(len, raw_an)) <= {deg}
    entries = list(chain.from_iterable(raw_an)) if plain else []
    text = "\n".join(entries) + "\n" if set(map(type, entries)) == {str} else ""
    # one plain entry per line; the count rules out an entry holding a "\n"
    lines = r"(?:-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?\n)*"
    if plain and text.count("\n") == len(entries) and re.fullmatch(lines, text):
        if "/" not in text:
            return list(map(int, entries)), [1] * len(entries)
        ints = list(map(int, "/".join([c if "/" in c else c + "/1"
                                       for c in entries]).split("/")))
        return ints[::2], ints[1::2]
    fracs = []  # the first bad vector or entry raises
    for i, vec in enumerate(raw_an):
        if type(vec) is not list:
            raise IngestionError(f"coefficient {i + 1} is not a list of entries")
        if len(vec) != deg:
            raise IngestionError(
                f"coefficient {i + 1} has {len(vec)} entries, expected {deg}")
        fracs += map(_parse_frac, vec)
    return [c.numerator for c in fracs], [c.denominator for c in fracs]


def _check_integrality(an, field: NumberField):
    """Raise IngestionError at the first (nums, den) in `an` that is not an
    algebraic integer of `field`: nums/den is one when the coefficients
    e_k / den^k of its characteristic polynomial are integers, for e_k
    those of nums, which Newton's identities give from tr(nums^k).  Z[x]
    holds only algebraic integers, so nums mod den decides it."""
    f, d = field.poly, field.degree
    # the trace is linear, so tr(nums^k) is read off the product
    # nums^(k-1) nums before its reduction, through tr x^m for m <= 2d - 2:
    # the power sums of the roots of f, by Newton's identities on f
    traces = [d]
    for m in range(1, 2 * d - 1):
        traces.append((-m * f[d - m] if m <= d else 0)
                      - sum(f[d - i] * traces[m - i] for i in range(1, min(m, d + 1))))

    @cache
    def integral(nums, den):
        product, p, e = nums, [], [1]
        for k in range(1, d + 1):
            if k > 1:
                product = kernels.convolve(_reduce(product, field), nums)
            p.append(sum(map(mul, product, traces)))
            # k e_k = sum over i < k of (-1)^i e_(k-1-i) p_(i+1)
            e.append(sum((-1) ** i * e[k - 1 - i] * p[i] for i in range(k)) // k)
            if e[k] % den ** k:
                return False
        return True

    for index, (nums, den) in enumerate(an):
        if den != 1 and not integral(tuple(c % den for c in nums), den):
            value = ", ".join(str(Fraction(c, den)) for c in nums)
            raise IngestionError(f"coefficient {index + 1} is not an algebraic "
                                 f"integer: entries {value}")


class NewformData:
    """Validated coefficients a(1..n_max) of one newform: ints in `an` (or
    (numerators, denominator) pairs over a field), elements from `a`.
    `an` and `seed_root_mod_p` are read-only: a bundled form is shared."""

    def __init__(self, label, level, weight, nebentypus, field_poly, an,
                 seed_root_mod_p=None, source=""):
        self.label = label
        self.level = level
        self.weight = weight
        self.nebentypus = nebentypus
        self.field_poly = tuple(int(c) for c in field_poly)
        self.field = None if len(self.field_poly) == 2 else NumberField(self.field_poly)
        self.an = tuple(an)
        self.seed_root_mod_p = MappingProxyType(dict(seed_root_mod_p or {}))
        self.source = source
        self._validate()

    # --- construction ---

    @classmethod
    def from_dict(cls, payload) -> "NewformData":
        try:
            label = payload["label"]
            level = int(payload["level"])
            weight = int(payload["weight"])
            neb = parse_descriptor(payload["nebentypus"])
            poly = [int(c) for c in payload["field_poly"]]
            raw_an = list(payload["an"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestionError(f"malformed newform record: {exc}") from exc
        if len(poly) < 2 or poly[-1] != 1:
            raise IngestionError("field_poly must be monic of degree >= 1")
        deg = len(poly) - 1
        nums, dens = _parse_vectors(raw_an, deg)
        if deg == 1:
            # a newform's coefficients are algebraic integers
            bad = next((i for i, d in enumerate(dens) if d != 1), None)
            if bad is not None:
                raise IngestionError(f"coefficient {bad + 1} is not an integer: "
                                     f"{Fraction(nums[bad], dens[bad])}")
            an = nums
        else:
            # each coefficient over the lcm of its entries' denominators
            common = list(map(lcm, *(dens[j::deg] for j in range(deg))))
            scaled = [n * (common[i // deg] // d)
                      for i, (n, d) in enumerate(zip(nums, dens))]
            an = list(zip(zip(*[iter(scaled)] * deg), common))
            _check_integrality(an, NumberField(poly))
        seeds = {int(p): int(r) for p, r in payload.get("seed_root_mod_p", {}).items()}
        return cls(label, level, weight, neb, poly, an,
                   seed_root_mod_p=seeds, source=payload.get("source", ""))

    # --- validation ---

    def _validate(self):
        if self.level < 1 or self.weight < 1:
            raise IngestionError("level and weight must be positive")
        if not self.an:
            raise IngestionError("no coefficients")
        if self.a(1) != 1:
            raise IngestionError("a(1) must be 1 (arithmetic normalization)")
        if self.level % self.nebentypus.modulus != 0:
            raise IngestionError("nebentypus modulus must divide the level")
        for ell in (2, 3, 5, 7):
            if ell * ell > self.n_max:
                break
            a_l, a_l2 = self.a(ell), self.a(ell * ell)
            if self.level % ell == 0:
                expect = a_l * a_l
            else:
                chi_l = self.nebentypus(ell)
                chi_l = chi_l.rational_value() if hasattr(chi_l, "rational_value") else chi_l
                expect = a_l * a_l - chi_l * ell ** (self.weight - 1)
            if a_l2 != expect:
                raise IngestionError(
                    f"{self.label}: Hecke relation fails at {ell}^2")
        for m, n in ((2, 3), (3, 4), (2, 7), (5, 7)):
            if m * n > self.n_max:
                continue
            if self.a(m * n) != self.a(m) * self.a(n):
                raise IngestionError(
                    f"{self.label}: multiplicativity fails at {m}*{n}")

    # --- access ---

    @property
    def n_max(self) -> int:
        return len(self.an)

    def a(self, n: int):
        if not 1 <= n <= self.n_max:
            raise IndexError(f"coefficient a({n}) outside stored range")
        c = self.an[n - 1]
        return Fraction(c) if self.field is None else NFElement(self.field, *c)

    @property
    def is_rational(self) -> bool:
        return self.field is None

    def q_expansion(self, n_max=None) -> QExpansion:
        if n_max is None:
            n_max = self.n_max
        if n_max > self.n_max:
            raise IngestionError(
                f"{self.label}: requested {n_max} coefficients, have {self.n_max}")
        zero = Fraction(0) if self.field is None else self.field.zero()
        return QExpansion(self.weight, self.level, self.nebentypus,
                          [zero] + [self.a(n) for n in range(1, n_max + 1)],
                          label=self.label)

    def congruence_ideal(self, p: int) -> CongruenceIdealSpec:
        """The stored degree-one prime above p."""
        if self.field is None:
            return CongruenceIdealSpec(p)
        if p not in self.seed_root_mod_p:
            raise IngestionError(
                f"{self.label}: no seed root above p={p} in the data file")
        return CongruenceIdealSpec(p, field_poly=self.field_poly,
                                   seed=self.seed_root_mod_p[p])


def bundled_labels():
    names = (entry.name for entry in resources.files("iwrank.data").iterdir())
    return sorted(name[:-5] for name in names if name.endswith(".json"))


@cache  # once per process; a failed load raises and is not cached
def bundled(label: str) -> NewformData:
    res = resources.files("iwrank.data").joinpath(f"{label}.json")
    try:
        payload = json.loads(res.read_text())
    except (FileNotFoundError, OSError) as exc:
        raise IngestionError(
            f"no bundled newform {label!r}; available: {bundled_labels()}") from exc
    return NewformData.from_dict(payload)


# residual Eisenstein partner ------------------------------------------


def _prime_to_p(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def residual_eisenstein_partner(p: int, xi1: DirichletCharacter,
                                xi2: DirichletCharacter, level: int, l: int,
                                n_max: int):
    """The Eisenstein series congruent to a weight-l form of the given
    level with residual pair (xi1_bar, xi2_bar), and its multiplier:
    (g = E_l(xi1 w^(1-l), xi2), m).  xi1 and xi2 are the Teichmuller lifts
    of the residual characters; xi2 must be unramified at p."""
    if xi2.modulus % p == 0:
        raise ValueError("xi2 must be presented prime to p")
    omega = DirichletCharacter.teichmuller(p)
    theta = xi1 * omega ** ((1 - l) % (p - 1))
    parity = xi1.parity() * xi2.parity() * omega.parity() ** ((1 - l) % 2)
    if parity != (-1) ** l:
        raise ValueError("parity violation: xi1 xi2 w^(1-l)(-1) != (-1)^l")
    if theta.is_trivial() and l == 2 and xi2.is_trivial():
        # trivial values mod p: the holomorphic combination E2(z) - p E2(pz)
        theta = DirichletCharacter.trivial(p)
    else:
        theta = theta.primitive_part()
    g = eisenstein_series(theta, xi2.primitive_part(), l, n_max)
    # the residual pair is unramified away from p: tame conductor 1
    _, m = sigma0_and_m(_prime_to_p(level, p), 1)
    return g, m
