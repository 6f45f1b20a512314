"""Dirichlet characters in generator-exponent form.

A character mod N is stored by its values on the canonical generators of
(Z/N)^x (CRT over prime powers; for 2^e >= 8 the pair -1, 5).  Values are
roots of unity zeta_order^k kept as exponents.  One table per character,
built on first read by a walk over the unit group, holds k for every
a mod N; single values, parity, conductor and restriction are read off
it, and cyclotomic numbers only appear on evaluation and in Gauss sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from iwrank.arith import factorize, is_prime
from iwrank.cyclotomic import CyclotomicNumber
from iwrank.padics import smallest_primitive_root


@dataclass(frozen=True)
class UnitGenerator:
    gen: int    # generator of (Z/N)^x supported at one prime-power component
    order: int  # multiplicative order of gen


_structure_cache: dict[int, tuple[UnitGenerator, ...]] = {}


def unit_group_generators(modulus: int) -> tuple[UnitGenerator, ...]:
    """Canonical generators of (Z/modulus)^x, one or two per prime power."""
    if modulus in _structure_cache:
        return _structure_cache[modulus]
    if modulus < 1:
        raise ValueError("modulus must be positive")
    gens: list[UnitGenerator] = []
    for r, e in factorize(modulus):
        q = r**e
        rest = modulus // q
        locals_: list[tuple[int, int]] = []
        if r == 2:
            if e == 2:
                locals_.append((3, 2))
            elif e >= 3:
                locals_.append((q - 1, 2))
                locals_.append((5, 2 ** (e - 2)))
        else:
            g = smallest_primitive_root(r)
            # lift to a generator of (Z/r^e)^x
            if e > 1 and pow(g, r - 1, r * r) == 1:
                g += r
            locals_.append((g, (r - 1) * r ** (e - 1)))
        for g, d in locals_:
            gens.append(UnitGenerator(_crt_unit_lift(g, q, rest), d))
    out = tuple(gens)
    _structure_cache[modulus] = out
    return out


def _crt_unit_lift(a: int, q: int, rest: int) -> int:
    """The integer in [0, q rest) that is a mod q and 1 mod rest, for
    coprime q and rest."""
    if rest == 1:
        return a % q
    return 1 + rest * ((a - 1) * pow(rest, -1, q) % q)


class DirichletCharacter:
    """chi mod `modulus` with chi(gen_i) = zeta_order^{exponents[i]}."""

    __slots__ = ("modulus", "order", "exponents", "_table", "_cond")

    def __init__(self, modulus: int, exponents, order: int):
        if order < 1:
            raise ValueError(f"character order must be positive, got {order}")
        gens = unit_group_generators(modulus)
        exps = tuple(int(e) % order for e in exponents)
        if len(exps) != len(gens):
            raise ValueError(f"need {len(gens)} exponents for modulus {modulus}")
        for ug, k in zip(gens, exps):
            if (ug.order * k) % order != 0:
                raise ValueError("exponent incompatible with generator order")
        self.modulus = modulus
        self.order = order
        self.exponents = exps
        self._table = None
        self._cond = None

    # constructors -----------------------------------------------------

    @classmethod
    def trivial(cls, modulus: int) -> "DirichletCharacter":
        return cls(modulus, [0] * len(unit_group_generators(modulus)), 1)

    @classmethod
    def quadratic_by_discriminant(cls, disc: int) -> "DirichletCharacter":
        """Kronecker character of a fundamental discriminant."""
        if disc == 1:
            return cls.trivial(1)
        if not _is_fundamental_discriminant(disc):
            raise ValueError(f"{disc} is not a fundamental discriminant")
        modulus = abs(disc)
        gens = unit_group_generators(modulus)
        exps = []
        for ug in gens:
            v = kronecker(disc, ug.gen)
            if v == 0:
                raise ArithmeticError("kronecker vanished on a unit")
            exps.append(0 if v == 1 else 1)
        order = 2 if any(exps) else 1
        return cls(modulus, exps, order)

    @classmethod
    def teichmuller(cls, p: int, power: int = 1) -> "DirichletCharacter":
        """omega_p^power: modulus p, omega_p(g) = zeta_{p-1} on the least
        primitive root g."""
        if p < 3 or not is_prime(p):
            raise ValueError(f"teich<p> needs an odd prime p, got {p}")
        k = power % (p - 1)
        if k == 0:
            return cls.trivial(p)
        order = (p - 1) // gcd(p - 1, k)
        return cls(p, [k * order // (p - 1)], order)

    # structure --------------------------------------------------------

    def generators(self) -> tuple[UnitGenerator, ...]:
        return unit_group_generators(self.modulus)

    def canonical(self) -> "DirichletCharacter":
        """Shrink the value order to the character's actual order."""
        o = 1
        for k in self.exponents:
            if k:
                o = lcm(o, self.order // gcd(self.order, k))
        if o == self.order:
            return self
        exps = [k * o // self.order for k in self.exponents]
        return DirichletCharacter(self.modulus, exps, o)

    def _value_exponents(self) -> list:
        """k with chi(a) = zeta_order^k for a = 0..modulus-1, None off the
        units: one walk over the unit group, a = prod gen_i^t_i running
        through every unit once with k = sum t_i k_i, kept on first read.
        The generator g of largest order goes last: the units of the
        others are listed with their k, and each coset u g^t is written
        into the table as it is walked, so no list of every unit is made."""
        if self._table is None:
            modulus, order = self.modulus, self.order
            gens = sorted(zip(self.generators(), self.exponents), key=lambda gk: gk[0].order)
            # (Z/N)^x is trivial for N <= 2: walk the generator 1 of order 1
            *rest, (last, k) = gens or [(UnitGenerator(1, 1), 0)]
            sub = [(1 % modulus, 0)]
            for ug, kg in rest:
                powers = [(pow(ug.gen, t, modulus), t * kg) for t in range(ug.order)]
                sub = [(a * x % modulus, (e + ex) % order) for a, e in sub for x, ex in powers]
            table = [None] * modulus
            g = last.gen
            for a, e in sub:
                for _ in range(last.order):
                    table[a] = e
                    a = a * g % modulus
                    e = (e + k) % order
            self._table = table
        return self._table

    def value_exponent(self, a: int) -> int | None:
        """k with chi(a) = zeta_order^k, or None when gcd(a, modulus) > 1."""
        return self._value_exponents()[a % self.modulus]

    def exponent_table(self, order: int | None = None) -> list:
        """k with chi(a) = zeta_order^k for a = 0..modulus-1, or None
        where gcd(a, modulus) > 1; `order` is a multiple of chi's and
        defaults to it."""
        table = self._value_exponents()
        scale = 1 if order is None else order // self.order
        if scale == 1:
            return list(table)
        return [None if k is None else k * scale for k in table]

    def __call__(self, a: int) -> CyclotomicNumber:
        k = self.value_exponent(a)
        if k is None:
            return CyclotomicNumber(self.order, [])
        return CyclotomicNumber.zeta(self.order, k)

    def is_trivial(self) -> bool:
        return all(k == 0 for k in self.exponents)

    def parity(self) -> int:
        """chi(-1) as +1 or -1."""
        k = self.value_exponent(-1)
        if k == 0:
            return 1
        if 2 * k % self.order == 0:
            return -1
        raise ArithmeticError("chi(-1) not +-1: broken character")

    # conductor / primitivity -------------------------------------------

    def conductor(self) -> int:
        """The least c | modulus with chi trivial on the units = 1 mod c:
        for each r^e || modulus = r^e s, the least r^f with chi trivial on
        the units = 1 mod s r^f."""
        if self._cond is None:
            table, cond = self._value_exponents(), 1
            for r, e in factorize(self.modulus):
                step = self.modulus // r**e  # s r^f; stops by f = e, as chi(1) = 1
                while any(table[1::step]):
                    step *= r
                    cond *= r
            self._cond = cond
        return self._cond

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    def primitive_part(self) -> "DirichletCharacter":
        c = self.conductor()
        if c == self.modulus:
            return self.canonical()
        return self.restrict_to(c).canonical()

    def restrict_to(self, m: int) -> "DirichletCharacter":
        """The character mod m inducing this one; needs conductor | m | modulus."""
        if self.modulus % m != 0 or m % self.conductor() != 0:
            raise ValueError("restriction target must sit between conductor and modulus")
        # chi is trivial on the units = 1 mod m, so every unit = gen mod m
        # carries the value at gen; the first one in the table will do
        table = self._value_exponents()
        exps = [next(k for k in table[ug.gen::m] if k is not None)
                for ug in unit_group_generators(m)]
        return DirichletCharacter(m, exps, self.order)

    def extend_to(self, m: int) -> "DirichletCharacter":
        """The character mod m (modulus | m) with the same primitive part."""
        if m % self.modulus != 0:
            raise ValueError("extension target must be a multiple of the modulus")
        gens_m = unit_group_generators(m)
        exps = [self.value_exponent(ug.gen) for ug in gens_m]
        if any(e is None for e in exps):
            raise ArithmeticError("generator not a unit for the base modulus")
        return DirichletCharacter(m, exps, self.order)

    # algebra ----------------------------------------------------------

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        m = lcm(self.modulus, other.modulus)
        a = self.extend_to(m)
        b = other.extend_to(m)
        order = lcm(a.order, b.order)
        exps = [
            (ka * order // a.order + kb * order // b.order) % order
            for ka, kb in zip(a.exponents, b.exponents)
        ]
        return DirichletCharacter(m, exps, order).canonical()

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(
            self.modulus, [(-k) % self.order for k in self.exponents], self.order
        )

    inverse = conjugate

    def __pow__(self, e: int) -> "DirichletCharacter":
        return DirichletCharacter(
            self.modulus, [k * e % self.order for k in self.exponents], self.order
        ).canonical()

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        if self.modulus != other.modulus:
            return False
        a, b = self.canonical(), other.canonical()
        return a.order == b.order and a.exponents == b.exponents

    def __hash__(self):
        c = self.canonical()
        return hash((c.modulus, c.order, c.exponents))

    # analytic ---------------------------------------------------------

    def gauss_sum(self) -> CyclotomicNumber:
        """G(chi) = sum_a chi0(a) e(a / cond), chi0 the primitive part."""
        chi0 = self.primitive_part()
        c = chi0.modulus
        if c == 1:
            return CyclotomicNumber.from_rational(1)
        n = chi0.order
        big = lcm(c, n)
        sa, sk = big // c, big // n
        return CyclotomicNumber.from_exponents(big, [
            a * sa + k * sk for a, k in enumerate(chi0._value_exponents()) if k is not None])

    def __repr__(self):
        return f"DirichletCharacter({self.to_descriptor()})"

    # descriptors -------------------------------------------------------

    def to_descriptor(self) -> str:
        c = self.canonical()
        gens = ",".join(
            f"{ug.gen}:{k}" for ug, k in zip(c.generators(), c.exponents)
        )
        return f"mod={c.modulus};gens={gens};ord={c.order}"


def all_characters(modulus: int):
    """All characters mod `modulus` (value order = exact order of each)."""
    gens = unit_group_generators(modulus)
    if not gens:
        yield DirichletCharacter.trivial(modulus)
        return

    def rec(i, chosen):
        if i == len(gens):
            order = 1
            for ug, t in zip(gens, chosen):
                if t:
                    order = lcm(order, ug.order // gcd(ug.order, t))
            exps = [
                t * (order // (ug.order // gcd(ug.order, t))) % order if t else 0
                for ug, t in zip(gens, chosen)
            ]
            yield DirichletCharacter(modulus, exps, order)
            return
        for t in range(gens[i].order):
            yield from rec(i + 1, chosen + [t])

    yield from rec(0, [])


# A descriptor's modulus is refused above this: a character's exponent
# table holds one slot per residue (triv9999991 takes 2.7 s and 170 MB),
# and factoring a modulus of 19 digits is a trial division that never ends.
MAX_MODULUS = 10**7


def parse_descriptor(text: str) -> DirichletCharacter:
    """Character descriptors: triv<N>, quad<D>, teich<p>[^<r>], or
    mod=<N>;gens=<g>:<e>,...;ord=<n> (canonical generators), of modulus
    |N|, |D| or p at most MAX_MODULUS."""
    s = text.strip()
    try:
        if s.startswith("triv"):
            make, args = DirichletCharacter.trivial, [s[4:]]
        elif s.startswith("quad"):
            make, args = DirichletCharacter.quadratic_by_discriminant, [s[4:]]
        elif s.startswith("teich"):
            make, args = DirichletCharacter.teichmuller, s[5:].split("^", 1)
        else:
            make, args = None, []
            parts = dict(kv.split("=", 1) for kv in s.split(";") if kv)
            modulus = int(parts["mod"])
            order = int(parts["ord"])
            given = {}
            if parts.get("gens"):
                given = dict(map(int, kv.split(":")) for kv in parts["gens"].split(","))
        args = [int(x) for x in args]
    except (KeyError, ValueError) as exc:
        raise ValueError("expected triv<N>, quad<D>, teich<p>[^<r>] or "
                         "mod=<N>;gens=<g>:<e>,...;ord=<n>") from exc
    size = abs(args[0] if make is not None else modulus)
    if size > MAX_MODULUS:
        raise ValueError(f"modulus {size} is above the bound {MAX_MODULUS}")
    if make is not None:
        return make(*args)
    gens = unit_group_generators(modulus)
    expected = [ug.gen for ug in gens]
    if set(given) - set(expected):
        raise ValueError(
            f"descriptor generators {sorted(given)} do not match canonical "
            f"generators {expected} for modulus {modulus}"
        )
    exps = [given.get(g, 0) for g in expected]
    return DirichletCharacter(modulus, exps, order)


# Kronecker symbol -----------------------------------------------------


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol (a|n), n odd positive
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_fundamental_discriminant(d: int) -> bool:
    if d == 1:
        return True
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and _squarefree(q)
    return False


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(abs(n)))
