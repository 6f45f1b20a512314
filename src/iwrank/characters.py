"""Dirichlet characters in generator-exponent form.

A character mod N is stored by its values on the canonical generators of
(Z/N)^x (CRT over prime powers; for 2^e >= 8 the pair -1, 5).  Values are
roots of unity zeta_order^k kept as exponents, so products, conjugation,
conductor and restriction are integer bookkeeping; actual cyclotomic
numbers only appear on evaluation and in Gauss sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from iwrank.cyclotomic import CyclotomicNumber
from iwrank.padics import smallest_primitive_root


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    m, r = n, 2
    while r * r <= m:
        if m % r == 0:
            e = 0
            while m % r == 0:
                m //= r
                e += 1
            out.append((r, e))
        r += 1
    if m > 1:
        out.append((m, 1))
    return out


@dataclass(frozen=True)
class UnitGenerator:
    prime: int
    prime_power: int  # r^e part of the modulus
    gen: int          # generator of (Z/N)^x supported at this component
    order: int        # multiplicative order of gen


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
            if rest > 1:
                # CRT lift: g at this component, 1 elsewhere
                inv = pow(rest % q, -1, q) if q > 1 else 0
                lifted = (1 + rest * ((g - 1) * inv % q)) % modulus
            else:
                lifted = g % modulus
            gens.append(UnitGenerator(r, q, lifted, d))
    out = tuple(gens)
    _structure_cache[modulus] = out
    return out


_dlog_cache: dict[tuple[int, int, int], dict[int, int]] = {}


def _dlog_table(g: int, order: int, q: int) -> dict[int, int]:
    key = (g, order, q)
    tab = _dlog_cache.get(key)
    if tab is None:
        tab = {}
        x = 1 % q
        for i in range(order):
            tab[x] = i
            x = x * g % q
        _dlog_cache[key] = tab
    return tab


def unit_exponents(a: int, modulus: int) -> tuple[int, ...] | None:
    """Write a = prod gen_i^{t_i} mod modulus; None when gcd(a, modulus) > 1."""
    if modulus == 1:
        return ()
    a %= modulus
    if gcd(a, modulus) != 1:
        return None
    gens = unit_group_generators(modulus)
    exps = []
    for ug in gens:
        q = ug.prime_power
        aq = a % q
        if ug.prime == 2 and q >= 8:
            if ug.gen % q == q - 1:
                # sign component: a = (-1)^s 5^t mod 2^e; s by a mod 4
                exps.append(0 if aq % 4 == 1 else 1)
                continue
            if aq % 4 == 3:
                aq = (-aq) % q
            tab = _dlog_table(5 % q, ug.order, q)
            exps.append(tab[aq])
            continue
        tab = _dlog_table(ug.gen % q, ug.order, q)
        exps.append(tab[aq])
    return tuple(exps)


class DirichletCharacter:
    """chi mod `modulus` with chi(gen_i) = zeta_order^{exponents[i]}."""

    __slots__ = ("modulus", "order", "exponents", "_cond")

    def __init__(self, modulus: int, exponents, order: int):
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
        if p < 3:
            raise ValueError("need an odd prime")
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

    def value_exponent(self, a: int) -> int | None:
        """k with chi(a) = zeta_order^k, or None when gcd(a, modulus) > 1."""
        t = unit_exponents(a, self.modulus)
        if t is None:
            return None
        acc = 0
        for ti, ki in zip(t, self.exponents):
            acc += ti * ki
        return acc % self.order

    def exponent_table(self, order: int | None = None) -> list:
        """k with chi(a) = zeta_order^k for a = 0..modulus-1, or None
        where gcd(a, modulus) > 1; `order` is a multiple of chi's and
        defaults to it.

        One walk over the unit group: a = prod gen_i^t_i runs through
        every unit once, with k = sum t_i k_i, so no discrete logs.
        """
        if order is None:
            order = self.order
        scale = order // self.order
        modulus = self.modulus
        units = [(1 % modulus, 0)]
        for ug, k in zip(self.generators(), self.exponents):
            powers = []
            g, x = ug.gen, 1
            for t in range(ug.order):
                powers.append((x, t * k * scale))
                x = x * g % modulus
            units = [(a * x % modulus, e + ex) for a, e in units for x, ex in powers]
        table = [None] * modulus
        for a, e in units:
            table[a] = e % order
        return table

    def __call__(self, a: int) -> CyclotomicNumber:
        k = self.value_exponent(a)
        if k is None:
            return CyclotomicNumber(self.order, [])
        return CyclotomicNumber.zeta(self.order, k)

    def is_trivial(self) -> bool:
        return all(k == 0 for k in self.exponents)

    def parity(self) -> int:
        """chi(-1) as +1 or -1."""
        if self.modulus <= 2:
            return 1
        k = self.value_exponent(self.modulus - 1)
        if k == 0:
            return 1
        if 2 * k % self.order == 0:
            return -1
        raise ArithmeticError("chi(-1) not +-1: broken character")

    # conductor / primitivity -------------------------------------------

    def conductor(self) -> int:
        if self._cond is not None:
            return self._cond
        cond = 1
        gens = self.generators()
        by_prime: dict[int, list[tuple[UnitGenerator, int]]] = {}
        for ug, k in zip(gens, self.exponents):
            by_prime.setdefault(ug.prime, []).append((ug, k))
        for r, items in by_prime.items():
            if r == 2:
                q = items[0][0].prime_power
                if q == 4:
                    (ug, k) = items[0]
                    cond *= 4 if k else 1
                else:  # q >= 8: items are (sign gen, five gen)
                    sign_k = five_k = 0
                    five_order = 1
                    for ug, k in items:
                        if ug.gen % ug.prime_power == ug.prime_power - 1:
                            sign_k = k
                        else:
                            five_k = k
                            five_order = ug.order
                    if five_k:
                        # order of chi(5) = order/gcd(order, five_k)
                        t = self.order // gcd(self.order, five_k)
                        cond *= 4 * t
                    elif sign_k:
                        cond *= 4
            else:
                (ug, k) = items[0]
                if k:
                    t = self.order // gcd(self.order, k)  # order of chi(gen)
                    vr = 0
                    while t % r == 0:
                        t //= r
                        vr += 1
                    cond *= r ** (1 + vr)
        self._cond = cond
        return cond

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
        gens_m = unit_group_generators(m)
        rest = 1
        for r, e in factorize(self.modulus):
            if m % r != 0:
                rest *= r**e
        exps = []
        for ug in gens_m:
            a = ug.gen % m
            # lift to a unit mod modulus: a mod m, 1 mod primes away from m
            if rest > 1:
                inv = pow(rest % m, -1, m) if m > 1 else 0
                lifted = (1 + rest * ((a - 1) * inv % m)) % self.modulus
            else:
                lifted = a % self.modulus
            k = self.value_exponent(lifted)
            if k is None:
                raise ArithmeticError("lift landed on a non-unit")
            exps.append(k)
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

    def decompose_p_part(self, p: int) -> tuple["DirichletCharacter", "DirichletCharacter"]:
        """Primitive chi_p of p-power conductor and primitive chi' prime to p
        with chi_p * chi' inducing this character."""
        chi0 = self.primitive_part()
        c = chi0.modulus
        cp = 1
        while c % p == 0:
            c //= p
            cp *= p
        gens = unit_group_generators(chi0.modulus)
        p_exps, rest_exps = [], []
        for ug, k in zip(gens, chi0.exponents):
            (p_exps if ug.prime == p else rest_exps).append(k)
        chi_p = DirichletCharacter(cp, p_exps, chi0.order).canonical()
        chi_rest = DirichletCharacter(chi0.modulus // cp, rest_exps, chi0.order).canonical()
        return chi_p, chi_rest

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
        items = [(a * sa + k * sk, 1)
                 for a, k in enumerate(chi0.exponent_table()) if k is not None]
        return CyclotomicNumber.from_monomials(big, items)

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


def parse_descriptor(text: str) -> DirichletCharacter:
    """Character descriptors: triv<N>, quad<D>, teich<p>^<r>, or
    mod=<N>;gens=<g:e,...>;ord=<n> (canonical generators)."""
    s = text.strip()
    if s.startswith("triv"):
        return DirichletCharacter.trivial(int(s[4:]))
    if s.startswith("quad"):
        return DirichletCharacter.quadratic_by_discriminant(int(s[4:]))
    if s.startswith("teich"):
        body = s[5:]
        if "^" in body:
            p_s, r_s = body.split("^", 1)
            return DirichletCharacter.teichmuller(int(p_s), int(r_s))
        return DirichletCharacter.teichmuller(int(body))
    parts = dict(kv.split("=", 1) for kv in s.split(";") if kv)
    try:
        modulus = int(parts["mod"])
        order = int(parts["ord"])
        pairs = []
        if parts.get("gens"):
            pairs = [tuple(map(int, kv.split(":"))) for kv in parts["gens"].split(",")]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad character descriptor {text!r}") from exc
    gens = unit_group_generators(modulus)
    expected = [ug.gen for ug in gens]
    given = {g: e for g, e in pairs}
    if set(given) - set(expected):
        raise ValueError(
            f"descriptor generators {sorted(given)} do not match canonical "
            f"generators {expected} for modulus {modulus}"
        )
    exps = [given.get(g, 0) for g in expected]
    return DirichletCharacter(modulus, exps, order)


# residual characters --------------------------------------------------


class ResidualCharacter:
    """Character (Z/modulus)^x -> F_p^x, values stored mod p on the
    canonical generators."""

    __slots__ = ("modulus", "p", "values")

    def __init__(self, modulus: int, p: int, values):
        gens = unit_group_generators(modulus)
        vals = tuple(int(v) % p for v in values)
        if len(vals) != len(gens):
            raise ValueError(f"need {len(gens)} values for modulus {modulus}")
        if any(v == 0 for v in vals):
            raise ValueError("residual character values must be units")
        for ug, v in zip(gens, vals):
            if pow(v, ug.order, p) != 1:
                raise ValueError("value incompatible with generator order")
        self.modulus = modulus
        self.p = p
        self.values = vals

    @classmethod
    def trivial(cls, modulus: int, p: int) -> "ResidualCharacter":
        return cls(modulus, p, [1] * len(unit_group_generators(modulus)))

    @classmethod
    def teichmuller(cls, p: int, power: int = 1) -> "ResidualCharacter":
        g = smallest_primitive_root(p)
        return cls(p, p, [pow(g, power, p)])

    def value(self, a: int) -> int:
        """chi(a) in F_p (0 on non-units)."""
        t = unit_exponents(a, self.modulus)
        if t is None:
            return 0
        acc = 1
        for ti, vi in zip(t, self.values):
            acc = acc * pow(vi, ti, self.p) % self.p
        return acc

    def __mul__(self, other: "ResidualCharacter") -> "ResidualCharacter":
        if not isinstance(other, ResidualCharacter) or other.p != self.p:
            return NotImplemented
        m = lcm(self.modulus, other.modulus)
        gens = unit_group_generators(m)
        vals = [self.value(ug.gen) * other.value(ug.gen) % self.p for ug in gens]
        return ResidualCharacter(m, self.p, vals)

    def inverse(self) -> "ResidualCharacter":
        return ResidualCharacter(
            self.modulus, self.p, [pow(v, -1, self.p) for v in self.values]
        )

    def is_trivial_values(self) -> bool:
        return all(v == 1 for v in self.values)

    def __eq__(self, other):
        if not isinstance(other, ResidualCharacter):
            return NotImplemented
        if self.p != other.p:
            return False
        m = lcm(self.modulus, other.modulus)
        gens = unit_group_generators(m)
        return all(self.value(ug.gen) == other.value(ug.gen) for ug in gens)


def lift_residual_character(chi_bar: ResidualCharacter, p: int | None = None) -> DirichletCharacter:
    """Teichmuller lift: the order-prime-to-p character with the same residual
    values.  Its conductor is v0 * p^min(a,1) when the residual modulus is
    v0 * p^a."""
    p = p or chi_bar.p
    if p != chi_bar.p:
        raise ValueError("prime mismatch")
    g = smallest_primitive_root(p)
    tab = _dlog_table(g, p - 1, p)
    gens = unit_group_generators(chi_bar.modulus)
    exps = [tab[v] for v in chi_bar.values]
    return DirichletCharacter(chi_bar.modulus, exps, p - 1).canonical()


def reduce_character(chi: DirichletCharacter, p: int) -> ResidualCharacter:
    """Reduction of a prime-to-p-order character to F_p values via the
    canonical embedding zeta_{p-1} -> teichmuller(g)."""
    if (p - 1) % chi.canonical().order != 0:
        raise ValueError("character order must divide p-1")
    c = chi.canonical()
    g = smallest_primitive_root(p)
    root = pow(g, (p - 1) // c.order, p)
    vals = [pow(root, k, p) for k in c.exponents]
    return ResidualCharacter(c.modulus, p, vals)


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
    n = abs(n)
    for r, e in factorize(n):
        if e > 1:
            return False
    return True
