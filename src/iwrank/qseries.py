"""q-expansions: Eisenstein series, L-values at non-positive integers,
twisting and depletion, stabilization, Euler factors, congruence checking.

Coefficients are exact (Fraction, CyclotomicNumber, or NFElement); the
stabilized series is the one place p-adic coefficients appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from iwrank.characters import DirichletCharacter, factorize
from iwrank.cyclotomic import CyclotomicNumber
from iwrank.numfield import NFElement
from iwrank.padics import PadicNumber, hensel_root, padic_valuation


# Bernoulli machinery --------------------------------------------------

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2."""
    while len(_bernoulli_cache) <= k:
        m = len(_bernoulli_cache)
        # sum_{j=0}^{m} C(m+1, j) B_j = 0
        acc = Fraction(0)
        c = 1  # C(m+1, j)
        for j in range(m):
            acc += c * _bernoulli_cache[j]
            c = c * (m + 1 - j) // (j + 1)
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[k]


def bernoulli_poly_at(k: int, x: Fraction) -> Fraction:
    """B_k(x) = sum C(k,j) B_j x^(k-j)."""
    acc = Fraction(0)
    c = 1
    xp = [Fraction(1)]
    for _ in range(k):
        xp.append(xp[-1] * x)
    for j in range(k + 1):
        acc += c * bernoulli_number(j) * xp[k - j]
        c = c * (k - j) // (j + 1)
    return acc


def generalized_bernoulli(l: int, chi: DirichletCharacter) -> CyclotomicNumber:
    """B_{l,chi} over the modulus of chi (imprimitive characters give the
    depleted L-series, which is what the Mazur combination needs)."""
    F = chi.modulus
    acc = CyclotomicNumber(chi.order, [])
    for a in range(1, F + 1):
        v = chi(a)
        if v.is_zero():
            continue
        acc = acc + v * bernoulli_poly_at(l, Fraction(a, F))
    return acc * Fraction(F) ** (l - 1)


def l_value_nonpositive(s0: int, chi: DirichletCharacter) -> CyclotomicNumber:
    """L(s0, chi) for s0 <= 0 via L(1-l, chi) = -B_{l,chi}/l."""
    if s0 > 0:
        raise ValueError("only non-positive arguments")
    l = 1 - s0
    return generalized_bernoulli(l, chi) * Fraction(-1, l)


# q-expansions ---------------------------------------------------------


@dataclass
class QExpansion:
    """Coefficients a(0..n_max) of a modular form, with level bookkeeping."""

    weight: int
    level: int
    nebentypus: DirichletCharacter | None
    coeffs: list
    label: str = ""

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def a(self, n: int):
        return self.coeffs[n]

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        if self.weight != other.weight:
            raise ValueError("weights differ")
        n = min(self.n_max, other.n_max)
        return QExpansion(
            self.weight,
            lcm(self.level, other.level),
            self.nebentypus,
            [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)],
            label=f"({self.label})-({other.label})",
        )

    def twist(self, chi: DirichletCharacter) -> "QExpansion":
        """Coefficientwise twist; level per [N, cond] * cond."""
        c = chi.conductor()
        new_level = lcm(self.level, c) * c
        neb = chi * chi
        if self.nebentypus is not None:
            neb = self.nebentypus * neb
        out = []
        for n, an in enumerate(self.coeffs):
            v = chi(n)
            if v.is_zero():
                out.append(v * 0)
            elif v.is_rational():
                out.append(an * v.rational_value())
            else:
                out.append(v * an)
        return QExpansion(self.weight, new_level, neb, out, label=f"{self.label}x{chi.to_descriptor()}")

    def deplete(self, J: int) -> "QExpansion":
        """Kill coefficients sharing a factor with J (twist by the trivial
        character mod J); level per [N, J] * J."""
        out = [an if gcd(n, J) == 1 else an * 0 for n, an in enumerate(self.coeffs)]
        out[0] = self.coeffs[0] * 0
        return QExpansion(
            self.weight, lcm(self.level, J) * J, self.nebentypus, out,
            label=f"{self.label}|iota_{J}",
        )

    def scale(self, c) -> "QExpansion":
        return QExpansion(self.weight, self.level, self.nebentypus,
                          [a * c for a in self.coeffs], label=self.label)


def eisenstein_series(
    theta: DirichletCharacter,
    phi: DirichletCharacter,
    l: int,
    n_max: int,
) -> QExpansion:
    """E_l(theta, phi): a(n) = sum_{d|n} theta(d) phi(n/d) d^(l-1), constant
    term delta1 L(0,phi) + delta L(1-l,theta).

    theta and phi must be primitive, except that theta may be the trivial
    character of modulus t > 1 when l = 2 and phi = 1: that is the
    holomorphic combination E_2(z) - t E_2(tz).
    """
    u, v = theta.modulus, phi.modulus
    depleted_trivial = theta.is_trivial() and u > 1
    if not phi.is_primitive():
        raise ValueError("phi must be primitive")
    if depleted_trivial:
        if not (l == 2 and v == 1):
            raise ValueError("imprimitive theta only enters via E_2(z) - t E_2(tz)")
    elif not theta.is_primitive():
        raise ValueError("theta must be primitive")
    if l == 2 and u == 1 and v == 1:
        raise ValueError("E_2 is not holomorphic; use the depleted combination")
    if l == 1 and u == 1 and v == 1:
        raise ValueError("l = 1 with both characters trivial is excluded")
    if theta.parity() * phi.parity() != (-1) ** l:
        raise ValueError("parity mismatch: theta(-1)phi(-1) must equal (-1)^l")

    order = lcm(theta.order, phi.order)
    coeffs = [CyclotomicNumber(order, [])]
    if l == 1 and u == 1:
        coeffs[0] = coeffs[0] + l_value_nonpositive(0, phi) * Fraction(1, 2)
    if v == 1:
        coeffs[0] = coeffs[0] + l_value_nonpositive(1 - l, theta) * Fraction(1, 2)
    # theta(d) phi(n/d) = zeta_order^(kt + kp) with the exponents read
    # over Q(zeta_order) from one table per character, so each a(n) is one
    # sum of roots of unity over the divisors d of n
    et, ep = theta.exponent_table(order), phi.exponent_table(order)
    divisors = [[] for _ in range(n_max + 1)]
    for d in range(1, n_max + 1):
        kt = et[d % u]
        if kt is not None:
            w = d ** (l - 1)
            for n in range(d, n_max + 1, d):
                divisors[n].append((kt, w, n // d))
    for n in range(1, n_max + 1):
        items = []
        for kt, w, e in divisors[n]:
            kp = ep[e % v]
            if kp is not None:
                items.append((kt + kp, w))
        coeffs.append(CyclotomicNumber.from_monomials(order, items))
    neb = theta * phi
    return QExpansion(l, u * v, neb, coeffs, label=f"E{l}({theta.to_descriptor()},{phi.to_descriptor()})")


def mazur_eisenstein(t: int, n_max: int) -> QExpansion:
    """E_2(z) - t E_2(tz): constant term (t-1)/24, a(n) = sigma(n) depleted
    at t."""
    theta = DirichletCharacter.trivial(t)
    phi = DirichletCharacter.trivial(1)
    return eisenstein_series(theta, phi, 2, n_max)


# bounds and level data ------------------------------------------------


def sturm_bound(weight: int, level: int) -> int:
    """ceil(weight * [SL2(Z) : Gamma_0(level)] / 12)."""
    idx = Fraction(level)
    for r, _ in factorize(level):
        idx *= Fraction(r + 1, r)
    b = Fraction(weight) * idx / 12
    return int(b) if b.denominator == 1 else int(b) + 1


def sigma0_and_m(level_prime_to_p: int, residual_tame_conductor: int) -> tuple[tuple[int, ...], int]:
    """Primes where level exceeds residual conductor: r | (I0/M0) or r^2 | M0;
    m is their product."""
    I0, M0 = level_prime_to_p, residual_tame_conductor
    if M0 <= 0 or I0 % M0 != 0:
        raise ValueError("residual conductor must divide the tame level")
    sigma0 = set()
    for r, _ in factorize(I0 // M0):
        sigma0.add(r)
    for r, e in factorize(M0):
        if e >= 2:
            sigma0.add(r)
    m = 1
    for r in sorted(sigma0):
        m *= r
    return tuple(sorted(sigma0)), m


# Euler factors --------------------------------------------------------


@dataclass
class EulerPoly:
    """P(T) = sum coeffs[k] T^k, constant term 1."""

    coeffs: list
    label: str = ""

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc

    def conjugate(self) -> "EulerPoly":
        out = []
        for c in self.coeffs:
            out.append(c.conjugate() if isinstance(c, CyclotomicNumber) else c)
        return EulerPoly(out, label=self.label + "^rho")


def euler_poly_p(*, level: int, weight: int, a_p, neb_at_p, p: int, label: str = "") -> EulerPoly:
    """Standard convention: quadratic iff p does not divide the level; linear
    when p | level with a_p != 0; constant 1 when a_p = 0 (no inertia
    invariants)."""
    one = 1 if not isinstance(a_p, CyclotomicNumber) else CyclotomicNumber.from_rational(1)
    if level % p != 0:
        return EulerPoly([one, -a_p, neb_at_p * p ** (weight - 1)], label=label)
    if _is_nonzero(a_p):
        return EulerPoly([one, -a_p], label=label)
    return EulerPoly([one], label=label)


def _is_nonzero(x) -> bool:
    if isinstance(x, NFElement):
        return not x.is_zero()
    return x != 0


def euler_poly_eisenstein(theta: DirichletCharacter, phi: DirichletCharacter,
                          l: int, p: int) -> EulerPoly:
    """Euler polynomial at p of E_l(theta, phi) from character data."""
    order = lcm(theta.order, phi.order)
    tp, pp = theta(p).lift_to(order), phi(p).lift_to(order)
    a_p = pp + tp * p ** (l - 1)
    neb = (theta * phi)(p)
    level = theta.modulus * phi.modulus
    return euler_poly_p(level=level, weight=l, a_p=a_p, neb_at_p=neb, p=p,
                        label=f"P_{p}(E{l})")


# root numbers ---------------------------------------------------------


@dataclass
class RootNumber:
    """(cond_theta/cond_phi)^(half_power/2) * cyc, kept unexpanded so
    half-integral powers stay exact; cyc = phi(-1) G(phi) / G(conj theta)."""

    cond_theta: int
    cond_phi: int
    half_power: int
    cyc: CyclotomicNumber

    def p_valuation(self, p: int) -> Fraction:
        """Uses v(G(chi)) = v(cond chi)/2, from |G|^2 = cond; the total is
        ((half_power - 1)/2) (v(cond theta) - v(cond phi))."""
        vt = _val_or_zero(self.cond_theta, p)
        vp = _val_or_zero(self.cond_phi, p)
        return Fraction(self.half_power - 1, 2) * (vt - vp)


def eisenstein_root_number(theta: DirichletCharacter, phi: DirichletCharacter,
                           l: int) -> RootNumber:
    """W(E_l(theta,phi)) = (cond theta / cond phi)^(l/2) phi(-1) G(phi)/G(conj theta)."""
    g_phi = phi.gauss_sum()
    g_tbar = theta.conjugate().gauss_sum()
    cyc = g_phi * g_tbar.inverse() * phi.parity()
    return RootNumber(theta.conductor(), phi.conductor(), l, cyc)


def _val_or_zero(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# congruence ideals ----------------------------------------------------


@dataclass
class CongruenceIdealSpec:
    """Degree-one prime above p in the coefficient field: x -> seed mod p."""

    p: int
    field_poly: tuple | None = None
    seed: int | None = None
    residual_degree: int = 1

    def __post_init__(self):
        if self.residual_degree != 1:
            raise NotImplementedError("only residual degree 1 is implemented")
        if self.field_poly is not None:
            if self.seed is None:
                raise ValueError("seed required with a field polynomial")
            acc, s = 0, 1
            for c in self.field_poly:
                acc = (acc + int(c) * s) % self.p
                s = s * self.seed % self.p
            if acc % self.p != 0:
                raise ValueError("seed is not a root of the field polynomial mod p")

    def reduce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValueError("denominator not a p-unit")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        # a CyclotomicNumber is an NFElement too: it must be tested first
        if isinstance(x, CyclotomicNumber):
            return self.reduce(x.rational_value())
        if isinstance(x, NFElement):
            if self.field_poly is not None and tuple(x.field.poly) != tuple(self.field_poly):
                raise ValueError("element field does not match the ideal's field")
            return x.reduce_mod(self.seed if self.seed is not None else 0, self.p)
        raise TypeError(f"cannot reduce {type(x).__name__}")


@dataclass
class CongruenceReport:
    bound: int
    checked: int
    skipped: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_congruence(f: QExpansion, g: QExpansion, ideal: CongruenceIdealSpec,
                     bound: int | None = None, coprime_to: int = 1) -> CongruenceReport:
    """Compare coefficients of f and g mod the ideal through `bound`,
    skipping indices sharing a factor with `coprime_to`."""
    n_top = min(f.n_max, g.n_max)
    if bound is None:
        bound = n_top
    if bound > n_top:
        raise ValueError(f"bound {bound} exceeds available coefficients {n_top}")
    mism, checked, skipped = [], 0, 0
    for n in range(bound + 1):
        if n > 0 and gcd(n, coprime_to) != 1:
            skipped += 1
            continue
        r1, r2 = _reduce_coefficient(f, n, ideal), _reduce_coefficient(g, n, ideal)
        checked += 1
        if r1 != r2:
            mism.append((n, r1, r2))
    return CongruenceReport(bound, checked, skipped, mism)


def _reduce_coefficient(f: QExpansion, n: int, ideal: CongruenceIdealSpec) -> int:
    try:
        return ideal.reduce(f.a(n))
    except ValueError as exc:
        raise ValueError(f"a({n}) = {f.a(n)} of {f.label} does not reduce "
                         f"mod the ideal above {ideal.p}: {exc}") from exc


# stabilization --------------------------------------------------------


def unit_root_of_hecke_poly(a_p_mod: int, neb_p_mod: int, weight: int, p: int,
                            prec: int) -> PadicNumber:
    """Unit root of X^2 - a_p X + neb(p) p^(weight-1) for ordinary a_p."""
    if a_p_mod % p == 0:
        raise ValueError("not ordinary at p: a_p = 0 mod p")
    poly = [neb_p_mod * p ** (weight - 1), -a_p_mod, 1]
    root = hensel_root(poly, a_p_mod % p, p, prec)
    return PadicNumber(p, 0, root, prec)


def p_stabilize(f: QExpansion, p: int, prec: int, embed=None):
    """Ordinary p-stabilization f(z) - beta f(pz).

    Returns (f0, u, beta): u the unit root of X^2 - a_p X + neb(p) p^(k-1),
    beta = a_p - u the non-unit root, f0 of level Np with PadicNumber
    coefficients a(n) - beta a(n/p), so that a(p, f0) = u.
    """
    if f.level % p == 0:
        raise ValueError("p divides the level: form already p-stabilized")
    if embed is None:
        embed = lambda x: PadicNumber.from_rational(x, p, prec)
    a_p = embed(f.a(p))
    neb_p = 1
    if f.nebentypus is not None:
        v = f.nebentypus(p)
        if isinstance(v, CyclotomicNumber) and v.is_rational():
            v = v.rational_value()
        neb_p = 0 if v == 0 else embed(v).residue(prec)
    u = unit_root_of_hecke_poly(a_p.residue(prec), neb_p, f.weight, p, prec)
    beta = a_p - u
    out = []
    for n in range(f.n_max + 1):
        b = embed(f.a(n))
        if n % p == 0 and n > 0:
            b = b - beta * embed(f.a(n // p))
        out.append(b)
    f0 = QExpansion(f.weight, f.level * p, f.nebentypus, out, label=f.label + "_stab")
    return f0, u, beta
