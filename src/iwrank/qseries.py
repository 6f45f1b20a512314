"""q-expansions: Eisenstein series, L-values at non-positive integers,
twisting and depletion, Sturm bounds, congruence checking.

Coefficients are exact (Fraction, CyclotomicNumber, or NFElement).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from iwrank.arith import factorize, gamma0_index, poly_eval_mod
from iwrank.characters import DirichletCharacter
from iwrank.cyclotomic import CyclotomicNumber
from iwrank.numfield import NFElement


# Bernoulli machinery --------------------------------------------------

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2."""
    while len(_bernoulli_cache) <= k:
        m = len(_bernoulli_cache)
        # sum_{j=0}^{m} C(m+1, j) B_j = 0
        acc = sum(comb(m + 1, j) * b for j, b in enumerate(_bernoulli_cache))
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[k]


def generalized_bernoulli(l: int, chi: DirichletCharacter) -> CyclotomicNumber:
    """B_{l,chi} = F^(l-1) sum_{a=1..F} chi(a) B_l(a/F) over the modulus F
    of chi (imprimitive characters give the depleted L-series, which is
    what the Mazur combination needs).  With D the lcm of the denominators
    of B_0..B_l, D F^l B_l(a/F) = sum_j C(l,j) (D B_j) F^j a^(l-j) is an
    integer: the sum is one sum of integer monomials, divided by F D."""
    F, table = chi.modulus, chi.exponent_table()
    bern = [bernoulli_number(j) for j in range(l + 1)]
    D = lcm(*(b.denominator for b in bern))
    poly = [comb(l, j) * b.numerator * (D // b.denominator) * F ** j
            for j, b in enumerate(bern)]
    items = [(table[a % F], sum(c * a ** (l - j) for j, c in enumerate(poly)))
             for a in range(1, F + 1) if table[a % F] is not None]
    return CyclotomicNumber.from_monomials(chi.order, items) * Fraction(1, F * D)


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
    if l < 1:
        raise ValueError(f"weight must be >= 1, got {l}")

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
    return -(-weight * gamma0_index(level) // 12)


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


# congruence ideals ----------------------------------------------------


@dataclass(frozen=True)
class CongruenceIdealSpec:
    """Degree-one prime above p in the coefficient field: x -> seed mod p."""

    p: int
    field_poly: tuple | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.field_poly is not None:
            if self.seed is None:
                raise ValueError("seed required with a field polynomial")
            if poly_eval_mod([int(c) for c in self.field_poly], self.seed, self.p):
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
