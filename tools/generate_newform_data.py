"""Regenerate the bundled newform coefficient files in src/iwrank/data/.

Each form is computed by a method independent of the symbol-eigenvalue
pipeline it will later be checked against:

  11.2.a.a  eta(z)^2 eta(11z)^2 expanded as a q-series
  19.2.a.a  point counts on y^2 + y = x^3 + x^2 - 9x - 15 over F_l
  52.2.a.a  point counts on y^2 = x^3 + x - 10 over F_l
  23.2.a    Hecke eigen-functional on level-23 symbols over Q(sqrt5)

Symbol eigenvalues, the bad-prime coefficients among them (U_l), are
read off one Hecke row of the eigen-functional
(`SymbolFunctional.eigenvalue`).  Every prime coefficient is
cross-checked before writing (symbol eigenvalues for the rational forms,
Hasse bounds + integrality + the level-23 Eisenstein congruence for
23.2.a).

Usage: python3 tools/generate_newform_data.py
"""

import json
import os
import sys
from fractions import Fraction
from math import gcd, isqrt

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from iwrank.modsym import ModularSymbolSpace, eigen_functional
from iwrank.numfield import NumberField

N_MAX = 600
OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "iwrank", "data")


def primes_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(n + 1) if sieve[i]]


def eta_square_product(t, n_max):
    """Coefficients a(1..n_max) of q prod (1-q^n)^2 (1-q^{tn})^2."""
    L = n_max  # a(n) = c[n-1] after the q shift
    c = [0] * L
    c[0] = 1
    for step in (1, t):
        m = step
        while m < L:
            for i in range(L - 1, m - 1, -1):
                c[i] -= 2 * c[i - m]
                if i >= 2 * m:
                    c[i] += c[i - 2 * m]
            m += step
    return {n: c[n - 1] for n in range(1, n_max + 1)}


def legendre(a, ell):
    a %= ell
    if a == 0:
        return 0
    return 1 if pow(a, (ell - 1) // 2, ell) == 1 else -1


def count_a_ell(curve, ell):
    """a_l of y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 at a good prime."""
    a1, a2, a3, a4, a6 = curve
    if ell == 2:
        pts = 0
        for x in range(2):
            for y in range(2):
                lhs = (y * y + a1 * x * y + a3 * y) % 2
                rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % 2
                if lhs == rhs:
                    pts += 1
        return 2 + 1 - (pts + 1)
    if ell == 3:
        pts = 0
        for x in range(3):
            for y in range(3):
                lhs = (y * y + a1 * x * y + a3 * y) % 3
                rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % 3
                if lhs == rhs:
                    pts += 1
        return 3 + 1 - (pts + 1)
    # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    acc = 0
    for x in range(ell):
        g = (4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % ell
        acc += legendre(g, ell)
    return -acc


def hecke_extend(ap, level, n_max, one=1):
    """All a_n from prime coefficients by the weight-2 recursion with
    trivial nebentypus."""
    a = {1: one}
    for ell, v in sorted(ap.items()):
        if ell > n_max:
            continue
        a[ell] = v
        power, prev, cur = ell * ell, one, v
        while power <= n_max:
            if level % ell == 0:
                nxt = cur * v
            else:
                nxt = cur * v - prev * ell
            a[power] = nxt
            prev, cur = cur, nxt
            power *= ell
    for n in range(2, n_max + 1):
        if n in a:
            continue
        for ell in sorted(ap):
            if n % ell == 0:
                q = 1
                m = n
                while m % ell == 0:
                    m //= ell
                    q *= ell
                a[n] = a[q] * a[m]
                break
        else:
            raise RuntimeError(f"missing prime factor data for n={n}")
    return a


def frac_str(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def write_form(filename, label, level, an, field_poly=(0, 1), seed=None, source=""):
    rows = []
    for n in range(1, N_MAX + 1):
        v = an[n]
        vec = [frac_str(c) for c in v.coeffs] if hasattr(v, "coeffs") else [frac_str(v)]
        rows.append(vec)
    payload = {
        "label": label,
        "level": level,
        "weight": 2,
        "nebentypus": f"triv{level}",
        "field_poly": list(field_poly),
        "an": rows,
        "source": source,
    }
    if seed:
        payload["seed_root_mod_p"] = seed
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, filename)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(f"wrote {path}")


def symbol_ap(space, ells, targets):
    phi = eigen_functional(space, targets, +1)
    return {ell: phi.eigenvalue(ell) for ell in ells}


def main():
    ells = primes_to(N_MAX)

    # 11.2.a.a ------------------------------------------------------
    eta = eta_square_product(11, N_MAX)
    ap11 = {ell: eta[ell] for ell in ells}
    rebuilt = hecke_extend(ap11, 11, N_MAX)
    for n in range(1, N_MAX + 1):
        assert rebuilt[n] == eta[n], f"11a: eta fails Hecke recursion at n={n}"
    sp11 = ModularSymbolSpace(11)
    sym11 = symbol_ap(sp11, [ell for ell in ells if ell <= 31], [(2, Fraction(-2))])
    for ell, v in sym11.items():
        assert v == ap11[ell], f"11a symbol/eta mismatch at {ell}: {v} vs {ap11[ell]}"
    write_form("11.2.a.a.json", "11.2.a.a", 11, eta,
               source="eta(z)^2 eta(11z)^2; primes <= 31 cross-checked against "
                      "level-11 symbol eigenvalues")

    # 19.2.a.a ------------------------------------------------------
    curve19 = (0, 1, 1, -9, -15)
    sp19 = ModularSymbolSpace(19)
    phi19 = eigen_functional(sp19, [(2, Fraction(0))], +1)
    ap19 = {}
    for ell in ells:
        if ell == 19:
            ap19[ell] = phi19.eigenvalue(19)
        else:
            ap19[ell] = count_a_ell(curve19, ell)
            assert ap19[ell] * ap19[ell] <= 4 * ell
    for ell in [ell for ell in ells if ell <= 31]:
        got = phi19.eigenvalue(ell)
        assert got == ap19[ell], f"19a mismatch at {ell}: {got} vs {ap19[ell]}"
    an19 = hecke_extend(ap19, 19, N_MAX)
    write_form("19.2.a.a.json", "19.2.a.a", 19, an19,
               source="point counts on y^2+y=x^3+x^2-9x-15 over F_l; a_19 from U_19 "
                      "on level-19 symbols; primes <= 31 cross-checked")

    # 52.2.a.a ------------------------------------------------------
    curve52 = (0, 0, 0, 1, -10)
    sp52 = ModularSymbolSpace(52)
    phi52 = eigen_functional(sp52, [(5, Fraction(2))], +1)
    ap52 = {}
    for ell in ells:
        if 52 % ell == 0:
            ap52[ell] = phi52.eigenvalue(ell)
        else:
            ap52[ell] = count_a_ell(curve52, ell)
            assert ap52[ell] * ap52[ell] <= 4 * ell
    assert ap52[2] == 0 and ap52[5] == 2
    for ell in [ell for ell in ells if ell <= 31]:
        got = phi52.eigenvalue(ell)
        assert got == ap52[ell], f"52a mismatch at {ell}: {got} vs {ap52[ell]}"
    an52 = hecke_extend(ap52, 52, N_MAX)
    write_form("52.2.a.a.json", "52.2.a.a", 52, an52,
               source="point counts on y^2=x^3+x-10 over F_l; a_2, a_13 from U_l on "
                      "level-52 symbols; primes <= 31 cross-checked")

    # 23.2.a --------------------------------------------------------
    K = NumberField((-5, 0, 1))
    one = K.one()
    r5 = K.gen()
    a2 = one * Fraction(-1, 2) + r5 * Fraction(-1, 2)  # the root with a2 = 3 mod (11, sqrt5-4)
    sp23 = ModularSymbolSpace(23)
    phi23 = eigen_functional(sp23, [(2, a2)], +1)
    ap23 = {}
    for ell in ells:
        ap23[ell] = phi23.eigenvalue(ell)
        c0, c1 = ap23[ell].coeffs
        # integral in Z[(1+sqrt5)/2]: 2c0 in Z and c0 - c1 in Z
        assert (2 * c0).denominator == 1 and (c0 - c1).denominator == 1, ell
        if ell != 23:
            # both real embeddings c0 +- c1 sqrt5 bounded by 2 sqrt(l)
            slack = 4 * ell - c0 * c0 - 5 * c1 * c1
            assert slack >= 0 and 20 * (c0 * c1) ** 2 <= slack * slack, \
                f"Hasse bound fails at {ell}"
        # Eisenstein congruence at the level-23 Eisenstein prime; the
        # Eisenstein partner has a(23) = 1, not 1 + 23
        expect = 1 if ell == 23 else (1 + ell) % 11
        assert ap23[ell].reduce_mod(4, 11) == expect, ell
    print("23.2.a first coefficients:",
          {ell: ap23[ell] for ell in ells if ell <= 13})
    an23 = hecke_extend(ap23, 23, N_MAX, one=one)
    write_form("23.2.a.json", "23.2.a", 23, an23, field_poly=(-5, 0, 1),
               seed={"11": 4},
               source="Hecke eigen-functional on level-23 symbols over Q(sqrt5), "
                      "a_2=(-1-sqrt5)/2; traces Hasse-bounded, all primes checked "
                      "against a_l = 1+l mod (11, sqrt5-4)")

    print("all newform data regenerated")


if __name__ == "__main__":
    main()
