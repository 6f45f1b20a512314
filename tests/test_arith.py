import random
from math import gcd, prod

from iwrank.arith import euler_phi, factorize, is_prime, poly_eval_mod, prime_divisors


def test_helpers_agree():
    for n in range(1, 400):
        fac = factorize(n)
        assert prod(r**e for r, e in fac) == n
        assert [r for r, _ in fac] == prime_divisors(n)
        assert all(is_prime(r) for r in prime_divisors(n))
        assert is_prime(n) == (fac == [(n, 1)])
        assert euler_phi(n) == sum(1 for k in range(n) if gcd(k, n) == 1)


def test_poly_eval_mod_matches_the_sum():
    # signed coefficients and points, the empty polynomial, modulus 1
    rng = random.Random(7)
    for _ in range(300):
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 9))]
        x, m = rng.randint(-50, 50), rng.randint(1, 10**4)
        assert poly_eval_mod(coeffs, x, m) == sum(c * x**i for i, c in enumerate(coeffs)) % m
