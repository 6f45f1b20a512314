from math import gcd, prod

from iwrank.arith import euler_phi, factorize, is_prime, prime_divisors


def test_helpers_agree():
    for n in range(1, 400):
        fac = factorize(n)
        assert prod(r**e for r, e in fac) == n
        assert [r for r, _ in fac] == prime_divisors(n)
        assert all(is_prime(r) for r in prime_divisors(n))
        assert is_prime(n) == (fac == [(n, 1)])
        assert euler_phi(n) == sum(1 for k in range(n) if gcd(k, n) == 1)
