import math
import random

import pytest

from unitindex.arith import (
    SquarefreeD,
    _sieve_upto,
    factor_squarefree,
    is_prime,
    jacobi,
    kronecker,
    primes_in_range,
    sqrt_mod,
)
from unitindex.errors import NoSquareRoot, NotSquarefree, PreconditionViolated


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        for p in range(2, math.isqrt(n) + 1):
            if n % p == 0:
                return False
        return True

    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randrange(2, 10**5)
        assert is_prime(n) == trial(n)


def test_is_prime_large_known():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    assert is_prime(999983)
    assert not is_prime(999983 * 999979)


def test_is_prime_rejects_strong_pseudoprimes():
    # below 2^64: a strong pseudoprime to every fixed base but 37
    assert not is_prime(3825123056546413051)
    # above 2^64: strong pseudoprimes to all twelve fixed bases, so only
    # the seeded random bases can expose them
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3317044064679887385961981)
    assert is_prime(2**89 - 1)
    assert is_prime(2**127 - 1)


# OEIS A014233 up to 2^64: the least strong pseudoprime to the first k
# prime bases, for k = 1..7 and 9 (k = 8 repeats k = 7)
_A014233 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)


def _is_prime_all_bases(n):
    """Trial division by the first twelve primes, then all twelve as
    Miller-Rabin bases: a proof for every n < 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_rejects_each_a014233_bound():
    for n in _A014233:
        assert not is_prime(n), n


def test_is_prime_matches_all_bases_reference():
    # 8321 = 53 * 157 is the first strong pseudoprime to base 2 that the
    # trial division does not catch
    primes = set(_sieve_upto(2 * 10**5))
    assert all(is_prime(n) == (n in primes) for n in range(2 * 10**5))
    for bound in _A014233:
        for n in range(bound - 2000, bound + 2001):
            assert is_prime(n) == _is_prime_all_bases(n), n
    rng = random.Random(2024)
    for _ in range(10**4):
        n = rng.randrange(1, 1 << 64, 2)
        assert is_prime(n) == _is_prime_all_bases(n), n


def test_jacobi_known_values():
    assert jacobi(2, 15) == 1
    assert jacobi(1001, 9907) == -1
    assert jacobi(19, 45) == 1
    assert jacobi(8, 21) == -1
    assert jacobi(5, 21) == 1
    assert jacobi(21, 21) == 0


def test_jacobi_matches_euler_for_primes():
    rng = random.Random(5)
    primes = [p for p in primes_in_range(3, 2000)]
    for _ in range(500):
        p = rng.choice(primes)
        a = rng.randrange(1, p)
        euler = pow(a, (p - 1) // 2, p)
        assert jacobi(a, p) == (1 if euler == 1 else -1)


def test_jacobi_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 500) * 2 + 1
        a = rng.randrange(-200, 200)
        b = rng.randrange(-200, 200)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(PreconditionViolated):
        jacobi(3, 10)


def test_kronecker_two_part():
    # (a/2) is 0 for even a, +1 for a = 1,7 mod 8, -1 for a = 3,5 mod 8
    assert kronecker(7, 2) == 1
    assert kronecker(17, 2) == 1
    assert kronecker(3, 2) == -1
    assert kronecker(5, 2) == -1
    assert kronecker(6, 2) == 0
    assert kronecker(65, 8) == 1
    assert kronecker(5, 12) == -1


def test_kronecker_agrees_with_jacobi_on_odd():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 300) * 2 + 1
        a = rng.randrange(-300, 300)
        assert kronecker(a, n) == jacobi(a, n)


def test_sqrt_mod_known():
    assert sqrt_mod(5, 11) == 4
    assert sqrt_mod(2, 7) == 3
    assert sqrt_mod(0, 13) == 0
    assert sqrt_mod(4, 17) == 2


def test_sqrt_mod_nonresidue():
    with pytest.raises(NoSquareRoot):
        sqrt_mod(2, 5)


def test_sqrt_mod_random_roundtrip():
    rng = random.Random(3)
    primes = [p for p in primes_in_range(3, 5000)]
    for _ in range(400):
        p = rng.choice(primes)
        x = rng.randrange(1, p)
        r = sqrt_mod(x * x % p, p)
        assert r * r % p == x * x % p
        assert r <= p - r


def test_primes_in_range_small():
    assert list(primes_in_range(2, 30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list(primes_in_range(0, 1)) == []
    assert list(primes_in_range(24, 28)) == []


def test_primes_in_range_large_edge():
    assert list(primes_in_range(10**6 - 20, 10**6)) == [999983]


def test_primes_in_range_counts():
    # pi(10^5) = 9592
    assert sum(1 for _ in primes_in_range(2, 10**5)) == 9592


def test_primes_in_range_matches_sieve():
    segment = 1 << 17
    ranges = [
        (3, segment + 100),  # the second segment starts at lo + 2^17
        (100000, 100000 + 2 * segment + 7),
        (0, 5000),
        (1, 5000),
        (2, 5000),
        (5000, 4999),  # lo > hi
        (100, 1009 * 1009),  # hi is a prime square
        (1009 * 1009, 1009 * 1009),
    ]
    for lo, hi in ranges:
        expected = [p for p in _sieve_upto(hi) if p >= lo]
        assert list(primes_in_range(lo, hi)) == expected, (lo, hi)


def test_factor_squarefree_known():
    assert factor_squarefree(1105).factors == (5, 13, 17)
    assert factor_squarefree(65).factors == (5, 13)
    assert factor_squarefree(2).factors == (2,)
    assert factor_squarefree(10).factors == (2, 5)
    sd = factor_squarefree(3445)
    assert sd.factors == (5, 13, 53)
    assert sd.t == 3


def test_squarefree_d_stores_t_outside_repr_eq_and_hash():
    sd = factor_squarefree(2371330)
    assert sd.t == len(sd.factors) == 6
    assert repr(sd) == "SquarefreeD(d=2371330, factors=(2, 5, 13, 17, 29, 37))"
    same = SquarefreeD(2371330, (2, 5, 13, 17, 29, 37))
    assert sd == same and hash(sd) == hash(same) == hash((2371330, (2, 5, 13, 17, 29, 37)))
    assert sd != SquarefreeD(65, (5, 13))


def test_factor_squarefree_rejects_squares():
    for d in (4, 12, 25, 50, 99):
        with pytest.raises(NotSquarefree):
            factor_squarefree(d)
    with pytest.raises(PreconditionViolated):
        factor_squarefree(1)


def test_factor_squarefree_semiprime():
    p, q = 999983, 999979
    sd = factor_squarefree(p * q)
    assert sd.factors == (q, p)


def test_factor_squarefree_rho_path():
    # every factor lies past the 10^6 trial-division bound
    p, q, r = 1000033, 1000037, 1000081
    assert factor_squarefree(p * q).factors == (p, q)
    sd = factor_squarefree(5 * p * q * r)
    assert sd.factors == (5, p, q, r)
    assert sd.d == 5 * p * q * r
    with pytest.raises(NotSquarefree):
        factor_squarefree(p * p)


def test_admissible_flag():
    assert factor_squarefree(65).admissible
    assert factor_squarefree(10).admissible
    assert factor_squarefree(2).admissible
    assert not factor_squarefree(15).admissible
    assert not factor_squarefree(7).admissible


def test_squarefreed_is_value_like():
    a = SquarefreeD(65, (5, 13))
    b = SquarefreeD(65, (5, 13))
    assert a == b and hash(a) == hash(b)
