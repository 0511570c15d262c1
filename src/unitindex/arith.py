"""Elementary number theory: primality, factoring, residue symbols, sieves.

Everything here works on plain ints and is deterministic, including the
fallback rho factorizer (its parameters are derived from the input).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import CompositeResidualFactor, NoSquareRoot, NotSquarefree, PreconditionViolated

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Witnesses proving compositeness for every composite below 3.3 * 10^24,
# comfortably past 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int, rounds: int = 24) -> bool:
    """Miller-Rabin, deterministic below 2^64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < 1 << 64:
        return not any(witness(a) for a in _MR_BASES)
    rng = random.Random(n)
    for _ in range(rounds):
        if witness(rng.randrange(2, n - 1)):
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise PreconditionViolated(f"jacobi needs odd positive modulus, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for positive n."""
    if n <= 0:
        raise PreconditionViolated(f"kronecker needs positive n, got {n}")
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    return result * jacobi(a, n)


def sqrt_mod(a: int, p: int) -> int:
    """Square root of a mod odd prime p, the smaller of the pair.

    Tonelli-Shanks; raises NoSquareRoot on a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise NoSquareRoot(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # p = 1 (mod 4): full Tonelli-Shanks.
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)


def primes_in_range(lo: int, hi: int):
    """Yield primes p with lo <= p <= hi, by segmented sieve."""
    lo = max(lo, 2)
    if hi < lo:
        return
    root = math.isqrt(hi)
    base = _sieve_upto(root)
    segment = 1 << 17
    start = lo
    while start <= hi:
        end = min(start + segment - 1, hi)
        size = end - start + 1
        flags = bytearray([1]) * size
        for p in base:
            first = max(p * p, (start + p - 1) // p * p)
            for multiple in range(first, end + 1, p):
                flags[multiple - start] = 0
        for offset in range(size):
            if flags[offset]:
                n = start + offset
                if n >= 2:
                    yield n
        start = end + 1


def _sieve_upto(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(2, n + 1) if flags[i]]


@dataclass(frozen=True)
class SquarefreeD:
    """A squarefree integer with its ascending prime factorization."""

    d: int
    factors: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.factors)

    @property
    def admissible(self) -> bool:
        """True when every prime factor is 2 or is 1 mod 4."""
        return all(q == 2 or q % 4 == 1 for q in self.factors)


def _rho_brent(n: int) -> int:
    """Brent's cycle-finding rho; returns a nontrivial factor of composite n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 40):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise CompositeResidualFactor(f"could not split {n}")


def factor_squarefree(d: int) -> SquarefreeD:
    """Factor a squarefree positive integer; NotSquarefree on a repeated prime."""
    if d <= 1:
        raise PreconditionViolated(f"need d > 1, got {d}")
    n = d
    found: list[int] = []
    limit = min(10**6, math.isqrt(n) + 1)
    for p in range(2, limit + 1):
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                raise NotSquarefree(f"{d} is divisible by {p}^2")
            found.append(p)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found.append(m)
            continue
        g = _rho_brent(m)
        if g in (1, m):
            raise CompositeResidualFactor(f"could not split {m}")
        stack.append(g)
        stack.append(m // g)
    found.sort()
    for a, b in zip(found, found[1:]):
        if a == b:
            raise NotSquarefree(f"{d} is divisible by {a}^2")
    if math.prod(found) != d:
        raise NotSquarefree(f"{d} has a repeated prime factor")
    return SquarefreeD(d=d, factors=tuple(found))
