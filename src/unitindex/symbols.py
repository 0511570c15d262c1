"""Rational residue symbols: fourth-power indicator, Hilbert symbol, quartic cross product.

The fourth-power indicator fpr(a, ell) refines the Legendre symbol: it is
defined only when a is already a square at ell, and records whether a is a
fourth power there.  For a squarefree composite modulus it multiplies over
the prime factors.
"""

from __future__ import annotations

import math

from .arith import factor_squarefree, is_prime, jacobi
from .errors import NotCoprime, PreconditionViolated
from .gaussian import QuarticValue, quartic_symbol, split_primary

#: Sentinel for the archimedean place.
INFINITY = "oo"


def fpr(a: int, ell) -> int:
    """Fourth-power residue indicator of a at ell, valued in {+1, -1}.

    For an odd prime ell it requires (a/ell) = +1 and returns +1 exactly
    when a is a fourth power mod ell.  For ell = 2 it requires a = 1 (mod 8)
    and returns +1 for a = 1 (mod 16).  For squarefree composite ell > 0 it
    is the product over the prime factors.  The archimedean place is outside
    the domain.
    """
    if ell == INFINITY:
        raise PreconditionViolated("fourth-power indicator has no archimedean component")
    if not isinstance(ell, int) or ell < 2:
        raise PreconditionViolated(f"modulus must be an integer >= 2, got {ell!r}")
    if ell == 2 or is_prime(ell):
        return _fpr(a, ell)
    return math.prod(_fpr(a, q) for q in factor_squarefree(ell).factors)


def _fpr(a: int, ell: int) -> int:
    """fpr() at a modulus the caller has already proven prime."""
    if ell == 2:
        if a % 8 != 1:
            raise PreconditionViolated(f"{a} is not 1 (mod 8)")
        return 1 if a % 16 == 1 else -1
    r = a % ell
    if r == 0:
        raise NotCoprime(f"{a} is divisible by {ell}")
    # c = r^((ell-1)/4) or r^((ell-1)/2); Euler's criterion reads c^2 or c
    c = pow(r, (ell - 1) // math.gcd(ell - 1, 4), ell)
    if (c * c % ell if ell % 4 == 1 else c) != 1:
        raise PreconditionViolated(f"{r} is not a square mod {ell}")
    return 1 if c == 1 else -1


def _eps(n: int) -> int:
    """(n - 1)/2 mod 2, for odd n."""
    return (n - 1) // 2 % 2


def _omega(n: int) -> int:
    """(n^2 - 1)/8 mod 2, for odd n."""
    return (n * n - 1) // 8 % 2


def hilbert(a: int, b: int, r) -> int:
    """Hilbert symbol (a, b)_r over Q_r; r is a prime or INFINITY."""
    if a == 0 or b == 0:
        raise PreconditionViolated("Hilbert symbol needs nonzero arguments")
    if r == INFINITY:
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(r, int) or r < 2 or not is_prime(r):
        raise PreconditionViolated(f"place must be prime or INFINITY, got {r!r}")
    return _hilbert(a, b, r)


def _hilbert(a: int, b: int, r: int) -> int:
    """hilbert() at a finite place r the caller has already proven prime."""
    alpha, u = _split_valuation(a, r)
    beta, v = _split_valuation(b, r)
    if r == 2:
        exponent = _eps(u) * _eps(v) + alpha * _omega(v) + beta * _omega(u)
        return -1 if exponent % 2 else 1
    sign = -1 if (alpha * beta * _eps(r)) % 2 else 1
    return sign * jacobi(u, r) ** beta * jacobi(v, r) ** alpha


def _split_valuation(n: int, r: int) -> tuple[int, int]:
    alpha = 0
    while n % r == 0:
        n //= r
        alpha += 1
    return alpha, n


def quartic_cross_product(a: int, b: int) -> int:
    """Mutual quartic-symbol product of a coprime pair, a sign in {+1, -1}.

    a*b is the squarefree part of the discriminant, with every prime factor
    2 or 1 (mod 4), and b odd.  The value collects quartic symbols of b at
    the primary primes over the odd part of a, and of a at the primary
    primes over b; an even a contributes an extra real factor
    (-1)^((1-b)/8), which needs b = 1 (mod 8).  An imaginary total raises
    NonRealSymbolProduct.
    """
    if b % 2 == 0:
        raise PreconditionViolated(f"b = {b} must be odd")
    total = QuarticValue(0)
    if a % 2 == 0:
        if b % 8 != 1:
            raise PreconditionViolated(
                f"even a needs b = 1 (mod 8) for the symbol over 1+i, got b = {b}"
            )
        total *= QuarticValue(2 * (((1 - b) // 8) % 2))
    a_odd = a // 2 if a % 2 == 0 else a
    for q in factor_squarefree(a_odd).factors if a_odd > 1 else ():
        total *= quartic_symbol(b, split_primary(q))
    for q in factor_squarefree(b).factors if b > 1 else ():
        total *= quartic_symbol(a, split_primary(q))
    return total.sign()
