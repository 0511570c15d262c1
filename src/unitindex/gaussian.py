"""Gaussian integers, primary prime factors, and quartic residue symbols.

The quartic symbol is evaluated without ever leaving Z: for a Gaussian
prime pi of odd norm p, the quotient Z[i]/(pi) is F_p, with i landing on a
square root of -1 determined by pi.  All symbol arithmetic happens in that
finite field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime
from .errors import NonRealSymbolProduct, NotCoprime, NotSplit, PreconditionViolated


@dataclass(frozen=True, slots=True)
class GaussInt:
    """An element re + im*i of Z[i]."""

    re: int
    im: int

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}i"


@dataclass(frozen=True)
class QuarticValue:
    """A fourth root of unity i^k, tracked by its exponent k mod 4."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", self.k % 4)

    def __mul__(self, other: "QuarticValue") -> "QuarticValue":
        return QuarticValue(self.k + other.k)

    @property
    def is_real(self) -> bool:
        return self.k % 2 == 0

    def sign(self) -> int:
        """+1 or -1 for a real value; a genuinely imaginary value is an error."""
        if not self.is_real:
            raise NonRealSymbolProduct(f"quartic value i^{self.k} is not real")
        return 1 if self.k == 0 else -1

    def __str__(self) -> str:
        return ("1", "i", "-1", "-i")[self.k]


def split_primary(p: int) -> GaussInt:
    """A primary Gaussian prime above p, for p = 2 or p = 1 (mod 4).

    Primary means re odd, im even, re + im = 1 (mod 4); the conjugate of a
    primary prime is again primary, and the canonical choice is im > 0.
    p = 2 returns 1 + i.
    """
    if p == 2:
        return GaussInt(1, 1)
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    if p % 4 != 1:
        raise NotSplit(f"{p} = 3 (mod 4) stays prime in Z[i]")
    # Cornacchia: x^2 + y^2 = p has one solution up to order and sign
    a, b = p, _sqrt_minus_one(p)
    while b * b > p:
        a, b = b, a % b
    x, y = b, a % b
    assert x * x + y * y == p
    # x, y > 0; the odd one is re, and its sign makes re + im = 1 (mod 4)
    re, im = (x, y) if x % 2 else (y, x)
    return GaussInt(re if (re + im) % 4 == 1 else -re, im)


def _sqrt_minus_one(p: int) -> int:
    """sqrt(-1) mod a proven prime p = 1 (mod 4): c^((p-1)/4), c the least non-residue."""
    # 2 is a residue mod p = 1 (mod 8).  For a prime p, r^2 = (c/p) = +-1; a
    # composite p gives another value by c = its least prime factor at the latest
    q = (p - 1) // 4
    c = 3 if p % 8 == 1 else 2
    while (e := (r := pow(c, q, p)) * r % p) != p - 1:
        if e != 1:
            raise PreconditionViolated(f"{p} is not prime")
        c += 1
    return r


def embedding_of_i(pi: GaussInt) -> int:
    """The image of i in Z[i]/(pi) = F_p, where p = N(pi) is an odd prime.

    From pi = a + bi = 0 we get i = -a/b in F_p.
    """
    p = pi.norm()
    if pi.im == 0 or p % 2 == 0:
        raise PreconditionViolated(f"{pi} does not define an odd residue field F_p")
    s = (-pi.re * pow(pi.im, -1, p)) % p
    assert s * s % p == p - 1
    return s


def quartic_symbol(alpha: GaussInt | int, pi: GaussInt) -> QuarticValue:
    """The quartic residue symbol (alpha / pi)_4 as a power of i.

    pi must be a Gaussian prime of odd norm p = 1 (mod 4); alpha may be a
    Gaussian or rational integer coprime to pi.
    """
    p = pi.norm()
    if not is_prime(p):
        raise PreconditionViolated(f"N({pi}) = {p} is not prime")
    if p % 4 != 1:
        raise PreconditionViolated(f"N({pi}) = {p} is not 1 (mod 4)")
    val, s = _residue(alpha, pi)
    c = pow(val, (p - 1) // 4, p)
    table = {1: 0, s: 1, p - 1: 2, p - s: 3}
    if c not in table:
        raise PreconditionViolated(f"unexpected quartic character value {c} mod {p}")
    return QuarticValue(table[c])


def quad_symbol(alpha: GaussInt | int, pi: GaussInt) -> int:
    """The quadratic residue symbol (alpha / pi) in {+1, -1}."""
    p = pi.norm()
    if not is_prime(p) or p % 2 == 0:
        raise PreconditionViolated(f"N({pi}) = {p} is not an odd prime")
    val, _ = _residue(alpha, pi)
    return 1 if pow(val, (p - 1) // 2, p) == 1 else -1


def _residue(alpha: GaussInt | int, pi: GaussInt) -> tuple[int, int]:
    """alpha mod pi in F_p, p = N(pi), then the image of i there."""
    s = embedding_of_i(pi)
    p = pi.norm()
    val = alpha % p if isinstance(alpha, int) else (alpha.re + alpha.im * s) % p
    if val == 0:
        raise NotCoprime(f"{alpha} lies in the ideal ({pi})")
    return val, s
