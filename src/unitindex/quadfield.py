"""Arithmetic of the real quadratic field Q(sqrt(p)): Pell units with a
fixed sign normalization, prime splitting, and residue symbols modulo the
primes over a rational prime q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import is_prime, jacobi, sqrt_mod
from .errors import (
    IterationLimitExceeded,
    NoNegativeNormUnit,
    NotCoprime,
    PreconditionViolated,
)

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

FIRST = "first"
CONJUGATE = "conjugate"

_PELL_ITERATION_CAP = 10**6  # steps through the first half of a period
_PELL_BLOCK = 32  # partial quotients multiplied out per small-integer block


@dataclass(frozen=True)
class PellUnit:
    """Fundamental norm -1 unit u + v*sqrt(p), sign-normalized."""

    p: int
    u: int
    v: int

    def norm(self) -> int:
        return self.u * self.u - self.p * self.v * self.v


@dataclass(frozen=True)
class KpElement:
    """x + y*sqrt(p), or (x + y*sqrt(p))/2 when halved (x, y then both odd)."""

    x: int
    y: int
    p: int
    halved: bool = False

    def __post_init__(self):
        if self.halved and (self.x % 2 == 0 or self.y % 2 == 0):
            raise PreconditionViolated("halved elements need both coordinates odd")

    def conjugate(self) -> "KpElement":
        return KpElement(self.x, -self.y, self.p, self.halved)

    def norm(self) -> int:
        n = self.x * self.x - self.p * self.y * self.y
        if self.halved:
            if n % 4 != 0:
                raise PreconditionViolated(f"norm of {self} is not an integer")
            return n // 4
        return n

    def __str__(self) -> str:
        body = f"{self.x} + {self.y}*sqrt({self.p})"
        return f"({body})/2" if self.halved else body


def pell_negative_unit(p: int) -> PellUnit:
    """Fundamental solution of u^2 - p*v^2 = -1, with v - u = 1 (mod 4).

    Built from the first half of the continued-fraction period of sqrt(p).
    Requires prime p = 1 (mod 4); such p always carry a norm -1 unit.
    """
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    if p % 4 != 1:
        raise NoNegativeNormUnit(f"no norm -1 unit for p = {p}")
    return _pell_negative_unit(p)


def _pell_negative_unit(p: int) -> PellUnit:
    """pell_negative_unit() for a p = 1 (mod 4) the caller has proven prime."""
    a0 = math.isqrt(p)
    # remainders from P_0 = 0, Q_0 = 1, Q_(-1) = p: Q_(n+1) = Q_(n-1) + a_n*(P_n - P_(n+1))
    P, Q_prev, Q = 0, p, 1
    blocks = []
    for _ in range(_PELL_ITERATION_CAP // _PELL_BLOCK):
        # [[h, h_prev], [k, k_prev]] of the next quotients, in small integers
        h, h_prev, k, k_prev = 1, 0, 0, 1
        for _ in range(_PELL_BLOCK):
            a = (a0 + P) // Q
            h, h_prev = a * h + h_prev, h
            k, k_prev = a * k + k_prev, k
            P, P_prev = a * Q - P, P
            Q_prev, Q = Q, Q_prev + a * (P_prev - P)
            if Q == Q_prev:
                break
        blocks.append((h, h_prev, k, k_prev))
        # the period of sqrt(p), p = 1 (mod 4) prime, is odd and a palindrome
        # whose middle s is the first pair of equal remainders (Q = 1 twice
        # at period 1); the unit comes from h_s/k_s and h_(s-1)/k_(s-1)
        if Q == Q_prev:
            h, h_prev, k, k_prev = _product(blocks, 0, len(blocks))
            u, v = h * k + h_prev * k_prev, k * k + k_prev * k_prev
            if (v - u) % 4 != 1:
                v = -v
            unit = PellUnit(p, u, v)
            assert unit.norm() == -1
            assert (v - u) % 4 == 1
            expected = (0, 1) if p % 8 == 1 else (2, 3)
            assert (u % 4, v % 4) == expected
            return unit
    raise IterationLimitExceeded(f"no norm -1 convergent for {p} within cap")


def _product(blocks: list[tuple[int, int, int, int]], lo: int, hi: int) -> tuple[int, int, int, int]:
    """Balanced product of the 2x2 matrices blocks[lo:hi], in order."""
    if hi - lo == 1:
        return blocks[lo]
    mid = (lo + hi) // 2
    (a, b, c, d), (e, f, g, h) = _product(blocks, lo, mid), _product(blocks, mid, hi)
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def splitting(q: int, p: int) -> str:
    """Behavior of the rational prime q in Q(sqrt(p)), p an odd prime."""
    if q == p:
        raise PreconditionViolated("q = p is the ramified prime over p itself")
    if not is_prime(q) or not is_prime(p):
        raise PreconditionViolated(f"need distinct primes, got q={q}, p={p}")
    return _splitting(q, p)


def _splitting(q: int, p: int) -> str:
    """splitting() for proven primes, q = p ramified; odd q by Euler's criterion."""
    if q == 2:
        return SPLIT if p % 8 == 1 else INERT if p % 8 == 5 else RAMIFIED
    r = pow(p % q, (q - 1) // 2, q)
    return SPLIT if r == 1 else INERT if r else RAMIFIED


def residue_symbol(alpha: KpElement, q: int, which: str = FIRST, flip_root: bool = False) -> int:
    """Quadratic residue symbol of alpha modulo a prime of Q(sqrt(p)) over q.

    Split q: the two primes are the kernels of x + y*sqrt(p) -> x + y*s and
    x - y*s, with s the canonical square root of p mod q; ``which`` picks
    one, and ``flip_root`` swaps the canonical root (relabeling the pair).
    Inert q: the symbol is jacobi(N(alpha), q), by the Euler criterion in
    the quadratic extension of F_q.
    """
    if q % 2 == 0:
        raise PreconditionViolated("residue symbols here need an odd prime q")
    if which not in (FIRST, CONJUGATE):
        raise PreconditionViolated(f"unknown prime selector {which!r}")
    kind = splitting(q, alpha.p)
    if kind == SPLIT:
        s = sqrt_mod(alpha.p, q)
        if flip_root:
            s = q - s
        val = (alpha.x + alpha.y * s) if which == FIRST else (alpha.x - alpha.y * s)
        if alpha.halved:
            val *= pow(2, -1, q)
        val %= q
        if val == 0:
            raise NotCoprime(f"{alpha} lies in the chosen prime over {q}")
        return jacobi(val, q)
    if kind == INERT:
        n = alpha.norm() % q
        if n == 0:
            raise NotCoprime(f"{alpha} lies in the prime over {q}")
        return jacobi(n, q)
    raise PreconditionViolated(f"{q} ramifies in Q(sqrt({alpha.p}))")
