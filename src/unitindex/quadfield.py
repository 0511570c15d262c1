"""Arithmetic of the real quadratic field Q(sqrt(p)): Pell units with a
fixed sign normalization, and the splitting of rational primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import is_prime
from .errors import IterationLimitExceeded, NoNegativeNormUnit, PreconditionViolated

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

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


def pell_negative_unit(p: int) -> PellUnit:
    """Fundamental solution of u^2 - p*v^2 = -1, with v - u = 1 (mod 4).

    Built from the first half of the continued-fraction period of
    (1 + sqrt(p))/2, cubed when that unit is not in Z[sqrt(p)].
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
    # remainders of omega = (1 + sqrt(p))/2 from P_0 = 1, Q_0 = 2, Q_(-1) = (p - 1)/2:
    # Q_(n+1) = Q_(n-1) + a_n*(P_n - P_(n+1))
    P, Q_prev, Q = 1, (p - 1) // 2, 2
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
        # the period of omega, p = 1 (mod 4) prime, is odd and a palindrome
        # whose middle s is the first pair of equal remainders (Q = 2 twice
        # at period 1); the fundamental unit (T + W*sqrt(p))/2 of Z[omega]
        # comes from h_s/k_s and h_(s-1)/k_(s-1), and is cubed when it is
        # not in Z[sqrt(p)] (odd W, only for p = 5 mod 8)
        if Q == Q_prev:
            h, h_prev, k, k_prev = _product(blocks, 0, len(blocks))
            W = k * k + k_prev * k_prev
            T = 2 * (h * k + h_prev * k_prev) - W
            if W % 2:
                T, W = (T**3 + 3 * T * W * W * p) // 4, (3 * T * T * W + W**3 * p) // 4
            u, v = T // 2, W // 2
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

