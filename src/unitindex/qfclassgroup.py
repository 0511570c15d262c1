"""Brute-force oracle for narrow class groups of real quadratic fields.

Everything is done with integer binary quadratic forms of positive
nonsquare discriminant: reduced forms are enumerated, the reduction
operator partitions them into cycles (one cycle per narrow class), and the
group law is Gauss composition followed by reduction-to-cycle lookup.
This is deliberately independent of the symbol machinery it cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import SquarefreeD, _sieve_upto, factor_squarefree
from .errors import (
    IterationLimitExceeded,
    NotSquarefree,
    PreconditionViolated,
)
from .redei import redei_rank4

_REDUCE_CAP = 10_000
#: Bound on the fundamental discriminant the forms oracle will enumerate.
_MAX_DISC = 10**7


@dataclass(frozen=True)
class ClassGroup2Sylow:
    """2-Sylow invariants of a narrow class group."""

    rk2: int
    rk4: int
    rk8: int
    two_part_order: int
    h_plus: int


@dataclass(frozen=True)
class HypothesisReport:
    """Whether a base value d qualifies for the unit-index criteria."""

    d: SquarefreeD
    admissible: bool
    rank4_matrix: int
    rank4_oracle: int | None
    agree: bool
    passed: bool


def _divisors(n: int, primes: list[int]) -> list[int]:
    """Sorted divisors of n > 0 from its factorization over primes up to sqrt(n)."""
    divs = [1]
    for q in primes:
        if q * q > n:
            break
        k = len(divs)
        while n % q == 0:
            n //= q
            divs += [a * q for a in divs[-k:]]
    if n > 1:
        divs += [a * n for a in divs]
    return sorted(divs)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _fundamental_discriminant(D: int) -> int:
    """Fundamental discriminant for squarefree D, or D itself when D is
    already an even fundamental discriminant (4k, k squarefree, k = 2 or 3
    mod 4)."""
    if D <= 1:
        raise PreconditionViolated(f"need D > 1, got {D}")
    if D % 4 == 0:
        k = D // 4
        if k % 4 in (2, 3):
            factor_squarefree(k)  # raises NotSquarefree if not
            return D
        raise NotSquarefree(f"{D} is neither squarefree nor a fundamental discriminant")
    factor_squarefree(D)
    return D if D % 4 == 1 else 4 * D


class _FormTable:
    """All reduced forms of one discriminant, their cycles, and composition."""

    def __init__(self, disc: int):
        self.D = disc
        self.isq = math.isqrt(disc)
        if self.isq * self.isq == disc:
            raise PreconditionViolated(f"discriminant {disc} is a square")
        self._enumerate()
        self._find_cycles()
        self._compose_memo: dict[tuple[int, int], int] = {}

    # -- enumeration and reduction ------------------------------------

    def _is_reduced_pair(self, abs_a: int, b: int) -> bool:
        # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, integer-exact
        if b <= 0 or b * b >= self.D:
            return False
        two_a = 2 * abs_a
        if (two_a + b) ** 2 <= self.D:
            return False
        return two_a <= b or (two_a - b) ** 2 < self.D

    def is_reduced(self, form: tuple[int, int, int]) -> bool:
        a, b, _ = form
        return self._is_reduced_pair(abs(a), b)

    def _enumerate(self) -> None:
        D = self.D
        forms = []
        primes = _sieve_upto(math.isqrt(D // 4))
        for b in range(2 - (D & 1), self.isq + 1, 2):
            n = (D - b * b) // 4
            for a in _divisors(n, primes):
                if not self._is_reduced_pair(a, b):
                    continue
                c = n // a
                forms.append((a, b, -c))
                forms.append((-a, b, c))
        self.forms = forms

    def _rho(self, form: tuple[int, int, int]) -> tuple[int, int, int]:
        _, b, c = form
        m = 2 * abs(c)
        if abs(c) > self.isq:
            r = -b % m
            if r > abs(c):
                r -= m
        else:
            r = self.isq - (self.isq - (-b % m)) % m
        return (c, r, (r * r - self.D) // (4 * c))

    def reduce(self, form: tuple[int, int, int]) -> tuple[int, int, int]:
        a, b, c = form
        assert b * b - 4 * a * c == self.D
        # normalize b into the standard window for the current a
        m = 2 * abs(a)
        if abs(a) > self.isq:
            r = b % m
            if r > abs(a):
                r -= m
        else:
            r = self.isq - (self.isq - b % m) % m
        form = (a, r, (r * r - self.D) // (4 * a))
        for _ in range(_REDUCE_CAP):
            if self.is_reduced(form):
                return form
            form = self._rho(form)
        raise IterationLimitExceeded(f"reduction did not terminate for disc {self.D}")

    # -- cycles = narrow classes --------------------------------------

    def _find_cycles(self) -> None:
        self.cycle_of: dict[tuple[int, int, int], int] = {}
        self.cycles: list[list[tuple[int, int, int]]] = []
        for start in sorted(self.forms):
            if start in self.cycle_of:
                continue
            cid = len(self.cycles)
            members = []
            g = start
            while g not in self.cycle_of:
                self.cycle_of[g] = cid
                members.append(g)
                g = self._rho(g)
            assert g == start, f"rho walk left its cycle at disc {self.D}"
            self.cycles.append(members)
        self.h_plus = len(self.cycles)

    def principal_id(self) -> int:
        b0 = self.isq - (self.isq - self.D % 2) % 2
        return self.cycle_of[self.reduce((1, b0, (b0 * b0 - self.D) // 4))]

    # -- composition ---------------------------------------------------

    def _transform(self, form, x, y, u, w):
        a, b, c = form
        return (
            a * x * x + b * x * y + c * y * y,
            2 * a * x * u + b * (x * w + u * y) + 2 * c * y * w,
            a * u * u + b * u * w + c * w * w,
        )

    def _coprime_representative(self, cid: int, other_a: int) -> tuple[int, int, int]:
        for g in self.cycles[cid]:
            if math.gcd(g[0], other_a) == 1:
                return g
        # No cycle member works; transform one so its leading coefficient
        # becomes a represented value coprime to other_a.
        g = self.cycles[cid][0]
        for x in range(1, 40):
            for y in range(-40, 40):
                if math.gcd(x, y) != 1:
                    continue
                val = g[0] * x * x + g[1] * x * y + g[2] * y * y
                if val == 0 or math.gcd(val, other_a) != 1:
                    continue
                gg, s, t = _egcd(x, y)
                if gg < 0:
                    s, t = -s, -t
                # x*s + y*t = 1, so [[x, -t], [y, s]] has determinant 1
                out = self._transform(g, x, y, -t, s)
                assert out[0] == val
                return out
        raise IterationLimitExceeded(f"no coprime representative at disc {self.D}")

    def compose(self, i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key in self._compose_memo:
            return self._compose_memo[key]
        f = self.cycles[key[0]][0]
        g = self._coprime_representative(key[1], f[0])
        a1, b1, _ = f
        a2, b2, _ = g
        t = (b2 - b1) // 2 * pow(a1, -1, abs(a2)) % abs(a2) if abs(a2) > 1 else 0
        B = b1 + 2 * a1 * t
        A = a1 * a2
        C = (B * B - self.D) // (4 * A)
        cid = self.cycle_of[self.reduce((A, B, C))]
        self._compose_memo[key] = cid
        return cid

    def power(self, i: int, e: int) -> int:
        result = self.principal_id()
        base = i
        while e:
            if e & 1:
                result = self.compose(result, base)
            base = self.compose(base, base)
            e >>= 1
        return result


def narrow_class_group(D: int) -> ClassGroup2Sylow:
    """Narrow class number and 2-Sylow ranks of Q(sqrt(D)) by forms.

    D is positive squarefree (or an even fundamental discriminant); the
    work is bounded by _MAX_DISC on the fundamental discriminant.
    """
    disc = _fundamental_discriminant(D)
    if disc > _MAX_DISC:
        raise PreconditionViolated(f"discriminant {disc} exceeds the bound {_MAX_DISC}")
    table = _FormTable(disc)
    h_plus = table.h_plus
    two_part = h_plus & -h_plus
    if two_part == 1:
        return ClassGroup2Sylow(0, 0, 0, 1, h_plus)
    odd = h_plus // two_part
    sylow = {table.power(i, odd) for i in range(h_plus)}
    assert len(sylow) == two_part
    layers = [sylow]
    for _ in range(3):
        prev = layers[-1]
        layers.append({table.compose(t, t) for t in prev})
    sizes = [len(layer) for layer in layers]
    ranks = []
    for big, small in zip(sizes, sizes[1:]):
        ratio = big // small
        assert big % small == 0 and ratio & (ratio - 1) == 0
        ranks.append(ratio.bit_length() - 1)
    return ClassGroup2Sylow(ranks[0], ranks[1], ranks[2], two_part, h_plus)


def verify_hypotheses(d: int | SquarefreeD) -> HypothesisReport:
    """Check the base-value hypotheses: admissible factors and 4-rank zero.

    The 4-rank is computed twice, by the symbol matrix and by the forms
    oracle, when the discriminant is within the oracle bound.
    """
    sd = d if isinstance(d, SquarefreeD) else factor_squarefree(d)
    admissible = sd.admissible
    rank4_matrix = redei_rank4(sd)
    disc = _fundamental_discriminant(sd.d)
    if disc <= _MAX_DISC:
        rank4_oracle = narrow_class_group(sd.d).rk4
        agree = rank4_oracle == rank4_matrix
    else:
        rank4_oracle = None
        agree = True
    return HypothesisReport(
        d=sd,
        admissible=admissible,
        rank4_matrix=rank4_matrix,
        rank4_oracle=rank4_oracle,
        agree=agree,
        passed=admissible and rank4_matrix == 0 and agree,
    )
