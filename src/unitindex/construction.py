"""Explicit solutions of the ternary quadratic equations behind the criteria.

Two constructions live here: the two-block splitting d = a*b validated by
Hilbert symbols, and the normalized solution of p*x^2 - a*y^2 - b*z^2 = 0
whose leading sign, against the Pell unit, decides total reality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator

from .arith import SquarefreeD, factor_squarefree, is_prime, jacobi
from .errors import (
    HeightExceeded,
    LocalObstruction,
    NoDecomposition,
    NormalizationFailed,
    PreconditionViolated,
)
from .quadfield import PellUnit
from .redei import _split_residue_matrix, ordered_factors, rank_and_kernel
from .symbols import INFINITY, _hilbert

_SEARCH_BUDGET = 10**7


@dataclass(frozen=True)
class TernarySolution:
    """One integral solution of p*x^2 - a*y^2 - b*z^2 = 0.

    The coefficients are carried along so the defining identity can be
    rechecked at any time; it is enforced on construction.
    """

    x: int
    y: int
    z: int
    p: int
    a: int
    b: int
    normalized: bool = False

    def __post_init__(self):
        if self.residual() != 0:
            raise PreconditionViolated(f"not a solution: {self}")
        if self.normalized and math.gcd(math.gcd(self.x, self.y), self.z) != 1:
            raise PreconditionViolated(f"normalized solution must be primitive: {self}")

    def residual(self) -> int:
        return self.p * self.x**2 - self.a * self.y**2 - self.b * self.z**2


@dataclass(frozen=True)
class Decomposition:
    """A two-block splitting d = a*b picked from the kernel of the split matrix.

    ``factors`` is the split-first ordered factor list of d and ``exponents``
    the 0/1 vector over it with a = prod(q^e).
    """

    a: int
    b: int
    factors: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        prod = 1
        for q, e in zip(self.factors, self.exponents):
            prod *= q**e
        if prod != self.a:
            raise PreconditionViolated("exponent vector does not match a")


def _check_local_solvability(c1: int, c2: int, c3: int) -> None:
    u = -c1 * c2
    v = -c1 * c3
    # every prime dividing a coefficient, trial dividing up to a prime
    # cofactor; one dividing every coefficient to an even power has symbol 1
    places: set[int] = set()
    for c in (c1, c2, c3):
        n, q = abs(c), 2
        prime = is_prime(n)
        while not prime and q * q <= n:
            if n % q == 0:
                places.add(q)
                while n % q == 0:
                    n //= q
                prime = is_prime(n)
            q += 1
        places.add(n)
    # odd places first: a failure comes in pairs by the product formula,
    # and the odd member is the one a descent argument names
    for r in sorted(places - {1, 2}) + [2]:
        if _hilbert(u, v, r) != 1:
            raise LocalObstruction(r)


def _solutions(c1: int, c2: int, c3: int) -> Iterator[tuple[int, int, int]]:
    """All primitive solutions of c1*x^2 + c2*y^2 + c3*z^2 = 0 with
    x, y, z >= 0, in (x, z, y)-lexicographic order, searched x by x.

    The solutions of each x are yielded as soon as that x is done.  The
    inner loop runs over the variable w with the larger coefficient W and
    visits only the w whose class mod the other coefficient S solves
    W*w^2 = c1*x^2.  The budget counts the work done: per x, the residues
    the root scan tries plus the w visited.  Once the running count passes
    _SEARCH_BUDGET, HeightExceeded is raised before that x is walked, so a
    failed search walks at most _SEARCH_BUDGET w.  The Holzer bound
    |x| <= sqrt(c2*c3) holds a solution whenever one exists and the
    coefficients are squarefree and pairwise coprime.  No cap on x is
    needed: every x costs a step, so the budget ends the search first.
    """
    if 0 in (c1, c2, c3):
        raise PreconditionViolated("coefficients must be nonzero")
    if c1 < 0:
        c1, c2, c3 = -c1, -c2, -c3
    if c2 > 0 or c3 > 0:
        if c2 > 0 and c3 > 0:
            raise LocalObstruction(INFINITY)
        raise PreconditionViolated("expected the sign pattern (+, -, -)")
    _check_local_solvability(c1, c2, c3)
    A, B, C = c1, -c2, -c3
    solve_for_y = B <= C  # iterate the larger-coefficient variable
    W, S = (C, B) if solve_for_y else (B, C)
    spent = 0
    for x in itertools.count(1):
        target = A * x * x
        w_hi = math.isqrt(target // W)
        # S divides target - W*w^2 exactly when w mod S is a root of it
        span = min(S, w_hi + 1)
        spent += span
        if spent <= _SEARCH_BUDGET:
            classes = [range(r, w_hi + 1, S) for r in range(span) if (target - W * r * r) % S == 0]
            spent += sum(map(len, classes))
        if spent > _SEARCH_BUDGET:
            raise HeightExceeded(
                f"search budget exhausted near x = {x} for ({A}, {-B}, {-C})"
            )
        found = []
        for ws in classes:
            for w in ws:
                s2 = (target - W * w * w) // S
                s = math.isqrt(s2)
                if s * s != s2:
                    continue
                y, z = (s, w) if solve_for_y else (w, s)
                if math.gcd(math.gcd(x, y), z) == 1:
                    found.append((x, y, z))
        found.sort(key=lambda sol: (sol[2], sol[1]))
        yield from found


def solve_legendre(c1: int, c2: int, c3: int) -> tuple[int, int, int]:
    """Smallest primitive solution of c1*x^2 + c2*y^2 + c3*z^2 = 0.

    Smallest means lexicographic in (|x|, |z|, |y|); the returned triple is
    nonnegative.  Local solvability is checked first via Hilbert symbols,
    and a failing place is reported in the LocalObstruction it raises.
    """
    return next(_solutions(c1, c2, c3))


def find_decomposition(d: int | SquarefreeD, p: int) -> Decomposition:
    """Split d into coprime halves a*b, both non-residues mod p, with
    p*x^2 - a*y^2 - b*z^2 = 0 solvable.

    The exponent vector of a runs over the kernel of the split residue
    matrix; candidates are tried in ascending bitmask order (bit i is the
    i-th factor in split-first order) and validated by Hilbert symbols at
    every relevant place.  For even d only even a qualifies.  Requires
    exactly two nonsplit factors.
    """
    sd = d if isinstance(d, SquarefreeD) else factor_squarefree(d)
    split, inert = ordered_factors(sd, p)
    ordered = split + inert
    t = sd.t
    if len(split) != t - 2:
        raise PreconditionViolated(
            f"need exactly two nonsplit factors, got {t - len(split)}"
        )
    _, kernel_basis = rank_and_kernel(_split_residue_matrix(sd, split, inert))
    masks = sorted(
        {
            _combine(kernel_basis, pick)
            for pick in range(1 << len(kernel_basis))
        }
    )
    full = (1 << t) - 1
    two_bit = 1 << ordered.index(2) if sd.d % 2 == 0 else 0
    # a*p, b*p > 0 never obstruct at the real place; p is proven above
    places = [2, p] + [q for q in sd.factors if q % 2]
    for mask in masks:
        if mask in (0, full):
            continue
        if two_bit and not mask & two_bit:
            continue
        a = 1
        for i in range(t):
            if mask >> i & 1:
                a *= ordered[i]
        b = sd.d // a
        if jacobi(a, p) != -1 or jacobi(b, p) != -1:
            continue
        if all(_hilbert(a * p, b * p, r) == 1 for r in places):
            exps = tuple(mask >> i & 1 for i in range(t))
            return Decomposition(a, b, ordered, exps)
    raise NoDecomposition(f"no validated splitting of {sd.d} for p = {p}")


def _combine(basis: list[int], pick: int) -> int:
    mask = 0
    for i, vec in enumerate(basis):
        if pick >> i & 1:
            mask ^= vec
    return mask


def normalize_solution(sol: TernarySolution) -> TernarySolution:
    """Canonical representative of a solution of p*x^2 = a*y^2 + b*z^2.

    Output shape: gcd(x, y, z) = 1, x and z odd, y even, y and z
    nonnegative, and x signed so that x - y = 1 mod 4.  For odd d the
    odd-z case is repaired by a linear substitution first.  Idempotent.
    """
    p, a, b = sol.p, sol.a, sol.b
    x, y, z = sol.x, sol.y, sol.z
    g = math.gcd(math.gcd(x, y), z)
    x, y, z = x // g, y // g, z // g
    if x % 2 == 0:
        raise NormalizationFailed(f"x stays even in {sol}")
    if z % 2 == 0:
        if a % 2 == 0 or b % 2 == 0:
            raise NormalizationFailed(f"even z cannot happen for even d: {sol}")
        # substitution sending (odd, odd, even) to (odd, even, odd)
        x, y, z = (
            (a + b) // 2 * x,
            (a - b) // 2 * y + b * z,
            (a - b) // 2 * z - a * y,
        )
        g = math.gcd(math.gcd(x, y), z)
        x, y, z = x // g, y // g, z // g
    if x % 2 == 0 or y % 2 or z % 2 == 0:
        raise NormalizationFailed(f"parity pattern broken for {sol}")
    y, z = abs(y), abs(z)
    if (x - y) % 4 != 1:
        x = -x
    out = replace(sol, x=x, y=y, z=z, normalized=True)
    _assert_residue_table(out)
    return out


def _assert_residue_table(sol: TernarySolution) -> None:
    bp = sol.b * sol.p
    if sol.a % 2 == 0:
        if bp % 8 != 1:
            raise NormalizationFailed(f"b*p = {bp} is not 1 mod 8 with a even")
        return
    want = (1, 0) if bp % 8 == 1 else (3, 2)
    got = (sol.x % 4, sol.y % 4)
    if got != want:
        raise NormalizationFailed(f"residues {got} instead of {want} for {sol}")


def totally_real(sol: TernarySolution, unit: PellUnit) -> bool:
    """Positivity of all four conjugates of the attached quadratic radicand.

    The radicand is (x*sqrt(p) + y*sqrt(a)) times the Pell unit; its
    conjugates share one sign, which this reads off as x*v > 0.
    """
    if not sol.normalized:
        raise PreconditionViolated("need a normalized solution")
    if unit.p != sol.p:
        raise PreconditionViolated("unit belongs to a different field")
    return sol.x * unit.v > 0
