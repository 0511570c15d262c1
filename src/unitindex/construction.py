"""Explicit solutions of the ternary quadratic equations behind the criteria.

Two constructions live here: the two-block splitting d = a*b validated by
Hilbert symbols, and the normalized solution of p*x^2 - a*y^2 - b*z^2 = 0
whose leading sign, against the Pell unit, decides total reality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

from .arith import SquarefreeD, factor_squarefree, is_prime, jacobi, sqrt_mod
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


def _factorization(n: int) -> dict[int, int]:
    """Prime factorization of n > 0 by trial division up to a prime cofactor."""
    out: dict[int, int] = {}
    q, prime = 2, is_prime(n)
    while not prime and q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
            prime = is_prime(n)
        q += 1
    if n > 1:
        out[n] = 1
    return out


def _check_local_solvability(c1: int, c2: int, c3: int, places: set[int]) -> None:
    # places: every prime dividing a coefficient.  Odd places first: a failure
    # comes in pairs (product formula), and descent names the odd member
    for r in sorted(places - {2}) + [2]:
        if _hilbert(-c1 * c2, -c1 * c3, r) != 1:
            raise LocalObstruction(r)


def _reduced_form(B: int, C: int, u: tuple[int, int], w: tuple[int, int]) -> tuple:
    """Gauss-reduced basis (u, w) of the lattice that u and w span, with the
    Gram entries Q(u), <u, w> and the determinant under Q = B*y^2 + C*z^2."""

    def dot(v1, v2):
        return B * v1[0] * v2[0] + C * v1[1] * v2[1]

    nu, nw = dot(u, u), dot(w, w)
    while True:
        if nu > nw:
            u, w, nu, nw = w, u, nw, nu
        uw = dot(u, w)
        mu = (2 * uw + nu) // (2 * nu)  # nearest to <u, w>/Q(u)
        if not mu:
            return u, w, nu, uw, nu * nw - uw * uw
        w = (w[0] - mu * u[0], w[1] - mu * u[1])
        nw = dot(w, w)


def _solutions(c1: int, c2: int, c3: int) -> Iterator[tuple[int, int, int]]:
    """All primitive solutions of c1*x^2 + c2*y^2 + c3*z^2 = 0 with
    x, y, z >= 0, in (x, z, y)-lexicographic order, by lattice enumeration.

    Write A*x^2 = B*y^2 + C*z^2 with A, B, C > 0.  A prime q dividing A once
    (and not all three) forces q | z if q | B, else y = +-r*z (mod q) with
    B*r^2 + C = 0 (mod q), since q | z puts q in gcd(x, y, z).  Each root
    combined by CRT, one of each +- pair, gives a Gauss-reduced lattice of
    (y, z).  Bands X = 1, 2, 4, ... visit its points with
    B*y^2 + C*z^2 <= A*X^2 and yield the zeros with X/2 < x <= X once the
    band is done.  The budget counts the points visited: past
    _SEARCH_BUDGET, HeightExceeded is raised before the band is walked.  A
    solvable conic with squarefree, pairwise coprime coefficients has a
    zero with x <= sqrt(B*C) (Holzer).
    """
    if 0 in (c1, c2, c3):
        raise PreconditionViolated("coefficients must be nonzero")
    if c1 < 0:
        c1, c2, c3 = -c1, -c2, -c3
    if c2 > 0 or c3 > 0:
        if c2 > 0 and c3 > 0:
            raise LocalObstruction(INFINITY)
        raise PreconditionViolated("expected the sign pattern (+, -, -)")
    A, B, C = c1, -c2, -c3
    factored = _factorization(A)
    _check_local_solvability(c1, c2, c3, set(factored).union(_factorization(B), _factorization(C)))
    # the lattice {(y, z) : y = r*z (mod M1), z = 0 (mod M2)} per root r
    M1, M2, roots = 1, 1, {0}
    for q, e in factored.items():
        if e == 1 and B % q == 0 < C % q:
            M2 *= q
        elif e == 1 and B % q:
            s, inv = sqrt_mod(-C * pow(B, -1, q), q), pow(M1, -1, q)
            roots = {r + M1 * ((s_q - r) * inv % q) for r in roots for s_q in (s, -s)}
            M1 *= q
    forms = [_reduced_form(B, C, (M1, 0), (r * M2, M2)) for r in {min(r, -r % M1) for r in roots}]
    spent, X = 0, 1
    while True:
        N = A * X * X
        # i*u + j*w for j > 0, and j = 0 with i > 0: one of each +- pair
        rows = []
        for u, w, a, b, det in forms:
            for j in range(math.isqrt(a * N // det) + 1):
                s = math.isqrt(a * N - det * j * j)
                rows.append((u, w, j, -((b * j + s) // a) if j else 1, (s - b * j) // a))
        spent += sum(hi - lo + 1 for *_, lo, hi in rows)
        if spent > _SEARCH_BUDGET:
            raise HeightExceeded(f"search budget exhausted near x = {X} for ({A}, {-B}, {-C})")
        found = set()
        for u, w, j, lo, hi in rows:
            for i in range(lo, hi + 1):
                y, z = i * u[0] + j * w[0], i * u[1] + j * w[1]
                x2, rem = divmod(B * y * y + C * z * z, A)
                x = math.isqrt(x2)
                if not rem and x * x == x2 and 2 * x > X and math.gcd(math.gcd(x, y), z) == 1:
                    found.add((x, abs(y), abs(z)))
        yield from sorted(found, key=lambda sol: (sol[0], sol[2], sol[1]))
        X *= 2


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
