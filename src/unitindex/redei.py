"""F2 linear algebra and the residue-symbol matrices controlling 4-rank data.

Two matrices live here: the classical 4-rank matrix of a quadratic field
(redei_rank4), and the rational split-condition matrix whose kernel vectors
index two-block factorizations of d (split_residue_matrix).

Symbols are converted to bits by +1 -> 0, -1 -> 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import SquarefreeD, factor_squarefree, is_prime, jacobi, kronecker
from .errors import NotCoprime, PreconditionViolated
from .quadfield import RAMIFIED, SPLIT, _splitting


@dataclass(frozen=True)
class F2Matrix:
    """Row-major bit matrix over F2; bit j of a row is column j."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise PreconditionViolated(f"row {r:b} exceeds {self.cols} columns")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i] >> j & 1

    def __str__(self) -> str:
        return "\n".join("".join(str(self.entry(i, j)) for j in range(self.cols)) for i in range(self.nrows))


def rank_and_kernel(m: F2Matrix) -> tuple[int, list[int]]:
    """Rank and a reduced-echelon kernel basis (column bitmask vectors).

    The basis is deterministic: one vector per free column, ascending.
    """
    reduced: list[tuple[int, int]] = []  # (pivot column, row value)
    for row in m.rows:
        for pc, rv in reduced:
            if row >> pc & 1:
                row ^= rv
        if row:
            pc = (row & -row).bit_length() - 1
            reduced = [(c, rv ^ row if rv >> pc & 1 else rv) for c, rv in reduced]
            reduced.append((pc, row))
    reduced.sort()
    pivot_cols = {c for c, _ in reduced}
    kernel = []
    for f in range(m.cols):
        if f in pivot_cols:
            continue
        v = 1 << f
        for c, rv in reduced:
            if rv >> f & 1:
                v |= 1 << c
        kernel.append(v)
    return len(reduced), kernel


def _prime_discriminants(sd: SquarefreeD) -> tuple[list[int], int]:
    """Prime discriminant factorization of the fundamental discriminant."""
    fundamental = sd.d if sd.d % 4 == 1 else 4 * sd.d
    discs = [q if q % 4 == 1 else -q for q in sd.factors if q != 2]
    extra = fundamental // math.prod(discs) if discs else fundamental
    if extra != 1:
        assert extra in (-4, 8, -8)
        discs.append(extra)
    return discs, fundamental


def redei_rank4(D: int | SquarefreeD) -> int:
    """4-rank of the narrow class group of Q(sqrt(D)), D > 0 squarefree.

    Classical symbol-matrix computation: one row per prime discriminant
    divisor, off-diagonal entries are Kronecker symbols of the other prime
    discriminants, the diagonal carries the cofactor so each row sums to
    zero against the product formula.  The 4-rank is corank minus one.
    """
    sd = D if isinstance(D, SquarefreeD) else factor_squarefree(D)
    discs, fundamental = _prime_discriminants(sd)
    s = len(discs)
    rows = []
    for i, di in enumerate(discs):
        qi = 2 if di % 2 == 0 else abs(di)
        bits = 0
        for j, dj in enumerate(discs):
            val = kronecker(fundamental // di if i == j else dj, qi)
            assert val != 0
            if val == -1:
                bits |= 1 << j
        rows.append(bits)
    rank, _ = rank_and_kernel(F2Matrix(tuple(rows), s))
    return s - 1 - rank


def ordered_factors(sd: SquarefreeD, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Factors of d split in Q(sqrt(p)) first, then the inert ones.  p is
    proven prime here; the factors of sd are trusted (factor_squarefree)."""
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    return _ordered_factors(sd, p)


def _ordered_factors(sd: SquarefreeD, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """ordered_factors() for a p the caller has already proven prime."""
    split = []
    inert = []
    for q in sd.factors:
        kind = _splitting(q, p)
        if kind == RAMIFIED:
            raise PreconditionViolated(f"{q} ramifies in Q(sqrt({p}))")
        (split if kind == SPLIT else inert).append(q)
    return tuple(split), tuple(inert)


def _rational_bit(n: int, q: int) -> int:
    """Bit of the symbol of the rational n at the (odd or dyadic) prime q."""
    val = kronecker(n, q) if q == 2 else jacobi(n, q)
    if val == 0:
        raise NotCoprime(f"{n} is divisible by {q}")
    return 1 if val == -1 else 0


def split_residue_matrix(sd: SquarefreeD, p: int) -> F2Matrix:
    """The m x t rational condition matrix at the split factors of d.

    Row q_i (split): diagonal entry is the symbol of d/q_i at q_i, other
    entries the symbol of q_j at q_i.  Columns follow ordered_factors.
    Kernel vectors are exactly the exponent patterns of factorizations
    d = a*b for which a is a square modulo every split prime.
    """
    return _split_residue_matrix(sd, *ordered_factors(sd, p))


def _split_residue_matrix(sd: SquarefreeD, split: tuple[int, ...], inert: tuple[int, ...]) -> F2Matrix:
    """split_residue_matrix() from the split order of a p already proven prime."""
    order = split + inert
    rows = []
    for qi in split:
        bits = 0
        for j, qj in enumerate(order):
            n = sd.d // qi if qj == qi else qj
            bits |= _rational_bit(n, qi) << j
        rows.append(bits)
    return F2Matrix(tuple(rows), len(order))

