"""F2 linear algebra and the residue-symbol matrices controlling 4-rank data.

Three matrices live here: the classical 4-rank matrix of a quadratic field
(redei_rank4), the rational split-condition matrix whose kernel vectors
index two-block factorizations of d (split_residue_matrix), and its
extension by the split-prime generators whose kernel pins the 4-rank of the
composite field exactly (extended_residue_matrix).

Symbols are converted to bits by +1 -> 0, -1 -> 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import SquarefreeD, factor_squarefree, is_prime, jacobi, kronecker, sqrt_mod
from .errors import NotCoprime, PreconditionViolated, TheoryViolation
from .quadfield import CONJUGATE, FIRST, RAMIFIED, SPLIT, KpElement, _splitting, residue_symbol


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


@dataclass(frozen=True)
class ExtendedMatrices:
    """Raw and reduced forms of the split-generator symbol matrix.

    ``raw`` has a row per prime of K_p over each factor of d (two per split
    factor, one per inert), a column per split generator, per conjugate
    generator, and per inert factor.  ``reduced`` pairs conjugate columns
    and rows into rational data; its kernel dimension is one more than the
    4-rank it certifies.  ``rational`` is the embedded copy of
    split_residue_matrix.
    """

    raw: F2Matrix
    reduced: F2Matrix
    rational: F2Matrix
    split: tuple[int, ...]
    inert: tuple[int, ...]

    @property
    def kernel_dim(self) -> int:
        rank, _ = rank_and_kernel(self.reduced)
        return self.reduced.cols - rank


def _symbol_bit(alpha: KpElement, q: int, which: str, flip_root: bool) -> int:
    if q == 2:
        n = alpha.norm()
        if n % 2 == 0:
            raise NotCoprime(f"{alpha} has even norm at the inert dyadic prime")
        return 1 if kronecker(n, 2) == -1 else 0
    return 1 if residue_symbol(alpha, q, which, flip_root=flip_root) == -1 else 0


def extended_residue_matrix(
    sd: SquarefreeD, p: int, alphas: list[KpElement], flip_root: bool = False
) -> ExtendedMatrices:
    """Assemble the (t+m) x (t+m) symbol matrix of the split generators.

    ``alphas`` are the normalized ternary-solution generators for the split
    factors of d in ordered_factors order, with norms coprime to the other
    factors.  The reduction pairs each conjugate column and row with its
    partner; the result must reproduce the rational matrix in its outer
    blocks, anything else raises TheoryViolation.
    """
    split, inert = ordered_factors(sd, p)
    m, t = len(split), sd.t
    if 2 in split:
        raise PreconditionViolated(
            "split dyadic prime: symbol entries modulo a prime over 2 are not defined here"
        )
    if len(alphas) != m:
        raise PreconditionViolated(f"need {m} generators, got {len(alphas)}")
    for q, alpha in zip(split, alphas):
        if alpha.p != p:
            raise PreconditionViolated("generator field mismatch")
        if alpha.norm() % q != 0 or alpha.norm() // q <= 0:
            raise PreconditionViolated(f"generator for {q} has norm {alpha.norm()}")

    # Which of the two primes over its factor divides each generator.
    owners = []
    for q, alpha in zip(split, alphas):
        s = sqrt_mod(p, q)
        if flip_root:
            s = q - s
        first_divides = (alpha.x + alpha.y * s) % q == 0
        conj_divides = (alpha.x - alpha.y * s) % q == 0
        if first_divides == conj_divides:
            raise PreconditionViolated(f"generator for {q} not divisible by exactly one prime")
        owners.append(FIRST if first_divides else CONJUGATE)
    other = {FIRST: CONJUGATE, CONJUGATE: FIRST}

    size = t + m

    def bit(sel_i: int, sel: str, col: int) -> int:
        """Entry of the raw matrix at the row of prime `sel` over split[sel_i]."""
        qi = split[sel_i]
        if col < m:
            elem, j = alphas[col], col
        elif col < 2 * m:
            elem, j = alphas[col - m].conjugate(), col - m
        else:
            return _rational_bit(inert[col - 2 * m], qi)
        if j == sel_i:
            divisor = owners[j] if col < m else other[owners[j]]
            if sel == divisor:
                # the element generates this prime; score its conjugate
                # against the cofactor of d instead
                return _symbol_bit(elem.conjugate(), qi, sel, flip_root) ^ _rational_bit(
                    sd.d // qi, qi
                )
        return _symbol_bit(elem, qi, sel, flip_root)

    rows = []
    for block in (0, 1):
        for i in range(m):
            sel = owners[i] if block == 0 else other[owners[i]]
            bits = 0
            for col in range(size):
                bits |= bit(i, sel, col) << col
            rows.append(bits)
    for qk in inert:
        bits = 0
        for col in range(size):
            if col < 2 * m:
                alpha = alphas[col % m]
                bits |= _symbol_bit(alpha, qk, FIRST, flip_root) << col
            # rational columns at inert rows are squares: bit 0
        rows.append(bits)
    raw = F2Matrix(tuple(rows), size)

    # Pair conjugate data: column m+j absorbs column j, row m+i absorbs row i.
    folded = [r ^ ((r & ((1 << m) - 1)) << m) for r in raw.rows]
    reduced_rows = list(folded)
    for i in range(m):
        reduced_rows[m + i] ^= reduced_rows[i]
    reduced = F2Matrix(tuple(reduced_rows), size)

    rational = _split_residue_matrix(sd, split, inert)
    _check_block_structure(reduced, rational, m, t)
    return ExtendedMatrices(raw=raw, reduced=reduced, rational=rational, split=split, inert=inert)


def _check_block_structure(reduced: F2Matrix, rational: F2Matrix, m: int, t: int) -> None:
    """The reduced matrix must embed the rational matrix and a zero block."""
    for i in range(m):
        got = reduced.rows[i] >> m
        if got != rational.rows[i]:
            raise TheoryViolation(
                f"row {i}: rational block is {got:0{t}b}, expected {rational.rows[i]:0{t}b}"
            )
    for i in range(t):
        row = reduced.rows[m + i]
        if row >> m:
            raise TheoryViolation(f"rational row {i} has nonzero outer block")
        for j in range(m):
            if (row >> j & 1) != rational.entry(j, i):
                raise TheoryViolation(f"transposed block mismatch at ({i}, {j})")
