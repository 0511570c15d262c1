"""Independent route to the 4-rank of the composite field, for tests only.

The scan decides membership from the rational 4-rank matrix of d*p
(redei_rank4).  This module recomputes the same rank the slow way: one
ternary generator of Q(sqrt(p)) per split factor of d (split_generator),
residue symbols of those generators modulo the primes over each factor
(residue_symbol), and the (t+m) x (t+m) symbol matrix they fill
(extended_residue_matrix), whose reduced kernel pins the 4-rank
(generalized_rank_check).  It also keeps the governing route with the
primary prime over p built in full by Cornacchia, in either labeling of the
Gaussian primes (governing_by_cornacchia), and the wide class number of a
real quadratic field from its forms (wide_class_number).  Nothing in the
library calls this module; tests compare the library against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from unitindex.arith import SquarefreeD, jacobi, kronecker, sqrt_mod
from unitindex.construction import _solutions
from unitindex.criterion import DContext, _context, _member
from unitindex.errors import (
    HeightExceeded,
    NormalizationFailed,
    NotCoprime,
    NotSplit,
    PreconditionViolated,
    TheoryViolation,
)
from unitindex.gaussian import quad_symbol, split_primary
from unitindex.qfclassgroup import narrow_class_group
from unitindex.quadfield import INERT, SPLIT, splitting
from unitindex.redei import (
    F2Matrix,
    _rational_bit,
    _split_residue_matrix,
    ordered_factors,
    rank_and_kernel,
)

FIRST = "first"
CONJUGATE = "conjugate"


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


@dataclass(frozen=True)
class SplitSolution:
    """A solution of x^2 - p*y^2 - c*z^2 = 0, enforced on construction."""

    x: int
    y: int
    z: int
    p: int
    c: int

    def __post_init__(self):
        assert self.x**2 - self.p * self.y**2 - self.c * self.z**2 == 0, self


def split_generator(p: int, q: int, avoid: tuple[int, ...] = ()) -> tuple[SplitSolution, KpElement]:
    """Element of Q(sqrt(p)) of norm q * square, from a split rational prime q.

    Solves x^2 - p*y^2 - c*z^2 = 0 (c = q, or 8 when q = 2), picks the first
    solution in canonical order whose residue symbols at every prime in
    ``avoid`` are nonzero, and applies the parity side conditions: exactly
    one of y, z even, and the sign of x fixed so x minus the even one is
    1 mod 4.  The returned element is (x + y*sqrt(p))/2 when z is even,
    else x + y*sqrt(p).
    """
    if splitting(q, p) != SPLIT:
        raise NotSplit(f"{q} does not split in Q(sqrt({p}))")
    coeff = 8 if q == 2 else q
    for x, y, z in _solutions(1, -p, -coeff):
        if (y - z) % 2 == 0:
            # both odd can occur only for q = 2; both even never, by parity
            continue
        # element norm is c*z^2 up to a square of 2, so the symbol at an odd
        # r dies iff r | z; at r = 2 the halved element keeps an odd norm
        # exactly when z is not 0 mod 4
        if any(z % 4 == 0 if r == 2 else z % r == 0 for r in avoid):
            continue
        even = y if y % 2 == 0 else z
        if (x - even) % 4 != 1:
            x = -x
        sol = SplitSolution(x, y, z, p, coeff)
        _assert_split_conditions(sol)
        return sol, KpElement(x, y, p, halved=z % 2 == 0)
    raise HeightExceeded("solution stream exhausted")  # pragma: no cover


def _assert_split_conditions(sol: SplitSolution) -> None:
    x, y, z, p, c = sol.x, sol.y, sol.z, sol.p, sol.c
    terms = (x * x, p * y * y, c * z * z)
    for i in range(3):
        if math.gcd(terms[i], terms[(i + 1) % 3]) != 1:
            raise NormalizationFailed(f"terms of {sol} are not pairwise coprime")
    if y < 0 or z < 0 or x % 2 == 0 or (y - z) % 2 == 0:
        raise NormalizationFailed(f"parity conditions fail for {sol}")
    even = y if y % 2 == 0 else z
    if (x - even) % 4 != 1:
        raise NormalizationFailed(f"sign condition fails for {sol}")


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


@dataclass(frozen=True)
class RankCheck:
    """Outcome of the generalized symbol-matrix rank computation.

    ``kernel_rank4`` is kernel dimension minus one of the reduced matrix;
    it must equal ``predicted_rank4`` = t - m - 1 whenever the rational
    split-condition matrix has full rank m.
    """

    kernel_rank4: int
    predicted_rank4: int
    rational_full_rank: bool


def generalized_rank_check(d: int | SquarefreeD, p: int, flip_root: bool = False) -> RankCheck:
    """Recompute the composite field's 4-rank from split-generator symbols.

    Builds one ternary generator per split factor (with norm coprime to the
    other factors), assembles the extended symbol matrix, and reports its
    kernel dimension minus one next to the predicted t - m - 1.  Refuses a
    split dyadic factor, where the symbol rows are not defined.
    """
    sd = _context(d).sd
    split, _ = ordered_factors(sd, p)
    alphas = []
    for q in split:
        others = tuple(x for x in sd.factors if x != q)
        _, alpha = split_generator(p, q, avoid=others)
        alphas.append(alpha)
    matrices = extended_residue_matrix(sd, p, alphas, flip_root=flip_root)
    rational_rank, _ = rank_and_kernel(matrices.rational)
    return RankCheck(
        kernel_rank4=matrices.kernel_dim - 1,
        predicted_rank4=sd.t - len(split) - 1,
        rational_full_rank=rational_rank == len(split),
    )


def governing_by_cornacchia(d: int | SquarefreeD | DContext, p: int, conjugate: bool = False) -> int:
    """unit_index_via_governing(d, p) with the primary prime over p built in
    full, a Cornacchia descent, and every symbol read by quad_symbol.

    ``conjugate`` labels every Gaussian prime by its conjugate instead: the
    one over p and the cached ones over d's factors.  The quartic cross
    sign is the context's, in the library's labeling.
    """
    ctx = _context(d)
    t = ctx.sd.t
    split = _member(ctx, p, (t - 1, t - 2))[4]

    def label(pi):
        return pi.conjugate() if conjugate else pi

    pi = label(split_primary(p))
    e_real = all(quad_symbol(label(ctx.primary(q)), pi) == 1 for q in split)
    if len(split) == t - 1:
        return 2 if e_real else 1
    dec = ctx.decomposition(split, p)
    deeper_real = quad_symbol(label(ctx.primary(ctx.sd.d)), pi) == -ctx.cross(dec)
    return 2 if e_real and deeper_real else 1


def _sqrt_period(D: int) -> int:
    """Length of the period of the continued fraction of sqrt(D), D > 1 not a square."""
    a0 = math.isqrt(D)
    m, q, a, n = 0, 1, a0, 0
    while a != 2 * a0:
        m = a * q - m
        q = (D - m * m) // q
        a = (a0 + m) // q
        n += 1
    return n


def wide_class_number(D: int) -> int:
    """Class number h of Q(sqrt(D)), D > 1 squarefree, from the narrow h_plus.

    h = h_plus exactly when a unit of norm -1 exists, that is when the period
    of sqrt(D) is odd (a norm -1 unit of the maximal order cubes into
    Z[sqrt(D)]); otherwise h = h_plus / 2.
    """
    h_plus = narrow_class_group(D).h_plus
    return h_plus if _sqrt_period(D) % 2 else h_plus // 2
