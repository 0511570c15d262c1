"""Per-prime evaluation: family membership, the unit-group index by two
independent routes, and the predicted 2-part structure of the class group.

The direct route works in rational arithmetic: fourth-power residue
conditions at the split factors of d, plus a three-factor symbol product
over a two-block splitting d = a*b when exactly two factors are inert.
The governing route re-derives the same verdict from quadratic symbols of
primary Gaussian primes against a primary prime over p.  The two must
agree on every evaluated prime; evaluate() records a disagreement as an
alarm instead of picking a side.

Facts that depend on p only through its split set (membership, the
structure tuple, the splitting d = a*b) live in a per-d DContext, so a
scan computes each of them once per split set rather than once per prime.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .arith import SquarefreeD, factor_squarefree, is_prime
from .construction import (
    MODE_DECOMPOSITION,
    Decomposition,
    TernarySolution,
    find_decomposition,
    normalize_solution,
    solve_legendre,
    split_generator,
    totally_real,
)
from .errors import OutOfScopeM, PreconditionViolated, UnitIndexError
from .gaussian import GaussInt, quad_symbol, split_primary
from .quadfield import pell_negative_unit
from .redei import (
    extended_residue_matrix,
    ordered_factors,
    rank_and_kernel,
    redei_rank4,
)
from .symbols import fpr, fpr_product, quartic_cross_product


@dataclass(frozen=True)
class PrimeVerdict:
    """Everything decided about one prime p relative to a fixed d.

    ``m`` counts the factors of d that split in Q(sqrt(p)); it is None when
    the prime is rejected before the count makes sense.  ``in_P`` is the
    membership flag and ``reason`` a short annotation (why rejected, or why
    a member carries no index).  The two index fields hold the direct and
    governing verdicts; ``structure`` is the predicted
    (rk2, rk4, rk8, h_plus) of the narrow class group for members with
    m <= t-1.  ``alarms`` collects anything that contradicts the theory.
    """

    p: int
    m: int | None
    in_P: bool
    reason: str = ""
    e_totally_real: bool | None = None
    q_direct: int | None = None
    q_governing: int | None = None
    structure: tuple[int, int, int, int] | None = None
    decomposition: Decomposition | None = None
    alarms: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alarms", tuple(self.alarms))
        for q in (self.q_direct, self.q_governing):
            if q not in (None, 1, 2):
                raise PreconditionViolated(f"index must be 1 or 2, got {q!r}")
        if not self.in_P and not (
            self.q_direct is None and self.q_governing is None and self.structure is None
        ):
            raise PreconditionViolated("a rejected prime cannot carry index or structure data")


@dataclass(frozen=True)
class StructurePrediction:
    """Predicted invariants of the narrow class group of Q(sqrt(p), sqrt(d)).

    ``h`` is the wide class number when the index is decided, None when only
    the two candidates in ``q_range`` are known.
    """

    rk2: int
    rk4: int
    rk8: int
    h_plus: int
    h: int | None
    q_range: tuple[int, ...]


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


def _composite(sd: SquarefreeD, p: int) -> SquarefreeD:
    """d*p with the factor list merged, skipping a refactorization."""
    factors = tuple(sorted(sd.factors + (p,)))
    return SquarefreeD(sd.d * p, factors)


@dataclass(frozen=True)
class DContext:
    """Per-d context: the factorization of d and tables keyed by split set.

    The split set S of a prime p is the tuple of factors of d that split in
    Q(sqrt(p)).  By Redei's matrix argument the composite 4-rank of d*p,
    hence membership and the structure tuple, and the splitting d = a*b
    that find_decomposition picks depend on p only through S.  Each entry
    is filled by those per-prime definitions at the first p with its S and
    reused for every later one; a fill that raises stores nothing.
    """

    sd: SquarefreeD
    _membership: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _decompositions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def membership(self, split: tuple[int, ...], p: int) -> tuple[int, tuple | None]:
        """Composite 4-rank of d*p and the predicted (rk2, rk4, rk8, h_plus)
        of the narrow class group, None unless p is a member with m < t."""
        entry = self._membership.get(split)
        if entry is None:
            r4 = redei_rank4(_composite(self.sd, p))
            t, m = self.sd.t, len(split)
            structure = (t + m - 1, t - m - 1, 0, 1 << (2 * t - 2)) if r4 == 0 and m < t else None
            entry = self._membership[split] = (r4, structure)
        return entry

    def decomposition(self, split: tuple[int, ...], p: int) -> Decomposition:
        dec = self._decompositions.get(split)
        if dec is None:
            dec = self._decompositions[split] = find_decomposition(self.sd, p)
        return dec


def _context(d: int | SquarefreeD | DContext) -> DContext:
    if isinstance(d, DContext):
        return d
    return DContext(d if isinstance(d, SquarefreeD) else factor_squarefree(d))


def _classify(ctx: DContext, p: int) -> tuple[PrimeVerdict, tuple[int, ...]]:
    """The one per-prime pass: classify() plus the split set of p."""
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    if ctx.sd.d % p == 0:
        return PrimeVerdict(p=p, m=None, in_P=False, reason="p divides d"), ()
    if p % 4 != 1:
        return PrimeVerdict(p=p, m=None, in_P=False, reason="p = 3 (mod 4)"), ()
    split, _ = ordered_factors(ctx.sd, p)
    m = len(split)
    r4, structure = ctx.membership(split, p)
    if r4 != 0:
        verdict = PrimeVerdict(p=p, m=m, in_P=False, reason=f"composite 4-rank is {r4}")
    elif m == ctx.sd.t:
        verdict = PrimeVerdict(p=p, m=m, in_P=True, reason="every factor splits; out of family")
    else:
        verdict = PrimeVerdict(p=p, m=m, in_P=True, structure=structure)
    return verdict, split


def _member(ctx: DContext, p: int, scope) -> tuple[PrimeVerdict, tuple[int, ...]]:
    """_classify() for a member p whose split count m lies in ``scope``.

    Scope is checked before membership, so an out-of-scope m raises
    OutOfScopeM even when p is not in the family either.
    """
    verdict, split = _classify(ctx, p)
    sd = ctx.sd
    if verdict.m is None:
        raise PreconditionViolated(f"{p} is not a candidate prime for d = {sd.d}")
    if verdict.m not in scope:
        raise OutOfScopeM(f"m = {verdict.m} with t = {sd.t} is outside m in {sorted(scope)}")
    if not verdict.in_P:
        raise PreconditionViolated(f"p = {p} is not in the family for d = {sd.d}: {verdict.reason}")
    return verdict, split


def classify(d: int | SquarefreeD, p: int) -> PrimeVerdict:
    """Membership verdict and split count, nothing index-valued yet.

    A member satisfies p not dividing d, p = 1 (mod 4), and vanishing
    4-rank of the composite discriminant d*p.  Members with every factor
    split (m = t) are flagged in ``reason`` and never evaluated further.
    """
    verdict, _ = _classify(_context(d), p)
    return verdict


def _e_real(p: int, split: tuple[int, ...]) -> bool:
    return all(fpr(p, q) * fpr(q, p) == 1 for q in split)


def e_totally_real(d: int | SquarefreeD, p: int) -> bool:
    """Whether the elementary 2-extension attached to (d, p) is totally real.

    True exactly when fpr(p, q) * fpr(q, p) = +1 for every split factor q.
    The dyadic factor runs through the same product; 2 splits only for
    p = 1 (mod 8), which is what fpr(p, 2) needs.
    """
    ctx = _context(d)
    verdict, split = _classify(ctx, p)
    if verdict.m is None:
        raise PreconditionViolated(f"{p} is not a candidate prime for d = {ctx.sd.d}")
    return _e_real(p, split)


def _direct_index(ctx: DContext, p: int, split: tuple[int, ...], e_real: bool) -> int:
    if len(split) == ctx.sd.t - 1:
        return 2 if e_real else 1
    dec = ctx.decomposition(split, p)
    a_factors = tuple(q for q, e in zip(dec.factors, dec.exponents) if e)
    b_factors = tuple(q for q, e in zip(dec.factors, dec.exponents) if not e)
    sign = (
        fpr(ctx.sd.d, p)
        * fpr_product(dec.a * p, b_factors)
        * fpr_product(dec.b * p, a_factors)
    )
    return 2 if e_real and sign == -1 else 1


def _governing_index(ctx: DContext, p: int, split: tuple[int, ...], flip: bool) -> int:
    pi = split_primary(p, flip=flip)
    e_real = all(quad_symbol(split_primary(q, flip=flip), pi) == 1 for q in split)
    if len(split) == ctx.sd.t - 1:
        return 2 if e_real else 1
    dec = ctx.decomposition(split, p)
    product = GaussInt(1, 0)
    for q in ctx.sd.factors:
        product = product * split_primary(q, flip=flip)
    cross = quartic_cross_product(dec.a, dec.b, conjugate=flip)
    deeper_real = quad_symbol(product, pi) == -cross
    return 2 if e_real and deeper_real else 1


def unit_index(d: int | SquarefreeD, p: int) -> int:
    """The unit-group index in {1, 2}, by the rational-symbol route.

    For m = t-1 the index is 2 exactly when the elementary extension is
    totally real.  For m = t-2 it additionally needs the three-factor
    product fpr(d, p) * fpr(a*p, b) * fpr(b*p, a) to be -1, with d = a*b
    the decomposition picked by find_decomposition and composite moduli
    expanded over their prime factors.
    """
    ctx = _context(d)
    _, split = _member(ctx, p, (ctx.sd.t - 1, ctx.sd.t - 2))
    return _direct_index(ctx, p, split, _e_real(p, split))


def unit_index_via_governing(d: int | SquarefreeD, p: int, flip: bool = False) -> int:
    """The same index, decided by splitting conditions over Z[i].

    Total reality of the elementary extension becomes quad_symbol(rho, pi)
    = +1 for the primary prime rho over each split factor; the deeper layer
    for m = t-2 compares quad_symbol(rho_1 ... rho_t, pi) against minus the
    mutual quartic sign of the decomposition.  ``flip`` switches every
    primary choice to its conjugate at once; the verdict must not move.
    """
    ctx = _context(d)
    _, split = _member(ctx, p, (ctx.sd.t - 1, ctx.sd.t - 2))
    return _governing_index(ctx, p, split, flip)


def predicted_structure(d: int | SquarefreeD, p: int) -> StructurePrediction:
    """Predicted 2-part invariants of the narrow class group for a member prime.

    Always (rk2, rk4, rk8, h_plus) = (t+m-1, t-m-1, 0, 2^(2t-2)); the wide
    class number 2^(2t-3) times the index is filled in when m is within
    scope, otherwise both index candidates are reported.
    """
    ctx = _context(d)
    t = ctx.sd.t
    if t < 2:
        raise PreconditionViolated("structure formulas need at least two factors in d")
    # every factor split (m = t) asserts no structure
    verdict, split = _member(ctx, p, range(t))
    if verdict.m in (t - 1, t - 2):
        q = _direct_index(ctx, p, split, _e_real(p, split))
        h, q_range = q << (2 * t - 3), (q,)
    else:
        h, q_range = None, (1, 2)
    return StructurePrediction(*verdict.structure, h=h, q_range=q_range)


def _construction_real(sd: SquarefreeD, p: int, dec: Decomposition) -> bool:
    """Total reality of the quadratic-form generator, the expensive way."""
    x, y, z = solve_legendre(p, -dec.a, -dec.b)
    solution = TernarySolution(x, y, z, p, dec.a, dec.b, mode=MODE_DECOMPOSITION)
    return totally_real(normalize_solution(solution), pell_negative_unit(p))


def evaluate(d: int | SquarefreeD | DContext, p: int, construction_check: bool = False) -> PrimeVerdict:
    """Full verdict for one prime: membership, both index routes, structure.

    Library failures (any UnitIndexError) inside a route never raise out of
    here; they land in ``alarms`` so a long scan reports them instead of
    dying.  ``construction_check`` also solves the ternary equation for
    m = t-2 and compares the sign of the resulting generator with the
    symbol verdict.  Pass one DContext for many primes of the same d to
    share its split-set tables.
    """
    ctx = _context(d)
    sd = ctx.sd
    verdict, split = _classify(ctx, p)
    if verdict.m is None:
        return verdict
    # E-reality is a property of (d, p) alone; record it even when the
    # 4-rank filter rejects p, so density denominators are the full m-cell
    e_real = _e_real(p, split)
    verdict = replace(verdict, e_totally_real=e_real)
    m = verdict.m
    if not verdict.in_P or m not in (sd.t - 1, sd.t - 2):
        if verdict.in_P and m < sd.t - 2:
            verdict = replace(verdict, reason="index not asserted for m <= t-3")
        return verdict

    alarms: list[str] = []
    q_direct: int | None = None
    q_governing: int | None = None
    try:
        q_direct = _direct_index(ctx, p, split, e_real)
    except UnitIndexError as exc:
        alarms.append(f"direct route: {exc}")
    try:
        q_governing = _governing_index(ctx, p, split, False)
    except UnitIndexError as exc:
        if isinstance(exc, PreconditionViolated) and sd.d % 2 == 0 and p % 8 == 5:
            # the dyadic block makes b = p = 5 (mod 8), outside the domain
            # of the even-case cross product; documented, not alarming
            verdict = replace(verdict, reason="governing route undefined: b = 5 (mod 8)")
        else:
            alarms.append(f"governing route: {exc}")
    if q_direct is not None and q_governing is not None and q_direct != q_governing:
        alarms.append(f"routes disagree: direct {q_direct}, governing {q_governing}")
    # present once a route found the splitting (only ever for m = t-2)
    dec = ctx._decompositions.get(split)

    if construction_check and m == sd.t - 2 and dec is not None and q_direct is not None:
        try:
            beta_real = _construction_real(sd, p, dec)
            if (q_direct == 2) != (e_real and beta_real):
                alarms.append(
                    f"construction check: generator sign {beta_real} with E real {e_real} "
                    f"contradicts index {q_direct}"
                )
        except UnitIndexError as exc:
            alarms.append(f"construction check: {exc}")

    return replace(
        verdict,
        q_direct=q_direct,
        q_governing=q_governing,
        decomposition=dec,
        alarms=tuple(alarms),
    )


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
