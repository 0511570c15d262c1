"""Per-prime evaluation: family membership, the unit-group index by two
independent routes, and the predicted 2-part structure of the class group.

The direct route works in rational arithmetic: fourth-power residue
conditions at the split factors of d, plus a three-factor symbol product
over a two-block splitting d = a*b when exactly two factors are inert.
The governing route re-derives the same verdict from quadratic symbols of
primary Gaussian primes modulo a prime over p, read through a square root
of -1 mod p.  The two must agree on every evaluated prime; evaluate()
records a disagreement as an alarm instead of picking a side.

Facts that depend on p only through its split set (membership, the
structure tuple, the splitting d = a*b and its cross sign) live in a per-d
DContext, computed once per split set.  p is proven by the sieve or in
_classify, d's factors by factor_squarefree: routes call unchecked kernels.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field

from .arith import SquarefreeD, factor_squarefree, is_prime, primes_in_range
from .construction import (
    Decomposition,
    TernarySolution,
    find_decomposition,
    normalize_solution,
    solve_legendre,
    totally_real,
)
from .errors import OutOfScopeM, PreconditionViolated, UnitIndexError
from .gaussian import GaussInt, split_primary
from .quadfield import _pell_negative_unit
from .redei import _ordered_factors, redei_rank4
from .symbols import _fpr, quartic_cross_product


@dataclass(slots=True)
class PrimeVerdict:
    """Everything decided about one prime p relative to a fixed d.

    ``m`` counts the factors of d that split in Q(sqrt(p)); it is None when
    the prime is rejected before the count makes sense.  ``in_P`` is the
    membership flag and ``reason`` a short annotation (why rejected, or why
    a member carries no index).  The two index fields hold the direct and
    governing verdicts; ``structure`` is the predicted
    (rk2, rk4, rk8, h_plus) of the narrow class group for members with
    m <= t-1.  ``alarms`` collects anything that contradicts the theory.
    Not frozen: one object.__setattr__ per field was a fifth of evaluate().
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
        if type(self.alarms) is not tuple:
            self.alarms = tuple(self.alarms)
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
    that find_decomposition picks, with its quartic_cross_product sign,
    depend on p only through S.  Each entry is filled by those per-prime
    definitions at the first p with its S and reused for every later one;
    a fill that raises stores nothing.  So are the primes over d's factors.
    A scan fills every table once, in the parent, before its pool forks.
    """

    sd: SquarefreeD
    _membership: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _decompositions: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _cross: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _primaries: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _sieved: int | None = field(default=None, init=False, repr=False, compare=False)

    def candidates(self, lo: int, hi: int):
        """Yield each prime lo <= p <= hi with p = 1 (mod 4) and p not dividing
        d; the sieve proved it, so _classify trusts the last one yielded."""
        d = self.sd.d
        for p in primes_in_range(lo, hi):
            if p % 4 == 1 and d % p:
                object.__setattr__(self, "_sieved", p)
                yield p

    def fill(self, lo: int, hi: int) -> None:
        """Fill each split set's entries, as evaluate would, at its first candidate in [lo, hi]."""
        t = self.sd.t
        for p in self.candidates(lo, hi):
            split = _ordered_factors(self.sd, p)[0]
            if split in self._membership:
                continue
            with suppress(UnitIndexError):  # evaluate meets the error again and records it
                if self.membership(split, p)[0] == 0 and len(split) in (t - 1, t - 2):
                    for q in split:
                        self.primary(q)
                    if len(split) == t - 2:
                        dec = self.decomposition(split, p)
                        self.primary(self.sd.d)
                        self.cross(dec)
            if len(self._membership) == 1 << t:
                return

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

    def cross(self, dec: Decomposition) -> int:
        """Quartic cross sign of a decomposition."""
        sign = self._cross.get(dec.a)
        if sign is None:
            sign = self._cross[dec.a] = quartic_cross_product(dec.a, dec.b)
        return sign

    def primary(self, n: int) -> GaussInt:
        """The primary prime over a factor n of d, or for n = d the product
        of those over every factor."""
        rho = self._primaries.get(n)
        if rho is None:
            if n in self.sd.factors:
                rho = split_primary(n)
            else:
                rho = math.prod((self.primary(q) for q in self.sd.factors), start=GaussInt(1, 0))
            self._primaries[n] = rho
        return rho


def _context(d: int | SquarefreeD | DContext) -> DContext:
    if isinstance(d, DContext):
        return d
    return DContext(d if isinstance(d, SquarefreeD) else factor_squarefree(d))


def _classify(ctx: DContext, p: int) -> tuple:
    """The one per-prime pass: (m, in_P, reason, structure, split, inert),
    the classify() fields of a PrimeVerdict plus p's split and inert factors
    of d.  p is proven prime here, once, unless the context's sieve yielded it."""
    if p != ctx._sieved and not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    if ctx.sd.d % p == 0 or p % 4 != 1:
        return None, False, "p divides d" if ctx.sd.d % p == 0 else "p = 3 (mod 4)", None, (), ()
    split, inert = _ordered_factors(ctx.sd, p)
    m = len(split)
    r4, structure = ctx.membership(split, p)
    if r4 != 0:
        return m, False, f"composite 4-rank is {r4}", None, split, inert
    reason = "every factor splits; out of family" if m == ctx.sd.t else ""
    return m, True, reason, structure, split, inert


def _member(ctx: DContext, p: int, scope) -> tuple:
    """_classify() for a member p whose split count m lies in ``scope``.

    Scope is checked before membership, so an out-of-scope m raises
    OutOfScopeM even when p is not in the family either.
    """
    fields = _classify(ctx, p)
    sd, (m, in_P, reason) = ctx.sd, fields[:3]
    if m is None:
        raise PreconditionViolated(f"{p} is not a candidate prime for d = {sd.d}")
    if m not in scope:
        raise OutOfScopeM(f"m = {m} with t = {sd.t} is outside m in {sorted(scope)}")
    if not in_P:
        raise PreconditionViolated(f"p = {p} is not in the family for d = {sd.d}: {reason}")
    return fields


def classify(d: int | SquarefreeD, p: int) -> PrimeVerdict:
    """Membership verdict and split count, nothing index-valued yet.

    A member satisfies p not dividing d, p = 1 (mod 4), and vanishing
    4-rank of the composite discriminant d*p.  Members with every factor
    split (m = t) are flagged in ``reason`` and never evaluated further.
    """
    m, in_P, reason, structure, _, _ = _classify(_context(d), p)
    return PrimeVerdict(p, m, in_P, reason, structure=structure)


def _e_real(p: int, split: tuple[int, ...]) -> bool:
    for q in split:
        if _fpr(p, q) != _fpr(q, p):
            return False
    return True


def e_totally_real(d: int | SquarefreeD, p: int) -> bool:
    """Whether the elementary 2-extension attached to (d, p) is totally real.

    True exactly when fpr(p, q) * fpr(q, p) = +1 for every split factor q.
    The dyadic factor runs through the same product; 2 splits only for
    p = 1 (mod 8), which is what fpr(p, 2) needs.
    """
    ctx = _context(d)
    m, _, _, _, split, _ = _classify(ctx, p)
    if m is None:
        raise PreconditionViolated(f"{p} is not a candidate prime for d = {ctx.sd.d}")
    return _e_real(p, split)


def _direct_index(ctx: DContext, p: int, split: tuple[int, ...], e_real: bool) -> int:
    if len(split) == ctx.sd.t - 1:
        return 2 if e_real else 1
    dec = ctx.decomposition(split, p)
    sign = _fpr(ctx.sd.d, p)
    for q, e in zip(dec.factors, dec.exponents):
        # q divides a (e = 1) or b, and meets the other half times p
        sign *= _fpr((dec.b if e else dec.a) * p, q)
    return 2 if e_real and sign == -1 else 1


def _governing_index(ctx: DContext, p: int, split: tuple[int, ...], inert: tuple[int, ...]) -> int:
    # (rho/pi) reads rho in Z[i]/(pi) = F_p, with i at a root r of -1: r = q^((p-1)/4) for
    # an inert q, a non-residue ((p/q) = -1; 2 is inert only for p = 5 mod 8), so a p with
    # r^2 != -1 is composite.  pi and its conjugate (r and -r) give the same symbol: for split
    # q the two multiply to (q/p) = 1, and at m = t-2 d's two inert factors give (-1)^2
    half = (p - 1) // 2
    if (r := pow(inert[0], half >> 1, p)) * r % p != p - 1:
        raise PreconditionViolated(f"{p} is not prime")
    e_real = True
    for q in split:
        rho = ctx.primary(q)
        if pow((rho.re + rho.im * r) % p, half, p) != 1:
            e_real = False
            break
    if len(split) == ctx.sd.t - 1:
        return 2 if e_real else 1
    dec = ctx.decomposition(split, p)
    rho = ctx.primary(ctx.sd.d)
    deeper_real = (pow((rho.re + rho.im * r) % p, half, p) == 1) == (ctx.cross(dec) == -1)
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
    split = _member(ctx, p, (ctx.sd.t - 1, ctx.sd.t - 2))[4]
    return _direct_index(ctx, p, split, _e_real(p, split))


def unit_index_via_governing(d: int | SquarefreeD, p: int) -> int:
    """The same index, decided by splitting conditions over Z[i].

    Total reality of the elementary extension becomes quad_symbol(rho, pi)
    = +1 for the primary prime rho over each split factor; the deeper layer
    for m = t-2 compares quad_symbol(rho_1 ... rho_t, pi) against minus the
    mutual quartic sign of the decomposition.
    """
    ctx = _context(d)
    *_, split, inert = _member(ctx, p, (ctx.sd.t - 1, ctx.sd.t - 2))
    return _governing_index(ctx, p, split, inert)


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
    m, _, _, structure, split, _ = _member(ctx, p, range(t))
    if m in (t - 1, t - 2):
        q = _direct_index(ctx, p, split, _e_real(p, split))
        h, q_range = q << (2 * t - 3), (q,)
    else:
        h, q_range = None, (1, 2)
    return StructurePrediction(*structure, h=h, q_range=q_range)


def _construction_real(sd: SquarefreeD, p: int, dec: Decomposition) -> bool:
    """Total reality of the quadratic-form generator, the expensive way."""
    x, y, z = solve_legendre(p, -dec.a, -dec.b)
    solution = TernarySolution(x, y, z, p, dec.a, dec.b)
    return totally_real(normalize_solution(solution), _pell_negative_unit(p))


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
    m, in_P, reason, structure, split, inert = _classify(ctx, p)
    # verdicts are built positionally, in PrimeVerdict's field order
    if m is None:
        return PrimeVerdict(p, m, in_P, reason)
    # E-reality is a property of (d, p) alone; record it even when the
    # 4-rank filter rejects p, so density denominators are the full m-cell
    e_real = _e_real(p, split)
    t = sd.t
    if not in_P or m not in (t - 1, t - 2):
        if in_P and m < t - 2:
            reason = "index not asserted for m <= t-3"
        return PrimeVerdict(p, m, in_P, reason, e_real, None, None, structure)

    alarms: list[str] = []
    q_direct: int | None = None
    q_governing: int | None = None
    try:
        q_direct = _direct_index(ctx, p, split, e_real)
    except UnitIndexError as exc:
        alarms.append(f"direct route: {exc}")
    try:
        q_governing = _governing_index(ctx, p, split, inert)
    except UnitIndexError as exc:
        if isinstance(exc, PreconditionViolated) and sd.d % 2 == 0 and p % 8 == 5:
            # the dyadic block makes b = p = 5 (mod 8), outside the domain
            # of the even-case cross product; documented, not alarming
            reason = "governing route undefined: b = 5 (mod 8)"
        else:
            alarms.append(f"governing route: {exc}")
    if q_direct is not None and q_governing is not None and q_direct != q_governing:
        alarms.append(f"routes disagree: direct {q_direct}, governing {q_governing}")
    # present once a route found the splitting (only ever for m = t-2)
    dec = ctx._decompositions.get(split)

    if construction_check and m == t - 2 and dec is not None and q_direct is not None:
        try:
            beta_real = _construction_real(sd, p, dec)
            if (q_direct == 2) != (e_real and beta_real):
                alarms.append(
                    f"construction check: generator sign {beta_real} with E real {e_real} "
                    f"contradicts index {q_direct}"
                )
        except UnitIndexError as exc:
            alarms.append(f"construction check: {exc}")

    return PrimeVerdict(p, m, in_P, reason, e_real, q_direct, q_governing, structure, dec, tuple(alarms))

