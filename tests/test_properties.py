"""Property-based checks of the per-prime verdict: random admissible d with
t <= 8 (even d included) and random primes p <= 10^7.

The examples are derandomized and bounded, so the file runs the same cases
in a few seconds every time.
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from unitindex import criterion  # noqa: E402
from unitindex.arith import SquarefreeD, is_prime, primes_in_range  # noqa: E402
from oracles import governing_by_cornacchia  # noqa: E402
from unitindex.criterion import DContext, evaluate, unit_index_via_governing  # noqa: E402
from unitindex.redei import ordered_factors, redei_rank4  # noqa: E402

_FACTORS = [2] + [q for q in primes_in_range(5, 120) if q % 4 == 1]
_X = 10**7

_bounded = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def admissible_d(draw):
    factors = sorted(draw(st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=8, unique=True)))
    return SquarefreeD(math.prod(factors), tuple(factors))


def _prime_from(n):
    while not is_prime(n):
        n += 1
    return n


# every prime up to 10^7 can come out, the rejected ones (3 mod 4, dividing d) too
primes = st.integers(2, 9_999_991).map(_prime_from)
# candidates p = 1 (mod 4) up to 10^7: the largest one at or below 4k + 1
primes_1_mod_4 = st.integers(1, (_X - 1) // 4).map(lambda k: next(p for p in range(4 * k + 1, 0, -4) if is_prime(p)))


@_bounded
@given(admissible_d(), primes)
def test_evaluate_never_raises_and_routes_agree(sd, p):
    # the construction check runs on every m = t-2 member among them
    v = evaluate(sd, p, construction_check=True)
    assert v.p == p
    if v.q_direct is not None and v.q_governing is not None:
        assert v.q_direct == v.q_governing, (sd.d, p, v)
    # under the base-value hypothesis (4-rank 0) no route may fail at all;
    # without it the splitting d = a*b can be missing, which is an alarm
    if redei_rank4(sd) == 0:
        assert v.alarms == (), (sd.d, p, v.alarms)
    assert not any(a.startswith("routes disagree") for a in v.alarms), (sd.d, p, v.alarms)


@_bounded
@given(admissible_d(), st.integers(5, _X - 4000))
def test_construction_check_clean_on_a_random_member(sd, lo):
    # the first m = t-2 member from lo on, where the check always runs;
    # the splitting d = a*b needs the base-value hypothesis (4-rank 0)
    if redei_rank4(sd):
        return
    ctx = DContext(sd)
    for p in ctx.candidates(lo, lo + 4000):
        v = evaluate(ctx, p)
        if v.in_P and v.m == sd.t - 2:
            checked = evaluate(ctx, p, construction_check=True)
            assert checked.alarms == () and checked.q_direct is not None, (sd.d, p, checked.alarms)
            break


@_bounded
@given(admissible_d(), primes_1_mod_4)
def test_governing_verdict_ignores_the_flip(sd, p):
    v = evaluate(sd, p)
    if v.q_governing is not None:
        assert governing_by_cornacchia(sd, p, conjugate=True) == unit_index_via_governing(sd, p) == v.q_governing


@_bounded
@given(admissible_d(), st.lists(primes_1_mod_4, min_size=1, max_size=8))
def test_context_tables_match_per_prime_oracles(sd, ps):
    # one context for every p, so a table entry filled at an earlier prime
    # must fit each later one with the same split set
    ctx = DContext(sd)
    for p in ps:
        if sd.d % p == 0:
            continue
        m, in_P, _, _, split, inert = criterion._classify(ctx, p)
        assert (split, inert) == ordered_factors(sd, p)
        r4 = redei_rank4(criterion._composite(sd, p))
        assert ctx.membership(split, p)[0] == r4
        assert (m, in_P) == (len(split), r4 == 0)


@_bounded
@given(admissible_d(), st.integers(5, _X - 400))
def test_sieve_candidates_get_the_proven_verdict(sd, lo):
    ctx = DContext(sd)
    seen = 0
    for p in ctx.candidates(lo, lo + 400):
        assert p % 4 == 1 and sd.d % p and is_prime(p)
        assert evaluate(ctx, p) == evaluate(sd, p)
        seen += 1
    assert seen == sum(1 for p in primes_in_range(lo, lo + 400) if p % 4 == 1 and sd.d % p)
