import math
import random

import pytest

from unitindex.arith import factor_squarefree, jacobi, primes_in_range, sqrt_mod
from unitindex.errors import NoNegativeNormUnit, NotCoprime, PreconditionViolated
from oracles import CONJUGATE, FIRST, KpElement, residue_symbol
from unitindex.quadfield import (
    INERT,
    RAMIFIED,
    SPLIT,
    PellUnit,
    _splitting,
    pell_negative_unit,
    splitting,
)


def test_pell_known_values():
    assert pell_negative_unit(5) == PellUnit(5, 2, -1)
    assert pell_negative_unit(13) == PellUnit(13, 18, -5)
    assert pell_negative_unit(37) == PellUnit(37, 6, -1)
    assert pell_negative_unit(17) == PellUnit(17, 4, 1)
    assert pell_negative_unit(29) == PellUnit(29, 70, -13)


def test_pell_invariants_exhaustive():
    for p in primes_in_range(5, 10**4):
        if p % 4 != 1:
            continue
        unit = pell_negative_unit(p)
        assert unit.u**2 - p * unit.v**2 == -1
        assert (unit.v - unit.u) % 4 == 1
        if p % 8 == 1:
            assert (unit.u % 4, unit.v % 4) == (0, 1)
        else:
            assert (unit.u % 4, unit.v % 4) == (2, 3)


def _pell_by_norm(p):
    """First convergent of sqrt(p) with norm -1, testing the norm at every step."""
    a0 = math.isqrt(p)
    h_prev, h, k_prev, k = 1, a0, 0, 1
    m, den = 0, 1
    while h * h - p * k * k != -1:
        m = den * ((a0 + m) // den) - m
        den = (p - m * m) // den
        a = (a0 + m) // den
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return h, k


def test_pell_period_end_matches_per_step_norm():
    for p in primes_in_range(5, 2 * 10**4):
        if p % 4 == 1:
            unit = pell_negative_unit(p)
            assert (unit.u, abs(unit.v)) == _pell_by_norm(p), p
    # period 1 (p = 5), where the middle of the period is its first step,
    # and primes above 10^8
    for p in (5, 10000253, 100000037, 100000049, 100000073):
        unit = pell_negative_unit(p)
        assert unit.norm() == -1
        assert (unit.u, abs(unit.v)) == _pell_by_norm(p), p


def _pell_per_step(p):
    """The unit from half the period with both convergents carried as big
    integers at every step, and the number s of partial quotients used."""
    a0 = math.isqrt(p)
    h_prev, h, k_prev, k = 1, a0, 0, 1
    m, den, s = 0, 1, 1
    while True:
        m = den * ((a0 + m) // den) - m
        den_prev, den = den, (p - m * m) // den
        if den == den_prev:
            u, v = h * k + h_prev * k_prev, k * k + k_prev * k_prev
            return (u, v if (v - u) % 4 == 1 else -v), s
        a = (a0 + m) // den
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        s += 1


def test_blocked_pell_matches_per_step_recurrence():
    for p in primes_in_range(5, 2 * 10**5):
        if p % 4 == 1:
            unit = pell_negative_unit(p)
            assert (unit.u, unit.v) == _pell_per_step(p)[0], p
    # primes above 10^7; the four above 10^9 are p = 5 (mod 8) primes whose
    # unit of Z[(1 + sqrt(p))/2] is not in Z[sqrt(p)], so the returned unit
    # is its cube (v of 600 to 10,175 bits)
    for p in (10000253, 100000037, 100000049, 100000073, 1000001789, 1000000349, 1000002149, 1000000613):
        unit = pell_negative_unit(p)
        assert (unit.u, unit.v) == _pell_per_step(p)[0], p
    # half periods of sqrt(p) at the edges of 32-quotient blocks, of one and
    # of two blocks, and the period-1 primes, whose one block has one quotient
    edges = {1: (5, 17, 37, 101), 31: (2053,), 32: (1801,), 33: (2293,), 63: (4621,), 64: (6781,), 65: (8389,)}
    for s, primes in edges.items():
        for p in primes:
            want, steps = _pell_per_step(p)
            assert steps == s, (p, steps)
            unit = pell_negative_unit(p)
            assert (unit.u, unit.v) == want, p
    # the same edges for the expansion of (1 + sqrt(p))/2 that the kernel
    # walks, at p = 5 (mod 8), where its half period is the shorter one
    edges = {1: (5, 13, 29), 31: (6829,), 32: (9109,), 33: (10861,), 63: (51229,), 64: (36061,), 65: (37549,)}
    for s, primes in edges.items():
        for p in primes:
            assert _omega_half_period(p) == s, p
            unit = pell_negative_unit(p)
            assert (unit.u, unit.v) == _pell_per_step(p)[0], p


def _omega_half_period(p):
    """Partial quotients of (1 + sqrt(p))/2 up to the middle of its period."""
    a0 = math.isqrt(p)
    m, den, den_prev, s = 1, 2, (p - 1) // 2, 0
    while True:
        a = (a0 + m) // den
        m = a * den - m
        den_prev, den = den, (p - m * m) // den
        s += 1
        if den == den_prev:
            return s


def test_pell_is_fundamental():
    # no smaller positive solution below the returned one
    for p in (5, 13, 17, 29, 37, 41):
        unit = pell_negative_unit(p)
        for v in range(1, abs(unit.v)):
            assert (p * v * v - 1) ** 0.5 % 1 != 0 or int((p * v * v - 1) ** 0.5) ** 2 != p * v * v - 1


def test_pell_rejects():
    with pytest.raises(PreconditionViolated):
        pell_negative_unit(15)
    with pytest.raises(NoNegativeNormUnit):
        pell_negative_unit(7)
    with pytest.raises(NoNegativeNormUnit):
        pell_negative_unit(3)


def test_splitting_known():
    assert splitting(13, 37) == INERT
    assert splitting(13, 17) == SPLIT
    assert splitting(2, 17) == SPLIT
    assert splitting(2, 5) == INERT
    assert splitting(2, 13) == INERT
    assert splitting(2, 7) == RAMIFIED
    assert splitting(5, 41) == SPLIT
    with pytest.raises(PreconditionViolated):
        splitting(5, 5)


def test_splitting_matches_jacobi():
    rng = random.Random(47)
    prms = list(primes_in_range(3, 500))
    for _ in range(300):
        q = rng.choice(prms)
        p = rng.choice(prms)
        if q == p:
            continue
        assert splitting(q, p) == (SPLIT if jacobi(p, q) == 1 else INERT)


def _jacobi_splitting(q, p):
    """The split rule by the Jacobi symbol (p/q), kept here as the oracle."""
    if q == 2:
        if p % 8 == 1:
            return SPLIT
        if p % 8 == 5:
            return INERT
        return RAMIFIED
    return {1: SPLIT, -1: INERT}.get(jacobi(p, q), RAMIFIED)


def test_euler_splitting_matches_the_jacobi_rule():
    # every factor of the scanned d (the dyadic one included) against every
    # prime p <= 10^5, and the ramified case q = p
    factors = sorted({q for d in (65, 1105, 32045, 1185665, 2371330) for q in factor_squarefree(d).factors})
    assert factors == [2, 5, 13, 17, 29, 37]
    primes = list(primes_in_range(2, 10**5))
    for q in factors:
        assert _splitting(q, q) == _jacobi_splitting(q, q) == RAMIFIED
        for p in primes:
            assert _splitting(q, p) == _jacobi_splitting(q, p), (q, p)


def test_kp_element_basics():
    a = KpElement(3, 2, 17)
    assert a.conjugate() == KpElement(3, -2, 17)
    assert a.norm() == 9 - 17 * 4
    h = KpElement(7, 1, 29, halved=True)
    assert h.norm() == (49 - 29) // 4
    with pytest.raises(PreconditionViolated):
        KpElement(4, 1, 29, halved=True)


def test_residue_symbol_rational_reduction():
    # a rational integer reduces to its Jacobi symbol at every prime over q
    rng = random.Random(53)
    for _ in range(200):
        q = rng.choice([3, 7, 11, 13, 19, 23])
        p = rng.choice([5, 13, 17, 29, 37])
        if q == p or splitting(q, p) == RAMIFIED:
            continue
        n = rng.randrange(1, 100)
        if n % q == 0:
            continue
        alpha = KpElement(n, 0, p)
        if splitting(q, p) == SPLIT:
            expect = jacobi(n, q)
            assert residue_symbol(alpha, q, FIRST) == expect
            assert residue_symbol(alpha, q, CONJUGATE) == expect
        else:
            # rationals are squares in the degree-two residue field
            assert residue_symbol(alpha, q, FIRST) == 1


def test_residue_symbol_sqrt_p():
    # alpha = sqrt(p): split q gives jacobi(s, q); inert q gives jacobi(-p, q)
    p, q = 17, 13  # split: 17 = 4 (mod 13) is a square
    s = sqrt_mod(p, q)
    assert residue_symbol(KpElement(0, 1, p), q, FIRST) == jacobi(s, q)
    p, q = 37, 13  # inert
    assert residue_symbol(KpElement(0, 1, p), q) == jacobi(-37 % 13, 13)


def test_residue_symbol_conjugate_product_split():
    rng = random.Random(59)
    count = 0
    while count < 300:
        p = rng.choice([5, 13, 17, 29, 37, 41])
        q = rng.choice([3, 7, 11, 13, 19, 23, 31])
        if q == p or splitting(q, p) != SPLIT:
            continue
        alpha = KpElement(rng.randrange(-30, 30), rng.randrange(-30, 30), p)
        try:
            prod = residue_symbol(alpha, q, FIRST) * residue_symbol(alpha, q, CONJUGATE)
        except NotCoprime:
            continue
        assert prod == jacobi(alpha.norm() % q, q)
        count += 1


def test_residue_symbol_flip_root_swaps_primes():
    rng = random.Random(61)
    count = 0
    while count < 200:
        p = rng.choice([5, 13, 17, 29, 37])
        q = rng.choice([3, 7, 11, 13, 19, 23])
        if q == p or splitting(q, p) != SPLIT:
            continue
        alpha = KpElement(rng.randrange(-30, 30), rng.randrange(-30, 30), p)
        try:
            a = residue_symbol(alpha, q, FIRST, flip_root=True)
            b = residue_symbol(alpha, q, CONJUGATE)
        except NotCoprime:
            continue
        assert a == b
        count += 1


def test_residue_symbol_halved_consistency():
    # (x + y sqrt p)/2 and its double differ by the symbol of 2
    p = 29
    alpha = KpElement(7, 1, p, halved=True)
    doubled = KpElement(7, 1, p)
    for q in (3, 5, 11, 13, 19):
        if splitting(q, p) != SPLIT:
            continue
        lhs = residue_symbol(doubled, q, FIRST)
        rhs = jacobi(2, q) * residue_symbol(alpha, q, FIRST)
        assert lhs == rhs


def test_residue_symbol_errors():
    alpha = KpElement(13, 0, 17)
    with pytest.raises(NotCoprime):
        residue_symbol(alpha, 13, FIRST)
    with pytest.raises(PreconditionViolated):
        residue_symbol(KpElement(1, 1, 17), 2, FIRST)
