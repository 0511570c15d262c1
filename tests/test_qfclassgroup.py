import math
import random

import pytest

from unitindex.arith import _sieve_upto, factor_squarefree
from unitindex.errors import NotSquarefree, PreconditionViolated
from unitindex.qfclassgroup import (
    ClassGroup2Sylow,
    _divisors,
    _FormTable,
    _fundamental_discriminant,
    narrow_class_group,
    verify_hypotheses,
)
from unitindex.redei import _prime_discriminants, redei_rank4


def test_fundamental_discriminant():
    assert _fundamental_discriminant(65) == 65
    assert _fundamental_discriminant(5) == 5
    assert _fundamental_discriminant(2) == 8
    assert _fundamental_discriminant(3) == 12
    assert _fundamental_discriminant(10) == 40
    assert _fundamental_discriminant(40) == 40  # already fundamental
    assert _fundamental_discriminant(12) == 12  # ditto, 4 * 3
    with pytest.raises(NotSquarefree):
        _fundamental_discriminant(48)
    with pytest.raises(NotSquarefree):
        _fundamental_discriminant(50)
    with pytest.raises(NotSquarefree):
        _fundamental_discriminant(45)


def test_known_class_groups():
    assert narrow_class_group(5) == ClassGroup2Sylow(0, 0, 0, 1, 1)
    assert narrow_class_group(65) == ClassGroup2Sylow(1, 0, 0, 2, 2)
    assert narrow_class_group(40) == ClassGroup2Sylow(1, 0, 0, 2, 2)
    assert narrow_class_group(34) == ClassGroup2Sylow(1, 1, 0, 4, 4)
    assert narrow_class_group(229).h_plus == 3
    assert narrow_class_group(1105) == ClassGroup2Sylow(2, 0, 0, 4, 4)


def test_reduced_form_counts_small():
    # disc 5: single cycle; disc 8: single cycle
    t5 = _FormTable(5)
    assert t5.h_plus == 1
    t8 = _FormTable(8)
    assert t8.h_plus == 1
    # every enumerated form is reduced and of the right discriminant
    for table in (t5, t8, _FormTable(65), _FormTable(136)):
        for (a, b, c) in table.forms:
            assert b * b - 4 * a * c == table.D
            assert table.is_reduced((a, b, c))


def test_rho_permutes_reduced_forms():
    table = _FormTable(65)
    assert len(table.forms) == 12
    image = {table._rho(f) for f in table.forms}
    assert image == set(table.forms)


def test_composition_identity_and_associativity():
    rng = random.Random(73)
    for D in (65, 34, 145, 1105, 226):
        table = _FormTable(_fundamental_discriminant(D))
        e = table.principal_id()
        ids = range(table.h_plus)
        for i in ids:
            assert table.compose(e, i) == i
        for _ in range(20):
            i, j, k = (rng.randrange(table.h_plus) for _ in range(3))
            assert table.compose(table.compose(i, j), k) == table.compose(i, table.compose(j, k))
            assert table.compose(i, j) == table.compose(j, i)


def test_group_order_divides():
    for D in (65, 34, 145, 226, 1105):
        table = _FormTable(_fundamental_discriminant(D))
        e = table.principal_id()
        for i in range(table.h_plus):
            assert table.power(i, table.h_plus) == e


def test_genus_rank():
    # narrow 2-rank equals number of prime discriminants minus one
    for D in (5, 13, 65, 34, 10, 1105, 3445, 2405, 85):
        sd = factor_squarefree(D)
        discs, _ = _prime_discriminants(sd)
        assert narrow_class_group(D).rk2 == len(discs) - 1


def test_matches_matrix_rank4_sample():
    count = 0
    for D in range(2, 2000):
        try:
            sd = factor_squarefree(D)
        except NotSquarefree:
            continue
        assert narrow_class_group(D).rk4 == redei_rank4(sd), f"D = {D}"
        count += 1
    assert count > 1200


def test_verify_hypotheses():
    rep = verify_hypotheses(65)
    assert rep.admissible and rep.passed
    assert rep.rank4_matrix == rep.rank4_oracle == 0
    assert not verify_hypotheses(105).admissible
    assert verify_hypotheses(5).passed
    rep34 = verify_hypotheses(34)
    assert rep34.admissible and not rep34.passed and rep34.rank4_matrix == 1
    rep15 = verify_hypotheses(15)
    assert not rep15.admissible and not rep15.passed


def _trial_divisors(n):
    """Divisors of n by trial division up to sqrt(n), kept here as the oracle."""
    small = [a for a in range(1, math.isqrt(n) + 1) if n % a == 0]
    return sorted(set(small + [n // a for a in small]))


@pytest.mark.parametrize("d", [65, 1105, 32045, 1185665, 2371330])
def test_divisors_from_factorization_match_trial_division(d):
    # every n = (D - b^2)/4 that the form table of verify_hypotheses(d) lists
    D = _fundamental_discriminant(d)
    primes = _sieve_upto(math.isqrt(D // 4))
    bs = range(2 - (D & 1), math.isqrt(D) + 1, 2)
    for b in bs:
        n = (D - b * b) // 4
        assert _divisors(n, primes) == _trial_divisors(n), (D, b)
    assert verify_hypotheses(d).rank4_oracle == 0


def test_rejects_bounds_and_bad_input():
    with pytest.raises(PreconditionViolated, match="exceeds the bound 10000000"):
        narrow_class_group(10**8 + 1)
    with pytest.raises(NotSquarefree):
        narrow_class_group(18)
