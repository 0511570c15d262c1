import pytest

from unitindex import criterion, errors
from unitindex.arith import factor_squarefree, primes_in_range
from unitindex.construction import find_decomposition
from unitindex.criterion import (
    DContext,
    PrimeVerdict,
    StructurePrediction,
    classify,
    e_totally_real,
    evaluate,
    generalized_rank_check,
    predicted_structure,
    unit_index,
    unit_index_via_governing,
)
from unitindex.errors import NotCoprime, OutOfScopeM, PreconditionViolated, UnitIndexError
from unitindex.gaussian import GaussInt, quad_symbol, split_primary
from unitindex.redei import ordered_factors, redei_rank4
from unitindex.symbols import fpr


def family_primes(d, bound, want_in=True):
    sd = factor_squarefree(d)
    for p in primes_in_range(5, bound):
        if p % 4 != 1 or d % p == 0:
            continue
        v = classify(sd, p)
        if v.in_P == want_in:
            yield p, v


def test_classify_known_values():
    v = classify(65, 37)
    assert (v.m, v.in_P, v.reason) == (0, True, "")
    assert v.structure == (1, 1, 0, 4)
    v = classify(65, 3)
    assert (v.m, v.in_P, v.reason) == (None, False, "p = 3 (mod 4)")
    v = classify(65, 53)
    assert (v.m, v.in_P) == (1, True)
    assert v.structure == (2, 0, 0, 4)
    v = classify(65, 5)
    assert (v.in_P, v.reason) == (False, "p divides d")
    v = classify(65, 29)
    assert (v.m, v.in_P, v.reason) == (2, False, "composite 4-rank is 1")
    with pytest.raises(PreconditionViolated):
        classify(65, 15)


def test_all_split_and_low_m_cells_fail_the_rank_filter():
    # members never have every factor split, and for t = 3 never m = 0:
    # the composite symbol matrix loses rank on those patterns
    seen_t = seen_low = 0
    for d, sd_t in ((65, 2), (1105, 3)):
        sd = factor_squarefree(d)
        for p in primes_in_range(5, 4000):
            if p % 4 != 1 or d % p == 0:
                continue
            v = classify(sd, p)
            if v.m == sd.t:
                assert not v.in_P and "4-rank" in v.reason
                seen_t += 1
            if sd.t >= 3 and v.m == 0:
                assert not v.in_P
                seen_low += 1
    assert seen_t > 30 and seen_low > 10


def test_e_totally_real_known_values():
    assert e_totally_real(65, 37) is True  # m = 0, empty conjunction
    assert e_totally_real(65, 17) is False
    assert e_totally_real(65, 53) is True
    with pytest.raises(PreconditionViolated):
        e_totally_real(65, 3)
    with pytest.raises(PreconditionViolated):
        e_totally_real(65, 13)


def test_e_totally_real_matches_symbol_definition():
    sd = factor_squarefree(85)
    checked = 0
    for p in primes_in_range(5, 800):
        if p % 4 != 1 or 85 % p == 0:
            continue
        split, _ = ordered_factors(sd, p)
        expected = all(fpr(p, q) * fpr(q, p) == 1 for q in split)
        assert e_totally_real(sd, p) is expected
        checked += 1
    assert checked > 40


def test_unit_index_known_values():
    assert unit_index(65, 37) == 2
    assert unit_index(65, 17) == 1
    assert unit_index(65, 53) == 2
    assert unit_index(10, 13) == 2
    assert unit_index(170, 73) == 1
    assert unit_index(170, 113) == 2
    assert unit_index(1105, 29) == 1
    assert unit_index(1105, 53) == 2


def test_unit_index_scope_and_membership_errors():
    with pytest.raises(OutOfScopeM):
        unit_index(65, 29)  # every factor splits
    with pytest.raises(OutOfScopeM):
        unit_index(1105, 73)  # m = 0 = t - 3
    with pytest.raises(PreconditionViolated):
        unit_index(1105, 41)  # m = 1 but composite 4-rank is 1
    with pytest.raises(PreconditionViolated):
        unit_index(65, 3)
    with pytest.raises(OutOfScopeM):
        unit_index_via_governing(65, 29)


def test_governing_route_agrees_and_ignores_labeling():
    # the two verdicts coincide and a global conjugate relabeling of the
    # Gaussian primaries never moves either of them
    checked = 0
    for d in (65, 85, 10, 26, 170, 1105):
        sd = factor_squarefree(d)
        for p, v in family_primes(d, 1500):
            if v.m not in (sd.t - 1, sd.t - 2):
                continue
            direct = unit_index(sd, p)
            try:
                governing = unit_index_via_governing(sd, p)
            except PreconditionViolated:
                assert d % 2 == 0 and p % 8 == 5
                continue
            assert governing == direct
            assert unit_index_via_governing(sd, p, flip=True) == governing
            checked += 1
    assert checked >= 100


def test_governing_m_t_minus_1_is_a_quad_symbol():
    # single split factor 13 for d = 65: the whole governing condition is
    # one quadratic symbol of 3 + 2i against the primary prime over p
    assert split_primary(13) == GaussInt(3, 2)
    for p, v in family_primes(65, 2000):
        if v.m != 1:
            continue
        split, _ = ordered_factors(factor_squarefree(65), p)
        if split != (13,):
            continue
        expected = 2 if quad_symbol(GaussInt(3, 2), split_primary(p)) == 1 else 1
        assert unit_index_via_governing(65, p) == expected


def test_governing_undefined_for_even_d_at_5_mod_8():
    with pytest.raises(PreconditionViolated):
        unit_index_via_governing(10, 13)
    v = evaluate(10, 13, construction_check=True)
    assert v.q_direct == 2 and v.q_governing is None
    assert v.reason == "governing route undefined: b = 5 (mod 8)"
    assert v.alarms == ()
    v = evaluate(1066, 5, construction_check=True)
    assert v.q_direct == 1 and v.q_governing is None
    assert (v.decomposition.a, v.decomposition.b) == (2, 533)


def test_predicted_structure_known_values():
    assert predicted_structure(65, 37) == StructurePrediction(1, 1, 0, 4, 4, (2,))
    assert predicted_structure(65, 17) == StructurePrediction(2, 0, 0, 4, 2, (1,))
    assert predicted_structure(10, 13) == StructurePrediction(1, 1, 0, 4, 4, (2,))
    assert predicted_structure(1105, 29) == StructurePrediction(4, 0, 0, 16, 8, (1,))
    assert predicted_structure(1105, 53) == StructurePrediction(4, 0, 0, 16, 16, (2,))
    assert predicted_structure(170, 73) == StructurePrediction(3, 1, 0, 16, 8, (1,))


def test_predicted_structure_errors():
    with pytest.raises(OutOfScopeM):
        predicted_structure(65, 29)
    with pytest.raises(PreconditionViolated):
        predicted_structure(5, 13)  # a single factor has no h formula
    with pytest.raises(PreconditionViolated):
        predicted_structure(1105, 41)


def test_evaluate_member_chain():
    v = evaluate(65, 37, construction_check=True)
    assert v.in_P and v.m == 0
    assert (v.q_direct, v.q_governing, v.e_totally_real) == (2, 2, True)
    assert (v.decomposition.a, v.decomposition.b) == (5, 13)
    assert v.structure == (1, 1, 0, 4)
    assert v.alarms == ()
    v = evaluate(65, 17, construction_check=True)
    assert (v.q_direct, v.q_governing, v.e_totally_real) == (1, 1, False)
    assert v.decomposition is None
    v = evaluate(65, 53)
    assert (v.q_direct, v.q_governing, v.e_totally_real) == (2, 2, True)


def test_evaluate_rejected_primes_still_carry_e_reality():
    v = evaluate(65, 29)
    assert not v.in_P and v.m == 2
    assert v.e_totally_real is False
    assert v.q_direct is None and v.structure is None
    v = evaluate(1105, 101)
    assert not v.in_P and v.m == 3
    assert v.e_totally_real is not None
    v = evaluate(65, 3)
    assert v.m is None and v.e_totally_real is None


def test_evaluate_never_alarms_on_healthy_range():
    for d in (65, 10, 170):
        for p in primes_in_range(5, 700):
            if p % 4 != 1 or d % p == 0:
                continue
            assert evaluate(d, p, construction_check=True).alarms == ()


def test_verdict_invariants():
    with pytest.raises(PreconditionViolated):
        PrimeVerdict(p=13, m=0, in_P=True, q_direct=3)
    with pytest.raises(PreconditionViolated):
        PrimeVerdict(p=13, m=0, in_P=False, q_direct=1)
    v = PrimeVerdict(p=13, m=0, in_P=True, alarms=["x"])
    assert v.alarms == ("x",)


def test_generalized_rank_matches_prediction():
    checked = 0
    for d in (65, 85, 1105, 10, 26):
        sd = factor_squarefree(d)
        for p, v in family_primes(d, 900):
            if d % 2 == 0 and p % 8 == 1:
                continue  # a split dyadic prime has no symbol rows
            rc = generalized_rank_check(sd, p)
            assert rc.predicted_rank4 == sd.t - v.m - 1
            if rc.rational_full_rank:
                assert rc.kernel_rank4 == rc.predicted_rank4
            assert generalized_rank_check(sd, p, flip_root=True) == rc
            checked += 1
    assert checked >= 30


def test_generalized_rank_refuses_split_dyadic():
    with pytest.raises(PreconditionViolated):
        generalized_rank_check(170, 73)


def _outcome(fn):
    """The value fn returns, or the class of the library error it raises."""
    try:
        return fn()
    except UnitIndexError as exc:
        return type(exc)


@pytest.mark.parametrize("d", [65, 85, 1105, 2210, 32045, 1185665, 2371330])
def test_split_set_tables_match_per_prime_oracles(d):
    # t = 2..6, odd and even d: one context serves every prime, so each
    # table entry filled at an earlier prime must fit every later prime
    # with the same split set
    sd = factor_squarefree(d)
    ctx = DContext(sd)
    t = sd.t
    checked = 0
    for p in primes_in_range(5, 30000):
        if p % 4 != 1 or d % p == 0:
            continue
        split, _ = ordered_factors(sd, p)
        m = len(split)
        r4 = redei_rank4(criterion._composite(sd, p))
        structure = (t + m - 1, t - m - 1, 0, 1 << (2 * t - 2)) if r4 == 0 and m < t else None
        assert ctx.membership(split, p) == (r4, structure)
        if m == t - 2:
            assert _outcome(lambda: ctx.decomposition(split, p)) == _outcome(
                lambda: find_decomposition(sd, p)
            )
        v = evaluate(ctx, p)
        assert (v.m, v.in_P, v.structure) == (m, r4 == 0, structure if m < t else None)
        assert v.alarms == ()
        if v.q_direct is not None:
            if v.q_governing is None:
                assert d % 2 == 0 and p % 8 == 5
            else:
                assert v.q_governing == v.q_direct
            checked += 1
    assert checked > 200


def test_every_library_error_shares_one_base():
    classes = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    ]
    assert errors.NonRealSymbolProduct in classes
    for cls in classes:
        assert issubclass(cls, UnitIndexError)
        if cls is not UnitIndexError:
            assert issubclass(cls, (ValueError, RuntimeError))
    assert issubclass(errors.PreconditionViolated, ValueError)
    assert issubclass(errors.TheoryViolation, RuntimeError)


def test_evaluate_turns_library_errors_into_alarms(monkeypatch):
    def not_coprime(*args):
        raise NotCoprime("planted")

    monkeypatch.setattr(criterion, "_direct_index", not_coprime)
    v = evaluate(65, 37)
    assert v.q_direct is None and v.q_governing == 2
    assert v.alarms == ("direct route: planted",)

    monkeypatch.setattr(criterion, "_governing_index", not_coprime)
    v = evaluate(10, 13)  # the documented gap is for PreconditionViolated only
    assert v.reason == "" and v.alarms == ("direct route: planted", "governing route: planted")


def test_evaluate_lets_bugs_propagate(monkeypatch):
    def bug(*args):
        raise TypeError("planted")

    monkeypatch.setattr(criterion, "_governing_index", bug)
    with pytest.raises(TypeError):
        evaluate(65, 37)
