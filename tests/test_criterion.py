import ast
import dataclasses
import importlib
import pathlib
import pkgutil

import pytest

import unitindex
from oracles import generalized_rank_check, governing_by_cornacchia, wide_class_number
from unitindex import construction, criterion, errors, gaussian
from unitindex.arith import factor_squarefree, is_prime, primes_in_range
from unitindex.construction import find_decomposition
from unitindex.criterion import (
    DContext,
    PrimeVerdict,
    StructurePrediction,
    classify,
    e_totally_real,
    evaluate,
    predicted_structure,
    unit_index,
    unit_index_via_governing,
)
from unitindex.errors import NotCoprime, OutOfScopeM, PreconditionViolated, UnitIndexError
from unitindex.gaussian import GaussInt, _sqrt_minus_one, quad_symbol, split_primary
from unitindex.qfclassgroup import verify_hypotheses
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
            assert governing_by_cornacchia(sd, p, conjugate=True) == governing
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


def _route(index, *args):
    try:
        return index(*args)
    except PreconditionViolated as exc:
        return str(exc)


def test_governing_route_from_sqrt_minus_one_matches_cornacchia():
    # any square root r of -1 mod p reads each symbol the same as either
    # primary prime over p does, so the verdicts match for both labelings
    checked = 0
    for d in (65, 1105, 32045, 1185665, 2371330):
        ctx = DContext(factor_squarefree(d))
        t = ctx.sd.t
        for p in ctx.candidates(5, 10**5):
            m, in_P, _, _, split, inert = criterion._classify(ctx, p)
            if not in_P or m not in (t - 1, t - 2):
                continue
            pis = (split_primary(p), split_primary(p).conjugate())
            r = _sqrt_minus_one(p)
            index = _route(criterion._governing_index, ctx, p, split, inert)
            rhos = [ctx.primary(q) for q in split]
            if m == t - 2:
                rhos.append(ctx.primary(d))
            for conjugate in (False, True):
                assert _route(governing_by_cornacchia, ctx, p, conjugate) == index, (d, p, conjugate)
                root = p - r if conjugate else r
                for rho in rhos:
                    rho = rho.conjugate() if conjugate else rho
                    symbol = 1 if pow((rho.re + rho.im * root) % p, (p - 1) // 2, p) == 1 else -1
                    assert symbol == quad_symbol(rho, pis[0]) == quad_symbol(rho, pis[1]), (d, p, rho)
                checked += 1
    assert checked > 10000


def _least_non_residue(p):
    return next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)


def test_governing_root_from_an_inert_factor():
    # an inert factor of d is a non-residue mod p, 2 included at p = 5 (mod 8),
    # so its ((p-1)/4)-th power is a root of -1; handing the route the least
    # non-residue instead rebuilds _sqrt_minus_one's root, and the verdict
    # must not move
    checked = dyadic = 0
    for d in (65, 10, 2210, 1185665, 2371330):
        ctx = DContext(factor_squarefree(d))
        t = ctx.sd.t
        for p in ctx.candidates(5, 10**5):
            m, in_P, _, _, split, inert = criterion._classify(ctx, p)
            if not in_P or m not in (t - 1, t - 2):
                continue
            r = pow(inert[0], (p - 1) // 4, p)
            assert r * r % p == p - 1, (d, p, inert)
            c = _least_non_residue(p)
            assert pow(c, (p - 1) // 4, p) == _sqrt_minus_one(p)
            index = _route(criterion._governing_index, ctx, p, split, inert)
            assert _route(criterion._governing_index, ctx, p, split, (c,)) == index, (d, p)
            dyadic += inert[0] == 2
            checked += 1
    assert checked > 10000 and dyadic > 1000


def test_governing_root_refuses_composites():
    # the route trusts its caller to have proven p; a composite n whose root
    # does not square to -1 is refused, as _sqrt_minus_one refused it
    ctx = DContext(factor_squarefree(65))
    refused = 0
    for n in range(9, 2 * 10**4, 4):
        if is_prime(n) or n % 5 == 0 or n % 13 == 0:
            continue
        for split, inert in (((13,), (5,)), ((5,), (13,))):
            r = pow(inert[0], (n - 1) // 4, n)
            if r * r % n != n - 1:
                with pytest.raises(PreconditionViolated, match=f"^{n} is not prime$"):
                    criterion._governing_index(ctx, n, split, inert)
                refused += 1
    assert refused > 5000
    for n in (9, 21, 49, 561, 4033, 8321):
        with pytest.raises(PreconditionViolated, match="is not prime"):
            criterion._governing_index(ctx, n, (5,), (13,))


@pytest.mark.parametrize("d", [65, 1105, 2371330])
def test_scan_path_builds_no_prime_over_p(d, monkeypatch):
    # counted at every module that binds them.  Cornacchia and the image of
    # i run only in per-d table fills (the primes over d's factors, the
    # cached cross signs), so their call counts stop growing once every
    # split set has been seen
    calls = {"split_primary": 0, "embedding_of_i": 0}

    def counting(name):
        inner = getattr(gaussian, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        for info in pkgutil.iter_modules(unitindex.__path__):
            module = importlib.import_module(f"unitindex.{info.name}")
            if getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        counting(name)
    counts = []
    for X in (2 * 10**4, 10**5):
        calls.update(dict.fromkeys(calls, 0))
        ctx = DContext(factor_squarefree(d))
        for p in ctx.candidates(5, X):
            evaluate(ctx, p)
        counts.append(dict(calls))
    assert counts[0] == counts[1], counts


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


def test_small_d_sweep_raises_and_alarms_nothing():
    # every d < 1000 that passes the hypothesis check (t <= 3, odd and even)
    # and every candidate p <= 10^4, with the construction check on
    ds = []
    for d in range(2, 1000):
        try:
            sd = factor_squarefree(d)
        except UnitIndexError:
            continue
        if verify_hypotheses(sd).passed:
            ds.append(sd)
    evaluated = 0
    for sd in ds:
        ctx = DContext(sd)
        for p in ctx.candidates(2, 10**4):
            assert evaluate(ctx, p, construction_check=True).alarms == (), (sd.d, p)
            evaluated += 1
    assert (len(ds), sum(sd.d % 2 == 0 for sd in ds), evaluated) == (134, 36, 81444)


def test_even_d_inert_two_cell_passes_the_construction_check():
    # even d, m = t-2 members with p = 5 (mod 8): the governing route is
    # undefined there, so the direct verdict must match the generator's sign
    checked = []
    for d in (10, 290, 2210):
        ctx = DContext(factor_squarefree(d))
        n = 0
        for p in ctx.candidates(2, 10**5):
            if p % 8 != 5:
                continue
            v = evaluate(ctx, p, construction_check=True)
            if not v.in_P or v.m != ctx.sd.t - 2:
                continue
            assert v.alarms == (), (d, p, v.alarms)
            assert v.q_governing is None and v.reason == "governing route undefined: b = 5 (mod 8)", (d, p)
            real = criterion._construction_real(ctx.sd, p, v.decomposition)
            assert (v.q_direct == 2) == (v.e_totally_real and real), (d, p)
            n += 1
        checked.append(n)
    assert checked == [1200, 1197, 296]


def _v2(n):
    return (n & -n).bit_length() - 1


def test_predicted_structure_obeys_kurodas_class_number_formula():
    # h(K) = Q * h(p) h(d) h(pd) / 4 for K = Q(sqrt(p), sqrt(d)) (Kuroda), with
    # the quadratic class numbers from forms, so the 2-part h = Q * 2^(2t-3)
    # that predicted_structure asserts is checked against an independent count;
    # the planted exponent 2t-2 must miss every member
    assert [wide_class_number(D) for D in (3, 10, 34, 79, 226, 229)] == [1, 2, 2, 3, 8, 3]
    checked = 0
    for d, X in ((65, 3000), (1105, 1500), (10, 3000), (170, 2000), (32045, 300)):
        ctx = DContext(factor_squarefree(d))
        t, h_d = ctx.sd.t, wide_class_number(d)
        for p in ctx.candidates(5, X):
            q = evaluate(ctx, p).q_direct
            if q is None:
                continue
            kuroda = _v2(q * wide_class_number(p) * h_d * wide_class_number(p * d)) - 2
            assert kuroda == _v2(predicted_structure(ctx, p).h), (d, p)
            assert kuroda != _v2(q << (2 * t - 2)), (d, p)
            checked += 1
    assert checked == 510


def test_verdict_invariants():
    with pytest.raises(PreconditionViolated):
        PrimeVerdict(p=13, m=0, in_P=True, q_direct=3)
    with pytest.raises(PreconditionViolated):
        PrimeVerdict(p=13, m=0, in_P=False, q_direct=1)
    v = PrimeVerdict(p=13, m=0, in_P=True, alarms=["x"])
    assert v.alarms == ("x",)


def test_verdict_shape_is_pinned():
    # slotted and not frozen: a scan builds one verdict per candidate, and a
    # frozen constructor, one object.__setattr__ per field, was a fifth of one
    fields = [(f.name, f.default) for f in dataclasses.fields(PrimeVerdict)]
    missing = dataclasses.MISSING
    assert fields == [
        ("p", missing),
        ("m", missing),
        ("in_P", missing),
        ("reason", ""),
        ("e_totally_real", None),
        ("q_direct", None),
        ("q_governing", None),
        ("structure", None),
        ("decomposition", None),
        ("alarms", ()),
    ]
    assert PrimeVerdict.__slots__ == tuple(name for name, _ in fields)
    assert not PrimeVerdict.__dataclass_params__.frozen
    v = PrimeVerdict(13, 0, True)
    assert not hasattr(v, "__dict__")
    assert v == PrimeVerdict(13, 0, True, "", None, None, None, None, None, ())
    for q in (0, 3, -1, 2.5, "2"):
        with pytest.raises(PreconditionViolated, match="index must be 1 or 2"):
            PrimeVerdict(13, 0, True, q_governing=q)
    for field in ("q_direct", "q_governing", "structure"):
        with pytest.raises(PreconditionViolated, match="rejected prime"):
            PrimeVerdict(13, 2, False, **{field: (1, 1, 0, 4) if field == "structure" else 1})


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


@pytest.mark.parametrize("d", [65, 1105, 32045, 1185665, 2371330, 10, 2210, 188080853285])
def test_fill_does_not_depend_on_the_prime_that_fills_it(d):
    # t = 2..6 and 8, odd and even d: the tables hold facts of the split
    # set, so a fill that starts far up the prime range stores the same
    names = ("_membership", "_decompositions", "_cross", "_primaries")
    early, late = DContext(factor_squarefree(d)), DContext(factor_squarefree(d))
    early.fill(5, 10**6)
    late.fill(100_001, 10**6)
    assert len(early._membership) == 1 << early.sd.t
    for name in names:
        assert getattr(early, name) == getattr(late, name), name
    # the fill stops at the first candidate of the last split set to appear
    assert late._sieved < 300_000
    # evaluating the filled range adds no entry, also in ranges too short to
    # meet every split set; a fill that raised stays empty in both
    for lo, hi in ((5, 3000), (100_001, 100_100), (999_001, 999_200)):
        ctx = DContext(factor_squarefree(d))
        ctx.fill(lo, hi)
        filled = [dict(getattr(ctx, name)) for name in names]
        for p in ctx.candidates(lo, hi):
            evaluate(ctx, p)
        assert [getattr(ctx, name) for name in names] == filled, (lo, hi)


def test_library_keeps_no_test_only_oracle():
    # the split-generator matrix route lives in tests/oracles.py; the
    # library keeps one path per fact and imports nothing from the tests
    gone = {
        "quadfield": ("FIRST", "CONJUGATE", "KpElement", "residue_symbol"),
        "redei": ("ExtendedMatrices", "_symbol_bit", "extended_residue_matrix", "_check_block_structure"),
        "construction": ("split_generator", "_assert_split_conditions", "MODE_SPLIT", "MODE_DECOMPOSITION"),
        "criterion": ("RankCheck", "generalized_rank_check"),
        "gaussian": ("_split_primary",),
        "symbols": ("fpr_product",),
    }
    for short, names in gone.items():
        module = importlib.import_module(f"unitindex.{short}")
        for name in names:
            assert not hasattr(module, name), f"unitindex.{short}.{name}"
    assert "mode" not in construction.TernarySolution.__dataclass_fields__
    for info in pkgutil.iter_modules(unitindex.__path__):
        module = importlib.import_module(f"unitindex.{info.name}")
        for name, obj in vars(module).items():
            assert getattr(obj, "__module__", None) != "oracles", f"unitindex.{info.name}.{name}"


def test_library_imports_only_names_it_uses():
    # an import the module never reads is dead code
    for path in sorted(pathlib.Path(unitindex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports {sorted(imported - used)} without using them"


def test_library_adds_no_defaulted_parameter():
    # a defaulted parameter is an option some caller may never set; these
    # three are the whole list, so a new knob has to be argued for here
    defaulted = set()
    for path in sorted(pathlib.Path(unitindex.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults) :]
                named += [arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
                defaulted |= {f"{path.stem}.{getattr(node, 'name', 'lambda')}({arg.arg})" for arg in named}
    assert defaulted == {"cli.main(argv)", "criterion.evaluate(construction_check)", "experiment.summarize(m_filter)"}


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
