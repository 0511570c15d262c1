import itertools
import math

import pytest

from unitindex import arith, construction, criterion, gaussian, quadfield, redei, symbols
from unitindex.arith import factor_squarefree, primes_in_range
from oracles import split_generator
from unitindex.construction import (
    Decomposition,
    TernarySolution,
    _solutions,
    find_decomposition,
    normalize_solution,
    solve_legendre,
    totally_real,
)
from unitindex.errors import (
    HeightExceeded,
    LocalObstruction,
    NotSplit,
    PreconditionViolated,
)
from unitindex.criterion import classify, evaluate
from unitindex.quadfield import PellUnit, pell_negative_unit
from unitindex.redei import ordered_factors, redei_rank4
from unitindex.symbols import INFINITY, fpr


def test_solve_legendre_known_values():
    assert solve_legendre(37, -5, -13) == (3, 8, 1)
    assert solve_legendre(1, -29, -5) == (7, 1, 2)
    assert solve_legendre(13, -2, -5) == (1, 2, 1)


def test_solve_legendre_ordering():
    # (3, 5, 4) also solves the first equation; the z-before-y order wins
    x, y, z = 3, 5, 4
    assert 37 * x * x - 5 * y * y - 13 * z * z == 0
    assert solve_legendre(37, -5, -13) == (3, 8, 1)


def test_solve_legendre_normalizes_signs():
    assert solve_legendre(-37, 5, 13) == (3, 8, 1)


def test_solve_legendre_obstructions():
    with pytest.raises(LocalObstruction) as err:
        solve_legendre(5, -3, -7)
    assert err.value.place == 3
    with pytest.raises(LocalObstruction) as err:
        solve_legendre(3, 5, 7)
    assert err.value.place == INFINITY
    with pytest.raises(PreconditionViolated):
        solve_legendre(5, 0, -7)
    with pytest.raises(PreconditionViolated):
        solve_legendre(5, -3, 7)


def test_solve_legendre_substitution_sweep():
    # every output is a primitive zero of its form
    cases = 0
    for c2 in (-3, -5, -11, -13, -17):
        for c3 in (-2, -7, -19, -23):
            for c1 in (5, 13, 29, 37):
                try:
                    x, y, z = solve_legendre(c1, c2, c3)
                except LocalObstruction:
                    continue
                assert c1 * x * x + c2 * y * y + c3 * z * z == 0
                assert math.gcd(math.gcd(x, y), z) == 1
                assert (x, y, z) != (0, 0, 0)
                cases += 1
    assert cases > 20


def test_solve_legendre_obstruction_really_means_empty():
    for c1, c2, c3 in ((5, -3, -7), (7, -3, -5), (5, -7, -3)):
        with pytest.raises(LocalObstruction):
            solve_legendre(c1, c2, c3)
        for x in range(1, 40):
            for y in range(40):
                for z in range(40):
                    assert c1 * x * x + c2 * y * y + c3 * z * z != 0


def test_split_generator_known_values():
    sol, alpha = split_generator(29, 5)
    assert (sol.x, sol.y, sol.z) == (7, 1, 2)
    assert (alpha.x, alpha.y, alpha.halved) == (7, 1, True)
    assert alpha.norm() == 5

    sol, alpha = split_generator(17, 2)
    assert (sol.x, sol.y, sol.z) == (7, 1, 2)
    assert alpha.halved and alpha.norm() == 8

    sol, alpha = split_generator(61, 13)
    assert (sol.x, sol.y, sol.z) == (19, 2, 3)
    assert not alpha.halved and alpha.norm() == 13 * 9


def test_split_generator_not_split():
    with pytest.raises(NotSplit):
        split_generator(29, 3)
    with pytest.raises(NotSplit):
        split_generator(13, 2)  # 13 = 5 mod 8
    with pytest.raises(PreconditionViolated):
        split_generator(29, 29)  # ramified, rejected one layer down


def test_split_generator_avoid_changes_pick():
    base, _ = split_generator(61, 13)
    assert (base.x, base.y, base.z) == (19, 2, 3)
    sol, alpha = split_generator(61, 13, avoid=(3,))
    assert (sol.x, sol.y, sol.z) == (43, 3, 10)
    assert sol.z % 3 != 0
    assert alpha.halved


def test_split_generator_conditions_sweep():
    seen = 0
    for p in primes_in_range(5, 300):
        if p % 4 != 1:
            continue
        for q in (2, 5, 13, 17, 29, 37):
            if q >= p:
                continue
            try:
                sol, alpha = split_generator(p, q)
            except NotSplit:
                continue
            x, y, z = sol.x, sol.y, sol.z
            coeff = 8 if q == 2 else q
            assert x * x - p * y * y - coeff * z * z == 0
            terms = (x * x, p * y * y, coeff * z * z)
            assert math.gcd(terms[0], terms[1]) == 1
            assert math.gcd(terms[1], terms[2]) == 1
            assert math.gcd(terms[0], terms[2]) == 1
            assert y >= 0 and z >= 0
            assert x % 2 == 1
            assert (y + z) % 2 == 1
            even = y if y % 2 == 0 else z
            assert (x - even) % 4 == 1
            assert alpha.halved == (z % 2 == 0)
            seen += 1
    assert seen >= 40


def test_find_decomposition_known():
    dec = find_decomposition(65, 37)
    assert (dec.a, dec.b) == (5, 13)
    assert dec.factors == (5, 13)
    assert dec.exponents == (1, 0)

    dec = find_decomposition(10, 13)
    assert (dec.a, dec.b) == (2, 5)


def test_find_decomposition_needs_two_nonsplit():
    # both factors of 65 split at 29, so m = t
    with pytest.raises(PreconditionViolated):
        find_decomposition(65, 29)


def test_find_decomposition_sweep():
    found = 0
    for d in (65, 85, 145, 205, 221, 10, 26, 34, 58, 74, 130):
        sd = factor_squarefree(d)
        for p in primes_in_range(5, 400):
            if p % 4 != 1 or d % p == 0:
                continue
            split, _ = ordered_factors(sd, p)
            if len(split) != sd.t - 2:
                continue
            if redei_rank4(sd) != 0 or redei_rank4(factor_squarefree(d * p)) != 0:
                continue
            dec = find_decomposition(sd, p)
            assert dec.a * dec.b == d
            assert dec.a not in (1, d)
            from unitindex.arith import jacobi

            assert jacobi(dec.a, p) == -1 and jacobi(dec.b, p) == -1
            if d % 2 == 0:
                assert dec.a % 2 == 0
            # the attached equation really is solvable
            x, y, z = solve_legendre(p, -dec.a, -dec.b)
            assert p * x * x == dec.a * y * y + dec.b * z * z
            found += 1
    assert found >= 30


def test_find_decomposition_proves_p_once(monkeypatch):
    proofs = []
    real = arith.is_prime

    def counting(n):
        proofs.append(n)
        return real(n)

    for mod in (arith, construction, criterion, gaussian, quadfield, redei, symbols):
        monkeypatch.setattr(mod, "is_prime", counting)
    calls = 0
    for d in (65, 1105, 1185665, 2371330):
        sd = factor_squarefree(d)
        for p in primes_in_range(5, 3000):
            if p % 4 != 1 or d % p == 0:
                continue
            v = classify(sd, p)
            if not v.in_P or v.m != sd.t - 2:
                continue
            proofs.clear()
            find_decomposition(sd, p)
            assert proofs.count(p) == 1, (d, p, proofs)
            calls += 1
    assert calls > 100


def test_decomposition_exponent_check():
    with pytest.raises(PreconditionViolated):
        Decomposition(5, 13, (5, 13), (0, 1))


def test_normalize_known():
    out = normalize_solution(TernarySolution(3, 8, 1, 37, 5, 13))
    assert (out.x, out.y, out.z) == (-3, 8, 1)
    assert out.normalized
    # bp = 481 = 1 mod 8 forces residues (1, 0) mod 4
    assert (out.x % 4, out.y % 4) == (1, 0)
    assert normalize_solution(out) == out


def test_normalize_parity_repair():
    out = normalize_solution(TernarySolution(3, 5, 4, 37, 5, 13))
    assert (out.x, out.y, out.z) == (-27, 32, 41)
    assert out.x % 2 == 1 and out.y % 2 == 0 and out.z % 2 == 1
    assert normalize_solution(out) == out


def test_normalize_even_d():
    out = normalize_solution(TernarySolution(1, 2, 1, 13, 2, 5))
    assert (out.x, out.y, out.z) == (-1, 2, 1)
    assert normalize_solution(out) == out


def test_normalize_strips_common_factors():
    out = normalize_solution(TernarySolution(9, 24, 3, 37, 5, 13))
    assert (out.x, out.y, out.z) == (-3, 8, 1)


def test_ternary_solution_invariants():
    with pytest.raises(PreconditionViolated):
        TernarySolution(1, 1, 1, 37, 5, 13)
    with pytest.raises(PreconditionViolated):
        TernarySolution(9, 24, 3, 37, 5, 13, normalized=True)


def test_totally_real_signs():
    norm = normalize_solution(TernarySolution(3, 8, 1, 37, 5, 13))
    unit = pell_negative_unit(37)
    assert (unit.u, unit.v) == (6, -1)
    assert norm.x == -3
    assert totally_real(norm, unit)
    # same magnitudes, positive v: sign flips
    assert not totally_real(norm, PellUnit(37, -6, 1))
    with pytest.raises(PreconditionViolated):
        totally_real(TernarySolution(3, 8, 1, 37, 5, 13), unit)
    with pytest.raises(PreconditionViolated):
        totally_real(norm, pell_negative_unit(13))


def test_sign_test_matches_symbol_product():
    # for every qualifying (d, p): x*v > 0 exactly when the three-factor
    # residue product is -1
    count = 0
    for d in (65, 85, 145, 205, 221, 265, 10, 26, 58, 74, 106, 130, 1105):
        sd = factor_squarefree(d)
        if redei_rank4(sd) != 0:
            continue
        for p in primes_in_range(5, 1200):
            if p % 4 != 1 or d % p == 0:
                continue
            split, _ = ordered_factors(sd, p)
            if len(split) != sd.t - 2:
                continue
            if redei_rank4(factor_squarefree(d * p)) != 0:
                continue
            dec = find_decomposition(sd, p)
            sol = solve_legendre(p, -dec.a, -dec.b)
            norm = normalize_solution(TernarySolution(*sol, p, dec.a, dec.b))
            unit = pell_negative_unit(p)
            prod = fpr(d, p) * fpr(dec.a * p, dec.b) * fpr(dec.b * p, dec.a)
            assert totally_real(norm, unit) == (prod == -1), (d, p)
            count += 1
    assert count >= 200


def test_search_budget_is_enforced(monkeypatch):
    # a caller that filters out every solution must get an error, not a hang
    import unitindex.construction as cons

    monkeypatch.setattr(cons, "_SEARCH_BUDGET", 10_000)
    with pytest.raises(HeightExceeded):
        for _ in cons._solutions(1, -13, -3):
            pass


def test_search_budget_counts_the_steps_taken():
    # the boxes of x <= 9 hold about 1.1 * 10^7 values of y or z, so a
    # budget charged for whole boxes ran out near x = 9, below the Holzer
    # bound 14; the budget counts only the lattice points visited, fewer
    # than 40 up to x = 16
    x, y, z = solve_legendre(1000000001389, -13, -17)
    assert (x, y, z) == (9, 2496122, 10501)
    assert 1000000001389 * x * x - 13 * y * y - 17 * z * z == 0


def _brute_force_zeros(c1, c2, c3, x_max):
    # every primitive nonnegative zero with 1 <= x <= x_max, found by
    # running over y whatever the coefficient sizes, sorted afterwards
    out = []
    for x in range(1, x_max + 1):
        for y in range(math.isqrt(c1 * x * x // -c2) + 1):
            rem = c1 * x * x + c2 * y * y
            if rem % -c3:
                continue
            z = math.isqrt(rem // -c3)
            if z * z == rem // -c3 and math.gcd(math.gcd(x, y), z) == 1:
                out.append((x, y, z))
    return sorted(out, key=lambda sol: (sol[0], sol[2], sol[1]))


def test_solutions_stream_matches_brute_force_listing():
    # odd coefficients, the dyadic 8 of split_generator, and both orders
    # of |c2| against |c3|; then prime c1 far above B*C (one locally
    # obstructed) and c1 = 2 below it; then composite c1: several root
    # lattices (two primes in 65, 130, 221, three in 1105), a square
    # factor (45), and c1 sharing a prime with c2 or c3, which puts that
    # prime in z or y; the stream must list exactly the zeros with
    # x <= x_max, in order, before it moves past x_max
    x_max = 40
    small = [
        (c1, c2, c3)
        for c1 in (1, 5, 13, 29, 37)
        for c2, c3 in itertools.permutations((-1, -3, -5, -8, -13, -17), 2)
    ]
    wide = [
        (10000253, -65, -17),
        (10000253, -85, -13),
        (10000229, -221, -15),
        (10001357, -1105, -1073),
        (2, -1105, -1073),
    ]
    composite = [
        (c1, *pair)
        for c1, c2, c3 in (
            (10, -3, -7),
            (10, -4, -9),
            (10, -1, -65),
            (45, -1, -4),
            (45, -2, -13),
            (45, -1, -9),
            (45, -5, -13),
            (45, -3, -17),
            (65, -1, -4),
            (65, -2, -7),
            (65, -3, -17),
            (65, -1, -26),
            (65, -13, -65),
            (130, -1, -9),
            (130, -2, -7),
            (130, -5, -34),
            (221, -1, -4),
            (221, -4, -17),
            (221, -13, -26),
            (1105, -1, -4),
            (1105, -4, -9),
            (1105, -5, -7),
            (1105, -5, -65),
        )
        for pair in ((c2, c3), (c3, c2))
    ]
    compared = 0
    for c1, c2, c3 in small + wide + composite:
        want = _brute_force_zeros(c1, c2, c3, x_max)
        try:
            got = list(itertools.islice(_solutions(c1, c2, c3), len(want) + 1))
        except LocalObstruction:
            assert want == [], (c1, c2, c3)
            continue
        assert got[: len(want)] == want, (c1, c2, c3)
        assert got[len(want)][0] > x_max, (c1, c2, c3)
        compared += 1
    assert compared >= 116


def test_solve_legendre_with_prime_coefficient_above_10_12():
    # trial division would run to 10^6 before reaching the prime cofactor;
    # the values are those of a full trial division
    assert solve_legendre(1000000000177, -65, -17) == (7, 861911, 204668)
    assert 1000000000177 * 49 - 65 * 861911**2 - 17 * 204668**2 == 0
    for c2, c3, place in ((-5, -13, 5), (-13, -17, 17)):
        with pytest.raises(LocalObstruction) as err:
            solve_legendre(1000000000061, c2, c3)
        assert err.value.place == place


def test_sign_does_not_depend_on_the_normalized_solution():
    # x*v read off the first and the second solution of the stream; the
    # members are those of acceptance test 8
    for d in (65, 85, 1105):
        sd = factor_squarefree(d)
        taken = 0
        for p in primes_in_range(5, 10**5):
            if p % 4 != 1 or d % p == 0:
                continue
            v = classify(sd, p)
            if not v.in_P or v.m != sd.t - 2:
                continue
            dec = find_decomposition(sd, p)
            unit = pell_negative_unit(p)
            signs = {
                totally_real(
                    normalize_solution(TernarySolution(x, y, z, p, dec.a, dec.b)),
                    unit,
                )
                for x, y, z in itertools.islice(_solutions(p, -dec.a, -dec.b), 2)
            }
            assert len(signs) == 1, (d, p)
            taken += 1
            if taken >= 80:
                break
        assert taken == 80, d


def test_solve_legendre_finds_near_solution_of_large_box():
    # both lie in Holzer boxes costing more than the search budget, yet
    # have a solution at small x
    for c1, c2, c3 in ((1000193, -2405, -493), (1500241, -1885, -629)):
        x, y, z = solve_legendre(c1, c2, c3)
        assert c1 * x * x + c2 * y * y + c3 * z * z == 0
        assert math.gcd(math.gcd(x, y), z) == 1 and x > 0


def test_construction_check_clean_on_large_boxes():
    for p, q in ((1000193, 2), (1500241, 1)):
        v = evaluate(1185665, p, construction_check=True)
        assert v.alarms == (), (p, v.alarms)
        assert (v.q_direct, v.q_governing) == (q, q)


def test_construction_check_clean_at_t_8():
    # some members have no zero below x = 10^4 (p = 19309: x = 15813,
    # p = 29761: x = 13947), so a search that walks x one by one through
    # boxes of y and z runs out of budget before it reaches one
    ctx = criterion.DContext(factor_squarefree(188080853285))
    members = 0
    for p in ctx.candidates(5, 10**5):
        v = evaluate(ctx, p, construction_check=True)
        if v.in_P and v.m == 6:
            assert v.alarms == () and v.q_direct is not None, (p, v.alarms)
            members += 1
    assert members == 307
