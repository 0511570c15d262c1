"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers so a
teed run reads as a checklist.  The two million-bound scans dominate the
runtime; everything else is seconds.
"""

import os
import random
import time

from unitindex.arith import factor_squarefree, primes_in_range
from oracles import generalized_rank_check, governing_by_cornacchia
from unitindex.construction import (
    TernarySolution,
    find_decomposition,
    normalize_solution,
    solve_legendre,
    totally_real,
)
from unitindex.criterion import (
    classify,
    e_totally_real,
    unit_index,
    unit_index_via_governing,
)
from unitindex.errors import HeightExceeded, LocalObstruction, NotSquarefree
from unitindex.experiment import ScanConfig, run_scan
from unitindex.gaussian import quartic_symbol, split_primary
from unitindex.qfclassgroup import narrow_class_group
from unitindex.quadfield import pell_negative_unit
from unitindex.redei import redei_rank4
from unitindex.symbols import INFINITY, fpr, hilbert

_WORKERS = min(8, os.cpu_count() or 1)


def _verdict(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _scan(d, X):
    return run_scan(ScanConfig(d=d, X=X, workers=_WORKERS))


def test_1_flagship_three_way_agreement():
    # route one: the symbol product
    factors = (fpr(65, 37), fpr(185, 13), fpr(481, 5))
    product = factors[0] * factors[1] * factors[2]
    dec = find_decomposition(65, 37)
    direct = unit_index(65, 37)

    # route two: quartic symbols at the primary prime over 37
    governing = unit_index_via_governing(65, 37)
    governing_flipped = governing_by_cornacchia(65, 37, conjugate=True)

    # route three: the ternary construction
    x, y, z = solve_legendre(37, -5, -13)
    sol = normalize_solution(TernarySolution(x, y, z, 37, 5, 13))
    unit = pell_negative_unit(37)
    real = totally_real(sol, unit)

    v = classify(65, 37)
    ok = (
        v.m == 0
        and v.in_P
        and (dec.a, dec.b) == (5, 13)
        and factors == (-1, 1, 1)
        and product == -1
        and direct == 2
        and governing == 2
        and governing_flipped == 2
        and sol.x == -3
        and unit.v == -1
        and sol.x * unit.v > 0
        and real
    )
    _verdict(
        1,
        ok,
        f"(65, 37): m=0 member; symbols {factors}, product {product}; "
        f"Q direct {direct}, governing {governing}; x={sol.x}, v={unit.v}, xv>0={real}",
    )


def test_2_m_equals_t_minus_1_worked_examples():
    q17 = unit_index(65, 17)
    q53 = unit_index(65, 53)
    rank4_1105 = redei_rank4(1105)
    rank4_3445 = redei_rank4(3445)
    # three prime discriminants each, so 4-rank 0 means matrix rank 2
    ok = (
        q17 == 1
        and q53 == 2
        and classify(65, 17).in_P
        and classify(65, 53).in_P
        and rank4_1105 == 0
        and rank4_3445 == 0
    )
    _verdict(
        2,
        ok,
        f"(65, 17) -> Q={q17}, (65, 53) -> Q={q53}; "
        f"membership matrices rank 2 (4-rank {rank4_1105} for 1105, {rank4_3445} for 3445)",
    )


def test_3_index_density_d65():
    t0 = time.time()
    summary, records = _scan(65, 10**6)
    elapsed = time.time() - t0
    freqs = {row.m: row.freq_Q2 for row in summary.rows if row.m in (0, 1)}
    alarmed = sum(1 for r in records if r["alarms"])
    ok = (
        all(abs(freqs[m] - 0.5) < 0.05 for m in (0, 1))
        and elapsed < 300
        and alarmed == 0
    )
    _verdict(
        3,
        ok,
        f"d=65 to 1e6: freq_Q2 m=0 {freqs[0]:.4f}, m=1 {freqs[1]:.4f} "
        f"(target 0.5 within 0.05); {elapsed:.0f}s with {_WORKERS} workers; {alarmed} alarms",
    )


def test_4_e_real_density_d1105():
    summary, records = _scan(1105, 10**6)
    freqs = {row.m: row.freq_E_real for row in summary.rows if row.m in (0, 1, 2)}
    alarmed = sum(1 for r in records if r["alarms"])
    ok = all(abs(freqs[m] - 0.5**m) < 0.05 for m in (0, 1, 2)) and alarmed == 0
    _verdict(
        4,
        ok,
        f"d=1105 to 1e6: freq_E_real {freqs[0]:.4f}/{freqs[1]:.4f}/{freqs[2]:.4f} "
        f"for m=0,1,2 (targets 1, 0.5, 0.25 within 0.05); {alarmed} alarms",
    )


def test_5_rank4_oracle_equivalence():
    checked = mismatches = 0
    for D in range(2, 10**4 + 1):
        try:
            sd = factor_squarefree(D)
        except NotSquarefree:
            continue
        if narrow_class_group(D).rk4 != redei_rank4(sd):
            mismatches += 1
        checked += 1
    ok = mismatches == 0 and checked >= 6000
    _verdict(
        5,
        ok,
        f"matrix vs forms-oracle 4-rank on {checked} squarefree D <= 1e4: {mismatches} mismatches",
    )


def test_6_reciprocity_suites():
    split = [p for p in primes_in_range(5, 10**5) if p % 4 == 1]
    rng = random.Random(20260823)
    quartic_pairs = quartic_bad = 0
    for _ in range(10**4):
        p, q = rng.sample(split, 2)
        pi, rho = split_primary(p), split_primary(q)
        # the same draws, in the same order, pick the labeling of each prime
        if rng.random() < 0.5:
            pi = pi.conjugate()
        if rng.random() < 0.5:
            rho = rho.conjugate()
        lhs = quartic_symbol(pi, rho).k
        rhs = quartic_symbol(rho, pi).k
        flip = ((p - 1) // 4) * ((q - 1) // 4) % 2
        quartic_pairs += 1
        if lhs != (rhs + 2 * flip) % 4:
            quartic_bad += 1

    smooth = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    hilbert_pairs = hilbert_bad = 0
    for _ in range(10**4):
        a = rng.choice([-1, 1])
        b = rng.choice([-1, 1])
        for _ in range(rng.randrange(1, 5)):
            a *= rng.choice(smooth)
        for _ in range(rng.randrange(1, 5)):
            b *= rng.choice(smooth)
        places = {2, INFINITY} | {r for r in smooth if a * b % r == 0}
        prod = 1
        for r in places:
            prod *= hilbert(a, b, r)
        hilbert_pairs += 1
        if prod != 1:
            hilbert_bad += 1

    ok = quartic_bad == 0 and hilbert_bad == 0 and quartic_pairs >= 10**4 and hilbert_pairs >= 10**4
    _verdict(
        6,
        ok,
        f"quartic sign law on {quartic_pairs} primary pairs: {quartic_bad} violations; "
        f"Hilbert product formula on {hilbert_pairs} pairs: {hilbert_bad} violations",
    )


def test_7_generalized_matrix_kernel_pinch():
    checked = pinched = degenerate = 0
    for d in (65, 1105):
        sd = factor_squarefree(d)
        _, records = _scan(d, 2 * 10**4)
        for r in records:
            if not r["in_P"]:
                continue
            rc = generalized_rank_check(sd, r["p"])
            checked += 1
            if not rc.rational_full_rank:
                degenerate += 1
                continue
            if rc.kernel_rank4 == rc.predicted_rank4 == sd.t - r["m"] - 1:
                pinched += 1
    ok = checked >= 1000 and pinched + degenerate == checked and degenerate < checked // 10
    _verdict(
        7,
        ok,
        f"kernel dimension t-m on {checked} member primes of 65 and 1105: "
        f"{pinched} exact, {degenerate} without full rational rank, 0 failures",
    )


def test_8_construction_sign_bridge():
    solvable = agreeing = unsolvable = 0
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
            sign = fpr(sd.d, p) * fpr(dec.a * p, dec.b) * fpr(dec.b * p, dec.a)
            try:
                x, y, z = solve_legendre(p, -dec.a, -dec.b)
                sol = normalize_solution(TernarySolution(x, y, z, p, dec.a, dec.b))
                real = totally_real(sol, pell_negative_unit(p))
            except (LocalObstruction, HeightExceeded):
                unsolvable += 1
                continue
            solvable += 1
            if real == (sign == -1):
                agreeing += 1
            # the composite criterion must agree as well
            assert (unit_index(sd, p) == 2) == (e_totally_real(sd, p) and real)
            taken += 1
            if taken >= 80:
                break
    ok = solvable >= 200 and agreeing == solvable and unsolvable == 0
    _verdict(
        8,
        ok,
        f"sign(xv) vs symbol product on {solvable} solvable m=t-2 members "
        f"of 65, 85, 1105: {agreeing} agree, {unsolvable} unsolvable",
    )


def test_9_scan_determinism(tmp_path):
    cfg1 = ScanConfig(d=65, X=2 * 10**4, workers=1, out=str(tmp_path / "w1.csv"))
    cfg3 = ScanConfig(d=65, X=2 * 10**4, workers=3, out=str(tmp_path / "w3.csv"))
    from unitindex.experiment import report

    s1, r1 = run_scan(cfg1)
    report(s1, r1, cfg1)
    s3, r3 = run_scan(cfg3)
    report(s3, r3, cfg3)
    workers_identical = (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()

    ck = str(tmp_path / "scan.log")
    cfg_ck = ScanConfig(d=65, X=2 * 10**4, workers=2, checkpoint=ck, out=str(tmp_path / "full.csv"))
    s, r = run_scan(cfg_ck)
    report(s, r, cfg_ck)
    size = os.path.getsize(ck)
    with open(ck, "r+b") as fh:
        fh.truncate(size * 2 // 5)
    cfg_res = ScanConfig(d=65, X=2 * 10**4, workers=1, checkpoint=ck, out=str(tmp_path / "resumed.csv"))
    s2, r2 = run_scan(cfg_res)
    report(s2, r2, cfg_res)
    resume_identical = (tmp_path / "full.csv").read_bytes() == (tmp_path / "resumed.csv").read_bytes()

    ok = workers_identical and resume_identical
    _verdict(
        9,
        ok,
        f"1 vs 3 workers byte-identical: {workers_identical}; "
        f"resume after truncated checkpoint byte-identical: {resume_identical}",
    )


def test_10_scans_clean_for_t_4_to_6():
    details = []
    ok = True
    for d in (32045, 1185665, 2371330):
        _, records = run_scan(ScanConfig(d=d, X=2 * 10**5, workers=1, seed=0))
        alarmed = sum(1 for r in records if r["alarms"])
        both = [r for r in records if r["Q_direct"] is not None and r["Q_governing"] is not None]
        disagree = sum(1 for r in both if r["Q_direct"] != r["Q_governing"])
        ok = ok and alarmed == 0 and disagree == 0 and len(both) > 0
        details.append(f"d = {d}: {len(records)} primes, {alarmed} alarmed, {disagree}/{len(both)} routes disagree")
    _verdict(10, ok, "; ".join(details))
