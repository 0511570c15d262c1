import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import struct
import tracemalloc
from dataclasses import asdict

import pytest

import unitindex
from unitindex import arith, criterion, experiment
from unitindex.arith import factor_squarefree, primes_in_range
from unitindex.errors import PreconditionViolated
from unitindex.experiment import (
    _CSV_FIELDS,
    _SUMMARY_FIELDS,
    ScanConfig,
    _cell,
    hypothesis_failure,
    record_of,
    render_csv,
    render_json,
    report,
    run_scan,
    summarize,
)
from unitindex.qfclassgroup import verify_hypotheses
from unitindex.redei import ordered_factors


def scan(d, X, **kw):
    return run_scan(ScanConfig(d=d, X=X, **kw))


def by_p(records):
    return {r["p"]: r for r in records}


# sha256 of whole reports, pinned before the governing route moved from a
# Cornacchia prime over p to a square root of -1 mod p; seed 1 runs the
# sampled construction checks too
GOLDEN_REPORTS = {
    (65, "csv"): "3bf0ef0e69df4987901c3bd07406493b3b39365da46efc9c8019a419d8d9af27",
    (65, "json"): "3eac8a36c157dd06ba00c7e100b7d613c230e343417aa7da870f4706559cdf60",
    (1105, "csv"): "d94175ee420db82267ba5050340b977c29207bfe4433be65b3af7785fb59ac7a",
    (1105, "json"): "2b1c2565535534f4ee4c77334e64171e5731fd8b37f389b8681107b64ed1b1c5",
    (2371330, "csv"): "f92ec99cff536ef7926938cfae2680c4a1346def3f60cfbb5ad54376800c8a6d",
    (2371330, "json"): "8bbf2f67bffdd279727c31fc8a9a6467f0286d75a404d4a1efe2a107456952ae",
}


# the m = t-1, t-2 window of the t = 6 d as JSON, pinned before records
# were kept as shapes
GOLDEN_WINDOW_REPORT = "a00eed65297cad4ac2f5ce3a3383ef4c8260b30df9e75d741ff1e36ede64c287"


@pytest.mark.parametrize(
    "d, fmt, workers, window",
    [pytest.param(d, fmt, 1, False, id=f"{d}-{fmt}") for d, fmt in sorted(GOLDEN_REPORTS)]
    + [pytest.param(d, fmt, 2, False, id=f"{d}-{fmt}-w2") for d, fmt in sorted(GOLDEN_REPORTS)]
    + [pytest.param(2371330, "json", w, True, id=f"2371330-json-w{w}-window") for w in (1, 2)],
)
def test_report_bytes_match_golden_digests(d, fmt, workers, window):
    t = factor_squarefree(d).t
    m_filter = frozenset({t - 1, t - 2}) if window else None
    cfg = ScanConfig(d=d, X=20000, fmt=fmt, seed=1, workers=workers, m_filter=m_filter)
    summary, records = run_scan(cfg)
    text = report(summary, records, cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == (GOLDEN_WINDOW_REPORT if window else GOLDEN_REPORTS[d, fmt])


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_ships_one_record_dict_per_shape(workers):
    # a chunk comes back as its distinct records and (p, index) pairs
    shapes, pairs = experiment._scan_chunk((65, 5, 20000, 1))
    expanded = [{**shapes[i], "p": p} for p, i in pairs]
    assert len(pairs) > 1000
    assert len(shapes) <= len({json.dumps({**r, "p": 0}) for r in expanded}) < 10
    _, records = scan(65, 20000, workers=workers, seed=1)
    ctx = criterion.DContext(factor_squarefree(65))
    want = [record_of(criterion.evaluate(ctx, p, experiment._sampled(p, 1))) for p in ctx.candidates(5, 20000)]
    assert records == want
    assert records[: len(expanded)] == expanded


def test_config_validation():
    with pytest.raises(PreconditionViolated):
        ScanConfig(d=65, X=4)
    with pytest.raises(PreconditionViolated):
        ScanConfig(d=65, X=100, workers=0)
    with pytest.raises(PreconditionViolated):
        ScanConfig(d=65, X=100, fmt="xml")


def test_scan_enumerates_only_candidates():
    _, records = scan(65, 300)
    ps = [r["p"] for r in records]
    assert ps == sorted(ps)
    for r in records:
        assert r["p"] % 4 == 1
        assert 65 % r["p"] != 0
        assert r["m"] in (0, 1, 2)


def test_known_rows():
    _, records = scan(65, 200)
    rows = by_p(records)
    assert rows[37] == {
        "p": 37,
        "m": 0,
        "in_P": True,
        "reason": "",
        "E_real": True,
        "Q_direct": 2,
        "Q_governing": 2,
        "a": 5,
        "b": 13,
        "alarms": [],
    }
    assert rows[17]["Q_direct"] == 1 and rows[17]["m"] == 1
    assert rows[53]["Q_direct"] == 2 and rows[53]["E_real"] is True
    assert rows[29]["in_P"] is False
    assert rows[29]["reason"] == "composite 4-rank is 1"
    assert rows[29]["Q_direct"] is None and rows[29]["a"] is None
    assert rows[97]["Q_direct"] == 1 and rows[97]["a"] == 5


def test_summary_count_consistency():
    summary, records = scan(65, 2000)
    assert summary.d == 65 and summary.X == 2000 and summary.t == 2
    assert [row.m for row in summary.rows] == [0, 1, 2]
    assert sum(row.n_total for row in summary.rows) == len(records)
    for row in summary.rows:
        assert 0 <= row.n_Q2 <= row.n_in_P <= row.n_total
        assert row.n_E_real <= row.n_total
        if row.m == 2:
            # all-split primes always fail the 4-rank filter; the row stays
            # visible so the exclusion is observable
            assert row.n_in_P == 0
            assert row.freq_Q2 is None and row.theory_Q2 is None
        else:
            assert row.theory_Q2 == 0.5
            assert row.freq_Q2 == row.n_Q2 / row.n_in_P
        assert row.theory_E_real == 0.5**row.m


def test_m_filter_restricts_records_and_summary():
    summary, records = scan(65, 500, m_filter=frozenset({0}))
    assert records and all(r["m"] == 0 for r in records)
    assert [row.m for row in summary.rows] == [0]


def test_worker_count_invariance():
    s1, r1 = scan(65, 3000, workers=1)
    s3, r3 = scan(65, 3000, workers=3)
    assert r1 == r3
    assert s1 == s3
    assert render_csv(s1, r1) == render_csv(s3, r3)
    assert render_json(s1, r1) == render_json(s3, r3)


def test_resume_is_byte_identical(tmp_path):
    ck = str(tmp_path / "scan.log")
    sfull, rfull = scan(65, 3000, workers=2, checkpoint=ck)
    want = render_csv(sfull, rfull)

    size = os.path.getsize(ck)
    with open(ck, "r+b") as fh:
        fh.truncate(size - size // 3)  # tear the log mid-record
    s2, r2 = scan(65, 3000, checkpoint=ck)
    assert render_csv(s2, r2) == want

    # resuming a finished log does no new work and still agrees
    s3, r3 = scan(65, 3000, checkpoint=ck)
    assert render_csv(s3, r3) == want


def test_checkpoint_refuses_other_scan(tmp_path):
    ck = str(tmp_path / "scan.log")
    scan(65, 1000, checkpoint=ck)
    with pytest.raises(PreconditionViolated, match="refusing to mix"):
        scan(85, 1000, checkpoint=ck)
    with pytest.raises(PreconditionViolated, match="refusing to mix"):
        scan(65, 2000, checkpoint=ck)


def test_checkpoint_refuses_other_sampling_seed(tmp_path):
    # the seed picks which primes get the construction check
    ck = str(tmp_path / "scan.log")
    scan(65, 1000, checkpoint=ck, seed=0)
    with pytest.raises(PreconditionViolated, match="refusing to mix"):
        scan(65, 1000, checkpoint=ck, seed=1)
    scan(65, 1000, checkpoint=ck, seed=1 << 32)  # same low 32 bits as 0


def test_checkpoint_rejects_foreign_file(tmp_path):
    ck = tmp_path / "not-a-log"
    ck.write_bytes(b"p,m,in_P\n37,0,1\n")
    with pytest.raises(PreconditionViolated, match="not a scan checkpoint"):
        scan(65, 1000, checkpoint=str(ck))


def test_checkpoint_survives_torn_length_prefix(tmp_path):
    ck = str(tmp_path / "scan.log")
    sfull, rfull = scan(65, 800, checkpoint=ck)
    size = os.path.getsize(ck)
    # a prefix that claims 500 bytes with 7 there, then all 7 bytes there
    # but not JSON: the resume cuts either tail off
    for n in (500, 7):
        with open(ck, "ab") as fh:
            fh.write(struct.pack(">I", n) + b'{"p": 9')
        s2, r2 = scan(65, 800, checkpoint=ck)
        assert os.path.getsize(ck) == size
        assert r2 == rfull
        assert render_csv(s2, r2) == render_csv(sfull, rfull)


@pytest.mark.parametrize(
    "blob",
    [b"[1, 2]", b"7", b'{"q": 1}', None],
    ids=["array", "number", "foreign-object", "record-without-m"],
)
def test_checkpoint_cuts_json_that_is_not_a_record(tmp_path, blob):
    ck = str(tmp_path / "scan.log")
    sfull, rfull = scan(65, 2000, checkpoint=ck)
    size = os.path.getsize(ck)
    if blob is None:
        blob = json.dumps({k: v for k, v in rfull[-1].items() if k != "m"}).encode()
    with open(ck, "ab") as fh:
        fh.write(struct.pack(">I", len(blob)) + blob)
    s2, r2 = scan(65, 2000, checkpoint=ck)
    assert os.path.getsize(ck) == size
    assert r2 == rfull
    assert render_csv(s2, r2) == render_csv(sfull, rfull)


def test_empty_scan_is_header_only():
    summary, records = scan(65, 5)  # the only prime in range divides d
    assert records == []
    assert render_csv(summary, records) == "p,m,in_P,reason,E_real,Q_direct,Q_governing,a,b,alarms\n"


def test_hypothesis_refusal_names_the_cause():
    with pytest.raises(PreconditionViolated, match="4-rank 1"):
        scan(145, 100)
    with pytest.raises(PreconditionViolated, match=r"3 \(mod 4\)"):
        scan(21, 100)
    assert hypothesis_failure(verify_hypotheses(65)) is None


def test_even_d_scan_annotates_governing_gap():
    _, records = scan(10, 600)
    rows = by_p(records)
    assert rows[13]["Q_direct"] == 2
    assert rows[13]["Q_governing"] is None
    assert rows[13]["reason"] == "governing route undefined: b = 5 (mod 8)"
    assert rows[13]["alarms"] == []
    for r in records:
        assert r["alarms"] == []
        if r["in_P"] and r["p"] % 8 == 5 and r["m"] == 0:
            assert r["Q_governing"] is None
        if r["in_P"] and r["p"] % 8 == 1 and r["Q_governing"] is not None:
            assert r["Q_governing"] == r["Q_direct"]


def test_csv_escapes_reason_commas(tmp_path):
    summary, records = scan(1105, 150)
    text = render_csv(summary, records)
    line = next(l for l in text.splitlines() if l.startswith("41,"))
    # the rank-filter reason contains no comma today; the quoting path is
    # exercised through csv.writer regardless
    assert line.split(",")[3] == "composite 4-rank is 1"


def test_json_document_shape():
    summary, records = scan(65, 300)
    doc = json.loads(render_json(summary, records))
    assert doc["schema_version"] == 1
    assert doc["d"] == 65 and doc["X"] == 300 and doc["t"] == 2
    assert doc["records"] == records
    assert [row["m"] for row in doc["summary"]] == [0, 1, 2]


def test_report_writes_requested_format(tmp_path):
    out = tmp_path / "scan.json"
    cfg = ScanConfig(d=65, X=300, out=str(out), fmt="json")
    summary, records = run_scan(cfg)
    text = report(summary, records, cfg)
    assert out.read_text() == text
    json.loads(text)


def test_summarize_matches_manual_count():
    _, records = scan(85, 1000)
    summary = summarize(records, 85, 1000)
    manual = sum(1 for r in records if r["m"] == 1 and r["Q_direct"] == 2)
    row = summary.rows[1]
    assert row.m == 1 and row.n_Q2 == manual


def test_summarize_large_m_builds_no_big_integer():
    # 2^-m as a float, never 1 / (1 << m): 1 << 10**8 alone is 12.5 MB
    _, records = scan(65, 1000)
    tracemalloc.start()
    try:
        summary = summarize(records, 65, 1000, {0, 10**8})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(row.m, row.theory_E_real) for row in summary.rows] == [(0, 1.0), (10**8, 0.0)]
    assert peak < 10**6, peak


def test_construction_sample_share_is_about_one_in_64_for_every_seed():
    candidates = [p for p in primes_in_range(5, 200000) if p % 4 == 1]
    n, share = len(candidates), 1 / 64
    bound = 4 * math.sqrt(n * share * (1 - share))  # four binomial sigmas
    for seed in range(8):
        hits = sum(1 for p in candidates if experiment._sampled(p, seed))
        assert abs(hits - n * share) <= bound, (seed, hits, n)


def test_scan_splits_each_prime_once_and_fills_tables_per_split_set(monkeypatch):
    # counted at the names criterion calls, the split at its proof-free
    # kernel; find_decomposition's own internal split happens inside the
    # bounded table fills
    calls = {
        "_ordered_factors": 0,
        "redei_rank4": 0,
        "find_decomposition": 0,
        "quartic_cross_product": 0,
        "split_primary": 0,
    }
    factors = (5, 13, 17)
    chunks = [0]

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            # split_primary counts only on the factors of d: their primes
            # belong to the context, the prime over p to each candidate
            if name != "split_primary" or args[0] in factors:
                calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        counting(criterion, name)
    chunk = experiment._scan_chunk

    def counting_chunk(args):
        chunks[0] += 1
        return chunk(args)

    monkeypatch.setattr(experiment, "_scan_chunk", counting_chunk)
    # one context per process and scan: each table entry is filled once
    # over all chunks, and the second scan starts from empty tables again
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        chunks[0] = 0
        _, records = scan(1105, 20000, workers=1)
        assert calls["_ordered_factors"] == len(records) > 1000
        assert chunks[0] > 1
        for name in ("redei_rank4", "find_decomposition", "quartic_cross_product"):
            assert 0 < calls[name] <= 1 << 3, name
        assert 0 < calls["split_primary"] <= len(factors)


def test_scan_never_reproves_a_sieve_prime(monkeypatch):
    # counted at every module that binds is_prime, so no caller is missed.
    # The scan's candidates come from the sieve; only the sampled
    # construction checks and the split-set table fills (find_decomposition,
    # a public function that proves p) may prove one again
    inner = arith.is_prime
    calls = []
    inside = [None]

    def counting(n):
        calls.append((n, inside[0]))
        return inner(n)

    for info in pkgutil.iter_modules(unitindex.__path__):
        module = importlib.import_module(f"unitindex.{info.name}")
        if getattr(module, "is_prime", None) is inner:
            monkeypatch.setattr(module, "is_prime", counting)

    def marking(name):
        fn = getattr(criterion, name)

        def wrapper(*args, **kwargs):
            inside[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = None

        monkeypatch.setattr(criterion, name, wrapper)

    marking("_construction_real")
    marking("find_decomposition")
    for d in (65, 2371330):
        calls.clear()
        _, records = scan(d, 20000, workers=1)
        assert len(records) > 1000
        candidates = {r["p"] for r in records}
        on_candidates = [seam for n, seam in calls if n in candidates]
        assert on_candidates.count(None) == 0, d
        fills = on_candidates.count("find_decomposition")
        assert 0 < fills <= 2 << factor_squarefree(d).t, (d, fills)
        assert on_candidates.count("_construction_real") > 0, d
        # what is left is the per-scan table fills and the sampled checks
        assert len(calls) < 0.2 * len(records), (d, len(calls), len(records))


def _composites_near(c):
    """Every composite within 100 of c, then c times two primes."""
    return [n for n in range(c - 100, c + 101) if n > 1 and not arith.is_prime(n)] + [c * c, c * 29]


def _assert_proves(ctx, composites):
    # the n = 1 (mod 4) coprime to d are the ones that reach the split
    assert sum(n % 4 == 1 and math.gcd(n, ctx.sd.d) == 1 for n in composites) > 10
    for n in composites:
        assert not arith.is_prime(n)
        with pytest.raises(PreconditionViolated, match="not prime"):
            ordered_factors(ctx.sd, n)
    for n in [0, 1, *composites]:
        with pytest.raises(PreconditionViolated, match="not prime"):
            criterion.evaluate(ctx, n)
        with pytest.raises(PreconditionViolated, match="not prime"):
            criterion.classify(ctx, n)


def test_trust_stays_with_the_sieve():
    # before and after a scan, and between two candidates of a running
    # one, the context still proves every other n it is handed
    _assert_proves(criterion.DContext(factor_squarefree(65)), _composites_near(101))
    scan(65, 20000, workers=1)
    ctx = experiment._context(65)
    last = ctx._sieved
    assert last is not None and arith.is_prime(last)
    _assert_proves(ctx, _composites_near(last))
    running = ctx.candidates(1001, 2000)
    first = next(running)
    _assert_proves(ctx, _composites_near(first) + _composites_near(last) + [first * last])
    assert criterion.evaluate(ctx, first) == criterion.evaluate(65, first)
    assert list(running)


def test_scan_builds_one_verdict_per_candidate(monkeypatch):
    built = [0]
    inner = criterion.PrimeVerdict.__post_init__

    def counting(self):
        built[0] += 1
        inner(self)

    monkeypatch.setattr(criterion.PrimeVerdict, "__post_init__", counting)
    _, records = scan(1105, 20000, workers=1)
    assert len(records) > 1000
    assert built[0] == len(records)


def test_several_workers_need_fork(monkeypatch):
    monkeypatch.setattr(experiment, "get_all_start_methods", lambda: ["spawn"])
    with pytest.raises(PreconditionViolated, match="fork"):
        scan(65, 20000, workers=2)
    _, records = scan(65, 2000, workers=1)
    assert records


def test_checkpoint_header_records_the_package_version(tmp_path, monkeypatch):
    ck = tmp_path / "scan.log"
    scan(65, 1000, checkpoint=str(ck), seed=7)
    version = unitindex.__version__.encode()
    head = experiment._MAGIC + bytes([3]) + struct.pack(">QQIH", 65, 1000, 7, len(version)) + version
    assert ck.read_bytes().startswith(head)
    monkeypatch.setattr(experiment, "__version__", unitindex.__version__ + ".post1")
    with pytest.raises(PreconditionViolated, match="refusing to mix"):
        scan(65, 1000, checkpoint=str(ck), seed=7)


def test_checkpoint_refuses_version_2_files(tmp_path):
    # the version-2 header had no package version; with and without records
    v2 = experiment._MAGIC + bytes([2]) + struct.pack(">QQI", 65, 1000, 0)
    blob = b'{"E_real":true,"Q_direct":2,"Q_governing":2,"a":5,"alarms":[],"b":13,"in_P":true,"m":0,"p":37,"reason":""}'
    for body in (v2, v2 + struct.pack(">I", len(blob)) + blob):
        ck = tmp_path / "old.log"
        ck.write_bytes(body)
        with pytest.raises(PreconditionViolated, match="unsupported checkpoint version 2"):
            scan(65, 1000, checkpoint=str(ck))
        assert ck.read_bytes() == body


def reference_csv(summary, records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for rec in records:
        writer.writerow(_cell(rec[k]) for k in _CSV_FIELDS)
    if records:
        buf.write("\n")
        writer.writerow(_SUMMARY_FIELDS)
        for row in summary.rows:
            data = asdict(row)
            writer.writerow(_cell(data[k]) for k in _SUMMARY_FIELDS)
    return buf.getvalue()


def reference_json(summary, records):
    doc = {
        "schema_version": 1,
        "d": summary.d,
        "X": summary.X,
        "t": summary.t,
        "records": records,
        "summary": [asdict(row) for row in summary.rows],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def logged_blobs(path):
    data = path.read_bytes()
    at = len(experiment._MAGIC) + 1 + experiment._HEADER.size
    at += experiment._HEADER.unpack(data[len(experiment._MAGIC) + 1 : at])[-1]
    blobs = []
    while at < len(data):
        (n,) = struct.unpack(">I", data[at : at + 4])
        blobs.append(data[at + 4 : at + 4 + n])
        at += 4 + n
    return blobs


def generated_records(base):
    text = 'quote " backslash \\ newline \n tab \t \u00e9\u2211 "p": 0, comma'
    shapes = [
        {k: None for k in base},
        {**base, "in_P": True, "E_real": False},
        {**base, "in_P": 1, "E_real": 0},  # equal to the line above, but not in JSON
        {**base, "in_P": False, "E_real": True, "Q_direct": True},
        {**base, "in_P": 0, "E_real": 1, "Q_direct": 1},
        {**base, "a": 5.0, "b": 13},
        {**base, "alarms": ["route disagreement: direct 1, governing 2", "construction check: x", "third"]},
        {**base, "reason": text, "alarms": [text, '"p": 0', "\\", ""]},
        dict(sorted({**base, "alarms": ["one"]}.items())),  # key order as a checkpoint load gives it
    ]
    ps = [5, 13, 101, 9973, 1000003, 10**12 + 39]
    return [{**shape, "p": p} for p in ps for shape in shapes]


def test_renderers_match_the_stdlib(tmp_path):
    summary, base = scan(65, 300)
    filtered = scan(1105, 3000, m_filter=frozenset({1, 3}))
    cases = [
        (summary, generated_records(base[0])),
        (summary, base),
        filtered,
        scan(65, 5),  # no records
    ]
    assert filtered[1] and cases[-1][1] == []
    for i, (summary, records) in enumerate(cases):
        assert render_json(summary, records) == reference_json(summary, records)
        assert render_csv(summary, records) == reference_csv(summary, records)
        ck = tmp_path / f"case{i}.log"
        log = experiment._CheckpointLog(ScanConfig(d=65, X=300, checkpoint=str(ck)))
        log.append(records[: len(records) // 2])
        log.append(records[len(records) // 2 :])
        compact = [json.dumps(r, sort_keys=True, separators=(",", ":")).encode() for r in records]
        assert logged_blobs(ck) == compact
        assert experiment._CheckpointLog(ScanConfig(d=65, X=300, checkpoint=str(ck))).records == [
            json.loads(b) for b in compact
        ]


def test_summarize_matches_per_m_passes():
    _, records = scan(1105, 5000)
    for m_filter in (None, frozenset({0, 3}), frozenset({7})):
        rows = summarize(records, 1105, 5000, m_filter).rows
        assert [row.m for row in rows] == sorted(m_filter or range(4))
        for row in rows:
            sub = [r for r in records if r["m"] == row.m]
            assert row.n_total == len(sub)
            assert row.n_in_P == sum(1 for r in sub if r["in_P"])
            assert row.n_E_real == sum(1 for r in sub if r["E_real"])
            assert row.n_Q2 == sum(1 for r in sub if r["Q_direct"] == 2)


def test_render_and_append_dump_once_per_shape(tmp_path, monkeypatch):
    summary, records = scan(1105, 20000)
    shapes = len({json.dumps({**r, "p": 0}) for r in records})
    assert len(records) > 20 * shapes
    calls = [0]
    inner = json.dumps

    def counting(*args, **kw):
        calls[0] += 1
        return inner(*args, **kw)

    monkeypatch.setattr(experiment.json, "dumps", counting)
    render_json(summary, records)
    assert calls[0] <= 2 * shapes + 1, (calls[0], shapes)
    calls[0] = 0
    experiment._CheckpointLog(ScanConfig(d=1105, X=20000, checkpoint=str(tmp_path / "scan.log"))).append(records)
    assert calls[0] <= 2 * shapes, (calls[0], shapes)
