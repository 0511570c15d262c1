import importlib
import json
import math
import os
import pkgutil
import struct

import pytest

import unitindex
from unitindex import arith, criterion, experiment
from unitindex.arith import primes_in_range
from unitindex.errors import PreconditionViolated
from unitindex.experiment import (
    ScanConfig,
    hypothesis_failure,
    render_csv,
    render_json,
    report,
    run_scan,
    summarize,
)
from unitindex.qfclassgroup import verify_hypotheses


def scan(d, X, **kw):
    return run_scan(ScanConfig(d=d, X=X, **kw))


def by_p(records):
    return {r["p"]: r for r in records}


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
    with open(ck, "ab") as fh:
        fh.write(struct.pack(">I", 500) + b'{"p": 9')  # claims 500 bytes, has 8
    s2, r2 = scan(65, 800, checkpoint=ck)
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


def test_construction_sample_share_is_about_one_in_64_for_every_seed():
    candidates = [p for p in primes_in_range(5, 200000) if p % 4 == 1]
    n, share = len(candidates), 1 / 64
    bound = 4 * math.sqrt(n * share * (1 - share))  # four binomial sigmas
    for seed in range(8):
        hits = sum(1 for p in candidates if experiment._sampled(p, seed))
        assert abs(hits - n * share) <= bound, (seed, hits, n)


def test_scan_splits_each_prime_once_and_fills_tables_per_split_set(monkeypatch):
    # counted at the names criterion calls; find_decomposition's own
    # internal split happens inside the bounded table fills
    calls = {
        "ordered_factors": 0,
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
        assert calls["ordered_factors"] == len(records) > 1000
        assert chunks[0] > 1
        for name in ("redei_rank4", "find_decomposition", "quartic_cross_product"):
            assert 0 < calls[name] <= 1 << 3, name
        assert 0 < calls["split_primary"] <= len(factors)


def test_scan_proves_each_prime_about_once(monkeypatch):
    # counted at every module that binds is_prime, so no caller is missed;
    # what remains above one call per candidate is the per-scan table fills
    # and the sampled construction checks
    calls = [0]
    inner = arith.is_prime

    def counting(n):
        calls[0] += 1
        return inner(n)

    for info in pkgutil.iter_modules(unitindex.__path__):
        module = importlib.import_module(f"unitindex.{info.name}")
        if getattr(module, "is_prime", None) is inner:
            monkeypatch.setattr(module, "is_prime", counting)
    for d in (65, 2371330):
        calls[0] = 0
        _, records = scan(d, 20000, workers=1)
        assert len(records) > 1000
        assert calls[0] < 2.5 * len(records), (d, calls[0], len(records))


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
