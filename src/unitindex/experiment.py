"""Prime scans and density tables for the unit-index criteria.

A scan walks every candidate prime p <= X (p = 1 mod 4, p not dividing d),
evaluates the full verdict, and aggregates per-m density rows against the
predicted limits.  Work is chunked over prime ranges so several workers can
run concurrently; a single merger keeps the record stream in ascending
prime order, which makes the output independent of the worker count.  An
optional binary checkpoint log makes interrupted scans resumable without
changing a byte of the final report.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
from dataclasses import asdict, dataclass
from multiprocessing import get_context

from .arith import factor_squarefree, primes_in_range
from .criterion import DContext, PrimeVerdict, evaluate
from .errors import PreconditionViolated
from .qfclassgroup import HypothesisReport, verify_hypotheses

SCHEMA_VERSION = 1

_MAGIC = b"UIDXSCN\x00"
_LOG_VERSION = 1
_SAMPLE_MOD = 64  # about one construction cross-check per this many primes


@dataclass(frozen=True)
class ScanConfig:
    """Validated settings for one scan."""

    d: int
    X: int
    m_filter: frozenset[int] | None = None
    workers: int = 1
    out: str | None = None
    fmt: str = "csv"
    checkpoint: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.X < 5:
            raise PreconditionViolated(f"X = {self.X} is below the smallest candidate prime")
        if self.workers < 1:
            raise PreconditionViolated("workers must be at least 1")
        if self.fmt not in ("csv", "json"):
            raise PreconditionViolated(f"format must be csv or json, got {self.fmt!r}")
        if self.m_filter is not None:
            object.__setattr__(self, "m_filter", frozenset(self.m_filter))


@dataclass(frozen=True)
class DensityRow:
    """Aggregates for one value of m, with the predicted limit frequencies."""

    m: int
    n_total: int
    n_in_P: int
    n_E_real: int
    n_Q2: int
    freq_Q2: float | None
    theory_Q2: float | None
    freq_E_real: float | None
    theory_E_real: float

    def __post_init__(self):
        if not (0 <= self.n_Q2 <= self.n_in_P <= self.n_total):
            raise PreconditionViolated(f"inconsistent counts in {self}")
        if self.n_E_real > self.n_total:
            raise PreconditionViolated(f"inconsistent counts in {self}")
        for f in (self.freq_Q2, self.freq_E_real, self.theory_Q2, self.theory_E_real):
            if f is not None and not 0 <= f <= 1:
                raise PreconditionViolated(f"frequency {f} out of range")


@dataclass(frozen=True)
class DensitySummary:
    d: int
    X: int
    t: int
    rows: tuple[DensityRow, ...]


def hypothesis_failure(report: HypothesisReport) -> str | None:
    """Human-readable name of the first failed hypothesis, None if all hold."""
    if report.passed:
        return None
    if not report.admissible:
        return f"d = {report.d.d} has a prime factor that is 3 (mod 4)"
    if report.rank4_matrix != 0:
        return f"narrow class group of d = {report.d.d} has 4-rank {report.rank4_matrix}, not 0"
    if not report.agree:
        return (
            f"4-rank disagreement for d = {report.d.d}: matrix {report.rank4_matrix}, "
            f"oracle {report.rank4_oracle}"
        )
    return f"d = {report.d.d} failed validation"  # pragma: no cover


def _sampled(p: int, seed: int) -> bool:
    # p = 1 (mod 4) fixes the low bits of p, so hash p >> 2 and read the
    # well-mixed high bits of the product
    h = ((p >> 2) * 2654435761 + seed * 40503) & 0xFFFFFFFF
    return (h >> 16) % _SAMPLE_MOD == 0


def record_of(v: PrimeVerdict) -> dict:
    """Flat, JSON-ready form of a verdict; the CSV row uses the same keys."""
    return {
        "p": v.p,
        "m": v.m,
        "in_P": v.in_P,
        "reason": v.reason,
        "E_real": v.e_totally_real,
        "Q_direct": v.q_direct,
        "Q_governing": v.q_governing,
        "a": v.decomposition.a if v.decomposition else None,
        "b": v.decomposition.b if v.decomposition else None,
        "alarms": list(v.alarms),
    }


def _scan_chunk(args: tuple[int, int, int, int]) -> list[dict]:
    d, lo, hi, seed = args
    ctx = DContext(factor_squarefree(d))
    out = []
    for p in primes_in_range(lo, hi):
        if p % 4 != 1 or d % p == 0:
            continue
        v = evaluate(ctx, p, construction_check=_sampled(p, seed))
        out.append(record_of(v))
    return out


def _chunk_ranges(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    if hi < lo:
        return []
    pieces = max(workers * 4, 1)
    span = max((hi - lo) // pieces + 1, 1000)
    ranges = []
    a = lo
    while a <= hi:
        b = min(a + span - 1, hi)
        ranges.append((a, b))
        a = b + 1
    return ranges


class _CheckpointLog:
    """Append-only length-prefixed record log with a magic header.

    Layout: 8-byte magic, one version byte, big-endian u64 d and u64 X,
    then records, each a big-endian u32 byte length followed by compact
    JSON.  A torn tail (from a killed scan) is truncated on open.
    """

    def __init__(self, path: str, d: int, X: int):
        self.path = path
        self.d = d
        self.X = X
        self.records: list[dict] = []
        if os.path.exists(path) and os.path.getsize(path) > 0:
            self._load()
        else:
            with open(path, "wb") as fh:
                fh.write(_MAGIC + bytes([_LOG_VERSION]) + struct.pack(">QQ", d, X))

    def _load(self):
        with open(self.path, "rb") as fh:
            head = fh.read(len(_MAGIC) + 1 + 16)
            if len(head) < len(_MAGIC) + 1 + 16 or not head.startswith(_MAGIC):
                raise PreconditionViolated(f"{self.path} is not a scan checkpoint")
            if head[len(_MAGIC)] != _LOG_VERSION:
                raise PreconditionViolated(f"unsupported checkpoint version {head[len(_MAGIC)]}")
            d, X = struct.unpack(">QQ", head[len(_MAGIC) + 1 :])
            if (d, X) != (self.d, self.X):
                raise PreconditionViolated(
                    f"checkpoint was written for d = {d}, X = {X}; refusing to mix scans"
                )
            good_end = fh.tell()
            while True:
                prefix = fh.read(4)
                if len(prefix) < 4:
                    break
                (n,) = struct.unpack(">I", prefix)
                blob = fh.read(n)
                if len(blob) < n:
                    break
                try:
                    rec = json.loads(blob)
                except ValueError:
                    break
                self.records.append(rec)
                good_end = fh.tell()
        if good_end < os.path.getsize(self.path):
            with open(self.path, "r+b") as fh:
                fh.truncate(good_end)

    def append(self, records: list[dict]):
        with open(self.path, "ab") as fh:
            for rec in records:
                blob = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
                fh.write(struct.pack(">I", len(blob)) + blob)
            fh.flush()
            os.fsync(fh.fileno())


def summarize(records: list[dict], d: int, X: int, m_filter=None) -> DensitySummary:
    """Per-m density rows over a finished record stream."""
    t = factor_squarefree(d).t
    ms = range(t + 1) if m_filter is None else sorted(m_filter)
    rows = []
    for m in ms:
        sub = [r for r in records if r["m"] == m]
        n_total = len(sub)
        n_in = sum(1 for r in sub if r["in_P"])
        n_e = sum(1 for r in sub if r["E_real"])
        n_q2 = sum(1 for r in sub if r["Q_direct"] == 2)
        in_window = m in (t - 1, t - 2) and m >= 0
        rows.append(
            DensityRow(
                m=m,
                n_total=n_total,
                n_in_P=n_in,
                n_E_real=n_e,
                n_Q2=n_q2,
                freq_Q2=(n_q2 / n_in) if in_window and n_in else None,
                theory_Q2=1 / (1 << (t - 1)) if in_window else None,
                freq_E_real=(n_e / n_total) if n_total else None,
                theory_E_real=1 / (1 << m),
            )
        )
    return DensitySummary(d=d, X=X, t=t, rows=tuple(rows))


def run_scan(cfg: ScanConfig) -> tuple[DensitySummary, list[dict]]:
    """Evaluate every candidate prime up to cfg.X and aggregate densities.

    Refuses to start unless verify_hypotheses accepts cfg.d.  The record
    list is always in ascending prime order, whatever cfg.workers says, and
    a checkpoint (if configured) is extended as chunks complete.
    """
    failure = hypothesis_failure(verify_hypotheses(cfg.d))
    if failure is not None:
        raise PreconditionViolated(failure)

    log = _CheckpointLog(cfg.checkpoint, cfg.d, cfg.X) if cfg.checkpoint else None
    records: list[dict] = list(log.records) if log else []
    lo = records[-1]["p"] + 1 if records else 5
    ranges = _chunk_ranges(lo, cfg.X, cfg.workers)
    args = [(cfg.d, a, b, cfg.seed) for a, b in ranges]

    if cfg.workers == 1 or len(args) <= 1:
        chunks = map(_scan_chunk, args)
        for chunk in chunks:
            records.extend(chunk)
            if log:
                log.append(chunk)
    else:
        with get_context("fork").Pool(cfg.workers) as pool:
            for chunk in pool.imap(_scan_chunk, args):
                records.extend(chunk)
                if log:
                    log.append(chunk)

    if cfg.m_filter is not None:
        records = [r for r in records if r["m"] in cfg.m_filter]
    summary = summarize(records, cfg.d, cfg.X, cfg.m_filter)
    return summary, records


_CSV_FIELDS = ["p", "m", "in_P", "reason", "E_real", "Q_direct", "Q_governing", "a", "b", "alarms"]
_SUMMARY_FIELDS = [
    "m",
    "n_total",
    "n_in_P",
    "n_E_real",
    "n_Q2",
    "freq_Q2",
    "theory_Q2",
    "freq_E_real",
    "theory_E_real",
]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, list):
        return "; ".join(value)
    return str(value)


def render_csv(summary: DensitySummary, records: list[dict]) -> str:
    """RFC-4180-style table of records, then a blank line and the summary."""
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


def render_json(summary: DensitySummary, records: list[dict]) -> str:
    """The same content as the CSV, as one sorted-key JSON document."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": summary.d,
        "X": summary.X,
        "t": summary.t,
        "records": records,
        "summary": [asdict(row) for row in summary.rows],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def report(summary: DensitySummary, records: list[dict], cfg: ScanConfig) -> str:
    """Render in the configured format and write to cfg.out if set."""
    text = render_csv(summary, records) if cfg.fmt == "csv" else render_json(summary, records)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
