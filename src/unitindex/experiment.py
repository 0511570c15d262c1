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
import json
import math
import os
import struct
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from multiprocessing import get_all_start_methods, get_context
from types import SimpleNamespace

from . import __version__
from .arith import factor_squarefree
from .criterion import DContext, PrimeVerdict, evaluate
from .errors import PreconditionViolated
from .qfclassgroup import HypothesisReport, verify_hypotheses

SCHEMA_VERSION = 1

_MAGIC = b"UIDXSCN\x00"
_LOG_VERSION = 3
_HEADER = struct.Struct(">QQIH")  # d, X, low 32 bits of the seed, package version length
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
            if min(self.m_filter, default=0) < 0:
                raise PreconditionViolated(f"m must be nonnegative, got {min(self.m_filter)}")
        if self.checkpoint and max(self.d, self.X) >> 64:
            # the checkpoint header stores d and X as unsigned 64-bit integers
            raise PreconditionViolated("a checkpoint needs d and X below 2^64")


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


@lru_cache(maxsize=1)
def _context(d: int) -> DContext:
    """This process's context for the running scan; run_scan clears it first."""
    return DContext(factor_squarefree(d))


def _scan_chunk(args: tuple[int, int, int, int]) -> tuple[list[dict], list[tuple[int, int]]]:
    """The records of the candidates in [lo, hi], as one per shape and (p, index into those) pairs."""
    d, lo, hi, seed = args
    ctx = _context(d)
    ids, shapes, pairs = {}, [], []
    for p in ctx.candidates(lo, hi):
        v = evaluate(ctx, p, construction_check=_sampled(p, seed))
        ab = v.decomposition and (v.decomposition.a, v.decomposition.b)
        key = (v.m, v.in_P, v.reason, v.e_totally_real, v.q_direct, v.q_governing, ab, v.alarms)
        if key not in ids:
            ids[key] = len(shapes)
            shapes.append(record_of(v))
        pairs.append((p, ids[key]))
    return shapes, pairs


class _Records(list):
    """Records in ascending prime order, with the shape of each kept apart.

    A shape is the keys and the repr of every value but p (so True and 1
    differ).  ids[k] is the k-th record's index into shapes, which holds the
    first record seen with each shape.  Treat the list as read-only.
    """

    def __init__(self, records: list[dict], shapes: list[dict], ids: list[int]):
        super().__init__()
        self.shapes, self.ids, self._index = [], [], {}
        self.add(records, shapes, ids)

    def add(self, records: list[dict], shapes: list[dict], ids: list[int]):
        """Append records, where records[k] has the shape of shapes[ids[k]]."""
        new = []
        for shape in shapes:
            key = (*shape, *map(repr, {**shape, "p": 0}.values()))
            new.append(self._index.setdefault(key, len(self._index)))
            if new[-1] == len(self.shapes):
                self.shapes.append(shape)
        self.ids += [new[i] for i in ids]
        self.extend(records)


def _shaped(records: list[dict]) -> _Records:
    return records if isinstance(records, _Records) else _Records(records, records, range(len(records)))


def _chunk_ranges(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    pieces = workers * 4
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

    Layout: 8-byte magic, one version byte, big-endian u64 d, u64 X,
    u32 sampling seed (the low 32 bits, all that _sampled reads) and the
    package version as a u16 length and UTF-8 text, then records, each a
    big-endian u32 byte length followed by compact JSON.  A torn tail
    (from a killed scan) is truncated on open.
    """

    def __init__(self, cfg: ScanConfig):
        self.path = cfg.checkpoint
        self.header = (cfg.d, cfg.X, cfg.seed & 0xFFFFFFFF, __version__.encode())
        self.records: list[dict] = []
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            self._load()
        else:
            with open(self.path, "wb") as fh:
                fh.write(_MAGIC + bytes([_LOG_VERSION]) + _HEADER.pack(*self.header[:3], len(self.header[3])))
                fh.write(self.header[3])

    def _load(self):
        with open(self.path, "rb") as fh:
            head = fh.read(len(_MAGIC) + 1 + _HEADER.size)
            if len(head) > len(_MAGIC) and head.startswith(_MAGIC) and head[len(_MAGIC)] != _LOG_VERSION:
                raise PreconditionViolated(f"unsupported checkpoint version {head[len(_MAGIC)]}")
            if len(head) < len(_MAGIC) + 1 + _HEADER.size or not head.startswith(_MAGIC):
                raise PreconditionViolated(f"{self.path} is not a scan checkpoint")
            d, X, seed, n = _HEADER.unpack(head[len(_MAGIC) + 1 :])
            version = fh.read(n)
            if (d, X, seed, version) != self.header:
                raise PreconditionViolated(
                    f"checkpoint was written for d = {d}, X = {X}, seed = {seed} by unitindex "
                    f"{version.decode(errors='replace')}; refusing to mix scans"
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
                if type(rec) is not dict or rec.keys() != _RECORD_KEYS or type(rec["p"]) is not int:
                    break  # JSON, but not a record: cut it back like a torn tail
                self.records.append(rec)
                good_end = fh.tell()
        if good_end < os.path.getsize(self.path):
            with open(self.path, "r+b") as fh:
                fh.truncate(good_end)

    def append(self, records: list[dict]):
        with open(self.path, "ab") as fh:
            for row in _rows(records, partial(json.dumps, sort_keys=True, separators=(",", ":"))):
                blob = row.encode()
                fh.write(struct.pack(">I", len(blob)) + blob)
            fh.flush()
            os.fsync(fh.fileno())


def summarize(records: list[dict], d: int, X: int, m_filter=None) -> DensitySummary:
    """Per-m density rows over a finished record stream."""
    t = factor_squarefree(d).t
    ms = range(t + 1) if m_filter is None else sorted(m_filter)
    counts = {m: [0, 0, 0, 0] for m in ms}  # n_total, n_in_P, n_E_real, n_Q2
    shaped = _shaped(records)
    for i, n in Counter(shaped.ids).items():
        r = shaped.shapes[i]
        c = counts.get(r["m"])
        if c is not None:
            c[0] += n
            c[1] += n * bool(r["in_P"])
            c[2] += n * bool(r["E_real"])
            c[3] += n * (r["Q_direct"] == 2)
    rows = []
    for m, (n_total, n_in, n_e, n_q2) in counts.items():
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
                theory_E_real=math.ldexp(1.0, -m),
            )
        )
    return DensitySummary(d=d, X=X, t=t, rows=tuple(rows))


def run_scan(cfg: ScanConfig) -> tuple[DensitySummary, list[dict]]:
    """Evaluate every candidate prime up to cfg.X and aggregate densities.

    Refuses to start unless verify_hypotheses accepts cfg.d, and refuses
    several workers where the platform cannot fork.  The record list is
    always in ascending prime order, whatever cfg.workers says, and a
    checkpoint (if configured) is extended as chunks complete.
    """
    if cfg.workers > 1 and "fork" not in get_all_start_methods():
        raise PreconditionViolated("workers > 1 needs the fork start method, which this platform lacks")
    failure = hypothesis_failure(verify_hypotheses(cfg.d))
    if failure is not None:
        raise PreconditionViolated(failure)

    log = _CheckpointLog(cfg) if cfg.checkpoint else None
    records = _shaped(log.records if log else [])
    lo = records[-1]["p"] + 1 if records else 5
    ranges = _chunk_ranges(lo, cfg.X, cfg.workers)
    args = [(cfg.d, a, b, cfg.seed) for a, b in ranges]

    _context.cache_clear()
    _context(cfg.d).fill(lo, cfg.X)  # forked workers inherit the filled tables
    pool = get_context("fork").Pool(cfg.workers) if cfg.workers > 1 and len(args) > 1 else None
    with pool or nullcontext():
        for shapes, pairs in (pool.imap if pool else map)(_scan_chunk, args):
            chunk = _Records([{**shapes[i], "p": p} for p, i in pairs], shapes, [i for _, i in pairs])
            records.add(chunk, chunk.shapes, chunk.ids)
            if log:
                log.append(chunk)

    if cfg.m_filter is not None:
        keep = [shape["m"] in cfg.m_filter for shape in records.shapes]
        kept = [rec for rec, i in zip(records, records.ids) if keep[i]]
        records = _Records(kept, records.shapes, [i for i in records.ids if keep[i]])
    summary = summarize(records, cfg.d, cfg.X, cfg.m_filter)
    return summary, records


_CSV_FIELDS = ["p", "m", "in_P", "reason", "E_real", "Q_direct", "Q_governing", "a", "b", "alarms"]
_RECORD_KEYS = frozenset(_CSV_FIELDS)
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


def _rows(records: list[dict], dump) -> list[str]:
    """dump(rec) for every record, from one template per shape that only p's digits are filled into."""
    shaped = _shaped(records)
    templates = []
    for shape in shaped.shapes:
        zero, one = dump({**shape, "p": 0}), dump({**shape, "p": 1})
        cut = len(os.path.commonprefix((zero, one)))
        templates.append((zero[:cut], zero[cut + 1 :]))
    return [f"{templates[i][0]}{rec['p']}{templates[i][1]}" for rec, i in zip(shaped, shaped.ids)]


def render_csv(summary: DensitySummary, records: list[dict]) -> str:
    """RFC-4180-style table of records, then a blank line and the summary."""
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n")  # writerow returns the line
    rows = _rows(records, lambda rec: line.writerow([_cell(rec[k]) for k in _CSV_FIELDS]))
    lines = [line.writerow(_CSV_FIELDS), *rows]
    if records:
        lines.append("\n" + line.writerow(_SUMMARY_FIELDS))
        lines += (line.writerow(_cell(getattr(row, k)) for k in _SUMMARY_FIELDS) for row in summary.rows)
    return "".join(lines)


def render_json(summary: DensitySummary, records: list[dict]) -> str:
    """The same content as the CSV, as one sorted-key JSON document."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": summary.d,
        "X": summary.X,
        "t": summary.t,
        "records": [],
        "summary": [asdict(row) for row in summary.rows],
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # rows sit two levels deep: "records" is a key of the top-level object
    rows = _rows(records, lambda rec: json.dumps(rec, sort_keys=True, indent=2).replace("\n", "\n    "))
    body = ",\n    ".join(rows)
    return text.replace('"records": []', f'"records": [\n    {body}\n  ]', 1) if records else text


def report(summary: DensitySummary, records: list[dict], cfg: ScanConfig) -> str:
    """Render in the configured format and write to cfg.out if set."""
    text = render_csv(summary, records) if cfg.fmt == "csv" else render_json(summary, records)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
