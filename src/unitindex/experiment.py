"""Prime scans and density tables for the unit-index criteria.

A scan walks every candidate prime p <= X (p = 1 mod 4, p not dividing d),
evaluates the full verdict, and aggregates per-m density rows against the
predicted limits.  Work is chunked over prime ranges so several workers can
run concurrently; a single merger keeps the record stream in ascending
prime order, which makes the output independent of the worker count.  An
optional JSON Lines checkpoint log makes interrupted scans resumable without
changing a byte of the final report.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from multiprocessing import get_all_start_methods, get_context
from types import SimpleNamespace

from . import __version__
from .arith import factor_squarefree
from .criterion import DContext, PrimeVerdict, evaluate
from .errors import PreconditionViolated
from .qfclassgroup import HypothesisReport, verify_hypotheses

SCHEMA_VERSION = 1

_MAGIC = b"UIDXSCN\x00"  # how the binary logs of versions 2 and 3 began
_LOG_VERSION = 4
_HEAD_MAX = 4096  # bytes read for the header line, which is far shorter
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
    span = max((hi - lo) // (workers * 4) + 1, 1000)
    return [(a, min(a + span - 1, hi)) for a in range(lo, hi + 1, span)]


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parsed(line: bytes):
    """The JSON value of a newline-terminated line; None if it is torn or not JSON."""
    try:
        return json.loads(line) if line.endswith(b"\n") else None
    except ValueError:
        return None


class _CheckpointLog:
    """Append-only JSON Lines record log.

    The first line is the header {"X", "d", "log", "seed", "version"}: the
    scan bound, d, the log version, the low 32 bits of the sampling seed
    (all that _sampled reads) and the package version.  Each later line is
    one record as compact sorted-key JSON.  On open, the log is cut back at
    the first line that is torn (from a killed scan), not JSON or not a
    record.
    """

    def __init__(self, cfg: ScanConfig):
        self.path = cfg.checkpoint
        head = {"X": cfg.X, "d": cfg.d, "log": _LOG_VERSION, "seed": cfg.seed & 0xFFFFFFFF, "version": __version__}
        self.header = f"{_compact(head)}\n".encode()
        self.records: list[dict] = []
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            self._load()
        else:
            with open(self.path, "wb") as fh:
                fh.write(self.header)

    def _load(self):
        with open(self.path, "rb") as fh:
            first = fh.readline(_HEAD_MAX)
            if first.startswith(_MAGIC) and len(first) > len(_MAGIC):
                raise PreconditionViolated(f"unsupported checkpoint version {first[len(_MAGIC)]}")
            head = _parsed(first)
            if type(head) is not dict or head.keys() != {"X", "d", "log", "seed", "version"}:
                raise PreconditionViolated(f"{self.path} is not a scan checkpoint")
            if head["log"] != _LOG_VERSION:
                raise PreconditionViolated(f"unsupported checkpoint version {head['log']}")
            if first != self.header:
                raise PreconditionViolated(
                    f"checkpoint was written for d = {head['d']}, X = {head['X']}, seed = {head['seed']} "
                    f"by unitindex {head['version']}; refusing to mix scans"
                )
            good_end = len(first)
            for line in fh:
                rec = _parsed(line)
                if type(rec) is not dict or rec.keys() != _RECORD_KEYS or type(rec["p"]) is not int:
                    break  # torn, not JSON, or JSON but not a record: cut it back
                self.records.append(rec)
                good_end += len(line)
        if good_end < os.path.getsize(self.path):
            with open(self.path, "r+b") as fh:
                fh.truncate(good_end)

    def append(self, records: list[dict]):
        with open(self.path, "ab") as fh:
            fh.write("".join(f"{row}\n" for row in _rows(records, _compact)).encode())
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
    pool = get_context("fork").Pool(min(cfg.workers, len(args))) if cfg.workers > 1 and len(args) > 1 else None
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
_SUMMARY_FIELDS = [f.name for f in fields(DensityRow)]


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
