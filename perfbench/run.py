"""Benchmark of the unitindex prime scan and its construction check.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The workloads and metrics are listed in BENCHMARK.json and described in
perfbench/README.md.  Every repetition runs in a fresh Python process that
imports the package from ``src/``; nothing is installed.  The last line of
standard output is the result object; the line before it records the
environment, the repetition count and the sample counts behind each
percentile.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a traced run next to an untraced one.
``--smoke`` runs every workload here at a tiny size in both modes and checks
that each metric of BENCHMARK.json is present with its unit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

_now = time.perf_counter_ns
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "unitindex")

# X is the scan bound before the seed's jitter; the jitter adds up to 0.5%
# so every seed scans a different range with the same amount of work.
# BENCHMARK.json lists scan-65-w2-ckpt and construct only: on a shared
# 2-CPU virtual machine a run must last about a minute to average out slow
# phases of the host, and the time budget for a full set of runs allows two
# such workloads.  The 1-worker scans stay here for runs by hand and in
# --smoke.
WORKLOADS = {
    "scan-1105-w1": {"kind": "scan", "d": 1105, "X": 100_000, "workers": 1, "fmt": "csv", "checkpoint": False},
    "scan-65-w2-ckpt": {"kind": "scan", "d": 65, "X": 200_000, "workers": 2, "fmt": "json", "checkpoint": True},
    "scan-t6-even-w1": {"kind": "scan", "d": 2371330, "X": 100_000, "workers": 1, "fmt": "csv", "checkpoint": False},
    # (pool in members.json, how many of its first members to take)
    "construct": {"kind": "construct", "draws": [("1105@1e7", 60), ("1185665@1e6", 1), ("1185665@1.5e6", 1)]},
}
SMOKE = {
    "scan-1105-w1": {"X": 3000},
    "scan-65-w2-ckpt": {"X": 6000},
    "scan-t6-even-w1": {"X": 3000},
    "construct": {"draws": [("1105@1e3", 6), ("1185665@1e4", 2)]},
}
# the CLI's default sampling seed; see README.md on why scans keep it
SCAN_SEED = 0
SETUP_PROBES = 12

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "us_per_prime": "us",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# per-layer metric -> (unit, traced function or seam, quantity); a time is
# inclusive: it counts what the function calls, once per outermost call
LAYER_SOURCES = {
    "arith.primes_in_range.s": ("s", "arith.primes_in_range", "time"),
    "arith.is_prime.s": ("s", "arith.is_prime", "time"),
    "arith.is_prime.calls": ("count", "arith.is_prime", "calls"),
    "arith.is_prime.calls_per_prime": ("calls/prime", "arith.is_prime", "per_prime"),
    "arith.jacobi.s": ("s", "arith.jacobi", "time"),
    "redei.ordered_factors.calls_per_prime": ("calls/prime", "redei.ordered_factors", "per_prime"),
    "redei.redei_rank4.s": ("s", "redei.redei_rank4", "time"),
    "criterion.classify.s": ("s", "criterion.classify", "time"),
    "criterion.e_totally_real.s": ("s", "criterion.e_totally_real", "time"),
    "criterion.evaluate.s": ("s", "criterion.evaluate", "time"),
    "symbols.fpr.s": ("s", "symbols.fpr", "time"),
    "symbols.fpr.calls": ("count", "symbols.fpr", "calls"),
    "symbols.fpr.calls_per_prime": ("calls/prime", "symbols.fpr", "per_prime"),
    "symbols.hilbert.s": ("s", "symbols.hilbert", "time"),
    "symbols.quartic_cross_product.s": ("s", "symbols.quartic_cross_product", "time"),
    "gaussian.split_primary.s": ("s", "gaussian.split_primary", "time"),
    "gaussian.quad_symbol.s": ("s", "gaussian.quad_symbol", "time"),
    "construction.find_decomposition.s": ("s", "construction.find_decomposition", "time"),
    "construction.find_decomposition.calls": ("count", "construction.find_decomposition", "calls"),
    "construction.solve_legendre.s": ("s", "construction.solve_legendre", "time"),
    "construction.solve_legendre.calls": ("count", "construction.solve_legendre", "calls"),
    "construction.solve_legendre.fail_share": ("share", "construction.solve_legendre", "raised_share"),
    "construction.normalize_solution.s": ("s", "construction.normalize_solution", "time"),
    "construction.totally_real.s": ("s", "construction.totally_real", "time"),
    "quadfield.pell_negative_unit.s": ("s", "quadfield.pell_negative_unit", "time"),
    "qfclassgroup.verify_hypotheses.s": ("s", "qfclassgroup.verify_hypotheses", "time"),
    "experiment.pool_wait.s": ("s", "experiment.pool_wait", "time"),
    "experiment.chunks": ("count", "experiment.chunk", "calls"),
    "experiment.worker_cpu_s": ("s", "experiment.chunk", "extra_s"),
    "experiment.checkpoint_append.s": ("s", "experiment.checkpoint_append", "time"),
    "experiment.checkpoint_append.bytes": ("B", "experiment.checkpoint_append", "extra"),
    "experiment.checkpoint_load.s": ("s", "experiment.checkpoint_load", "time"),
    "experiment.summarize.s": ("s", "experiment.summarize", "time"),
    "experiment.render.s": ("s", ("experiment.render_csv", "experiment.render_json"), "time"),
    "experiment.render.bytes": ("B", ("experiment.render_csv", "experiment.render_json"), "extra"),
}
# per-layer metrics measured around the traced calls rather than inside them
RUN_LEVEL = {"resume_s": "s", "fail_share": "share", "untraced_share": "share", "trace_overhead": "share"}
PER_LAYER = {name: unit for name, (unit, _, _) in LAYER_SOURCES.items()} | RUN_LEVEL

TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9, 99.99)
# a run must end within 180 s whatever happens to its children
RUN_DEADLINE_S = 170


class GateFailure(Exception):
    """An output of the program is wrong; the run reports correct = false."""


# -- inputs -------------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def scan_bound(workload: str, X0: int, seed: int) -> int:
    return X0 + _rng(workload, seed).randrange(max(X0 // 200, 1))


def construct_members(workload: str, draws, seed: int) -> list[list[int]]:
    """[[d, p], ...]: the first members of each pool, in an order the seed shuffles.

    Every seed evaluates the same members.  Drawing a random subset instead
    moved wall_s and op_p50_ms by 10-12% (quartile spread over five seeds),
    because member costs differ by up to 8x; the order is what the seed varies.
    """
    with open(os.path.join(HERE, "members.json"), encoding="utf-8") as fh:
        pools = json.load(fh)["pools"]
    members = [[pools[name]["d"], p] for name, first in draws for p in pools[name]["members"][:first]]
    _rng(workload, seed).shuffle(members)
    return members


def _factor(d: int) -> list[int]:
    out, q = [], 2
    while q * q <= d:
        if d % q == 0:
            out.append(q)
            d //= q
        q += 1
    return out + ([d] if d > 1 else [])


def _primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(n) + 1):
        if flags[q]:
            flags[q * q :: q] = bytearray(len(flags[q * q :: q]))
    return [i for i in range(n + 1) if flags[i]]


def split_count(factors: list[int], p: int) -> int:
    """How many factors of d split in Q(sqrt(p)), for p = 1 (mod 4).

    By reciprocity an odd q splits exactly when p is a square mod q, and
    2 splits exactly when p = 1 (mod 8).
    """
    return sum(p % 8 == 1 if q == 2 else pow(p, (q - 1) // 2, q) == 1 for q in factors)


# -- output checks ------------------------------------------------------------


def _parse_report(path: str, fmt: str) -> tuple[list[dict], list[dict]]:
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    if fmt == "json":
        doc = json.loads(text)
        return doc["records"], doc["summary"]
    head, _, tail = text.partition("\n\n")
    records = []
    for row in csv.DictReader(head.splitlines()):
        records.append(
            {
                "p": int(row["p"]),
                "m": int(row["m"]) if row["m"] else None,
                "in_P": row["in_P"] == "1",
                "reason": row["reason"],
                "E_real": row["E_real"] == "1" if row["E_real"] else None,
                "Q_direct": int(row["Q_direct"]) if row["Q_direct"] else None,
                "Q_governing": int(row["Q_governing"]) if row["Q_governing"] else None,
                "alarms": [a for a in row["alarms"].split("; ") if a],
            }
        )
    summary = [{k: float(v) if "." in v else int(v) if v else None for k, v in row.items()} for row in csv.DictReader(tail.splitlines())]
    return records, summary


def check_scan_report(path: str, fmt: str, d: int, X: int) -> None:
    """Check a scan report against facts the benchmark derives on its own.

    The prime list, each split count m, the agreement of the two index
    routes, and the summary counts are recomputed here without the package.
    """
    records, summary = _parse_report(path, fmt)
    factors = _factor(d)
    t = len(factors)
    want = [p for p in _primes_upto(X) if p % 4 == 1 and d % p]
    got = [r["p"] for r in records]
    if got != want:
        raise GateFailure(f"report lists {len(got)} primes, expected the {len(want)} candidates up to {X}")
    for r in records:
        p = r["p"]
        if r["m"] != split_count(factors, p):
            raise GateFailure(f"p = {p}: m = {r['m']}, expected {split_count(factors, p)}")
        qd, qg = r["Q_direct"], r["Q_governing"]
        if not r["in_P"] and (qd is not None or qg is not None):
            raise GateFailure(f"p = {p}: rejected prime carries an index")
        if qd is not None and qg is not None and qd != qg:
            raise GateFailure(f"p = {p}: direct index {qd}, governing {qg}")
        decided = r["in_P"] and r["m"] in (t - 1, t - 2)
        if decided and not r["alarms"]:
            if qd not in (1, 2):
                raise GateFailure(f"p = {p}: no direct index for a member with m = {r['m']}")
            refusal = d % 2 == 0 and p % 8 == 5 and r["m"] == t - 2
            if qg is None and not refusal:
                raise GateFailure(f"p = {p}: governing route left the index open")
    rows = {row["m"]: row for row in summary}
    for m in range(t + 1):
        sub = [r for r in records if r["m"] == m]
        counts = (
            len(sub),
            sum(r["in_P"] for r in sub),
            sum(bool(r["E_real"]) for r in sub),
            sum(r["Q_direct"] == 2 for r in sub),
        )
        row = rows.get(m)
        if row is None or (row["n_total"], row["n_in_P"], row["n_E_real"], row["n_Q2"]) != counts:
            raise GateFailure(f"summary row m = {m} does not match the records")


def check_construct(verdicts: list, members: list, stable: bool) -> None:
    if not stable:
        raise GateFailure("a member's verdict changed between passes")
    if [[v[0], v[1]] for v in verdicts] != members:
        raise GateFailure("verdicts do not cover the member list")
    for d, p, m, in_p, qd, qg, _ in verdicts:
        factors = _factor(d)
        if not in_p or m != len(factors) - 2 or m != split_count(factors, p):
            raise GateFailure(f"(d, p) = ({d}, {p}) is not a member with m = t - 2")
        if qd not in (1, 2):
            raise GateFailure(f"(d, p) = ({d}, {p}): no direct index")
        if qg is not None and qg != qd:
            raise GateFailure(f"(d, p) = ({d}, {p}): direct index {qd}, governing {qg}")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- processes ----------------------------------------------------------------


class Spawner:
    """Spawns children in a private work directory inside the checkout."""

    def __init__(self):
        self.deadline_ns = _now() + RUN_DEADLINE_S * 10**9
        self.dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
        os.makedirs(self.dir, exist_ok=True)
        self._n = 0

    def path(self, name: str) -> str:
        self._n += 1
        return os.path.join(self.dir, f"{self._n}-{name}")

    def child(self, spec: dict) -> tuple[int, dict]:
        """Run one child to completion; returns (spawn time ns, result)."""
        spec = dict(spec, result=self.path("result.json"))
        spec_path = self.path("spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = dict(os.environ, PYTHONHASHSEED="0")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), spec_path]
        spawn_ns = _now()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL) as proc:
            try:
                code = proc.wait(timeout=max(self.deadline_ns - _now(), 0) / 1e9)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"{spec['mode']} child timed out")
        if code != 0:
            raise RuntimeError(f"{spec['mode']} child exited with {code}")
        with open(spec["result"], encoding="utf-8") as fh:
            return spawn_ns, json.load(fh)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass


# -- statistics ---------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    return max(q for q in TAIL_LADDER if n * (100 - q) / 100 >= 10 or q == 50)


def percentile(sorted_values: list, q: float):
    k = max(math.ceil(q / 100 * len(sorted_values)) - 1, 0)
    return sorted_values[k]


def latency_stats(per_rep: list[list[int]]) -> tuple[float, float, float, int]:
    """p50 and tail in ms over ops, each op taken as its median over repetitions."""
    ops = sorted(statistics.median(col) for col in zip(*per_rep))
    q = tail_percentile(len(ops))
    return percentile(ops, 50) / 1e6, percentile(ops, q) / 1e6, q, len(ops)


def layer_metrics(totals: dict, n_ops: int) -> dict[str, float]:
    out = {}
    for name, (_, source, qty) in LAYER_SOURCES.items():
        keys = source if isinstance(source, tuple) else (source,)
        rows = [totals.get(k, {"incl_ns": 0, "calls": 0, "raised": 0, "extra": 0}) for k in keys]
        calls = sum(r["calls"] for r in rows)
        if qty == "time":
            out[name] = sum(r["incl_ns"] for r in rows) / 1e9
        elif qty == "calls":
            out[name] = calls
        elif qty == "per_prime":
            out[name] = calls / n_ops
        elif qty == "raised_share":
            out[name] = sum(r["raised"] for r in rows) / calls if calls else 0.0
        elif qty == "extra":
            out[name] = sum(r["extra"] for r in rows)
        else:  # extra_s
            out[name] = sum(r["extra"] for r in rows) / 1e9
    return out


def _counts_of(totals: dict) -> dict:
    return {k: (v["calls"], v["raised"]) for k, v in totals.items()}


def _median_metrics(samples: list[dict]) -> dict:
    """Median per metric; a value that repeats exactly keeps its type."""
    out = {}
    for k in samples[0]:
        values = [s[k] for s in samples]
        out[k] = values[0] if values.count(values[0]) == len(values) else statistics.median(values)
    return out


# -- workloads ----------------------------------------------------------------


def run_scan_workload(spawner: Spawner, name: str, wl: dict, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    X = scan_bound(name, wl["X"], seed)
    base = {"mode": "scan", "d": wl["d"], "X": X, "fmt": wl["fmt"], "scan_seed": SCAN_SEED, "trace": False}

    def spec(workers, checkpoint, traced, rep=None):
        out = spawner.path(f"report.{wl['fmt']}")
        return dict(
            base,
            # a 1-worker repetition runs on one CPU; rotate which (child.pin)
            cpu=rep if workers == 1 else None,
            workers=workers,
            out=out,
            checkpoint=spawner.path("scan.ckpt") if checkpoint else None,
            resume_out=out + ".resumed",
            trace=traced,
        )

    reference = None
    if wl["workers"] > 1 or wl["checkpoint"]:
        ref_spec = spec(1, False, False)
        spawner.child(ref_spec)
        check_scan_report(ref_spec["out"], wl["fmt"], wl["d"], X)
        reference = _digest(ref_spec["out"])

    start = _now()
    plain, traced, last_ns = [], [], 0
    counts = None
    while True:
        want_trace = trace and len(traced) < len(plain)
        # a traced repetition and the untraced one before it share a CPU
        s = spec(wl["workers"], wl["checkpoint"], want_trace, len(traced) if trace else len(plain))
        t0 = _now()
        spawn_ns, r = spawner.child(s)
        last_ns = _now() - t0
        digest = _digest(s["out"])
        if reference is None:
            check_scan_report(s["out"], wl["fmt"], wl["d"], X)
            reference = digest
        if digest != reference:
            raise GateFailure("scan report differs from the 1-worker reference")
        if wl["checkpoint"] and _digest(s["resume_out"]) != reference:
            raise GateFailure("report resumed from the finished checkpoint differs")
        wall_s = (r["end_ns"] - r["first_ns"]) / 1e9
        rep = {
            "setup_s": (r["first_ns"] - spawn_ns) / 1e9,
            "wall_s": wall_s,
            "cpu_s": r["cpu_s"],
            "us_per_prime": wall_s * 1e6 / r["n"],
            "peak_rss_mb": (r["rss_self_kb"] + r["rss_child_kb"]) / 1024,
            "resume_s": (r["resume_ns"] or 0) / 1e9,
            "lat_ns": r["lat_ns"],
            "n": r["n"],
            "alarmed": r["alarmed"],
            "alarm_kinds": r["alarm_kinds"],
        }
        if want_trace:
            rep["trace"] = r["trace"]
            rep["untraced_share"] = 1 - r["cover_ns"] / (r["end_ns"] - r["call_ns"])
            rep["missing_hooks"] = r["missing_hooks"]
            c = _counts_of(r["trace"])
            if counts is not None and c != counts:
                raise GateFailure("traced call counts differ between repetitions of one input")
            counts = c
            traced.append(rep)
        else:
            plain.append(rep)
        elapsed = _now() - start
        enough = len(plain) >= 1 and (not trace or len(traced) >= 1)
        if enough and elapsed + last_ns > seconds * 1e9:
            break

    n = plain[0]["n"]
    info = {
        "X": X,
        "primes": n,
        "repetitions": len(plain),
        "wall_s_per_repetition": [r["wall_s"] for r in plain],
        "traced_repetitions": len(traced),
        "report_sha256": reference,
        "alarm_kinds": plain[0]["alarm_kinds"],
    }
    attempted = sum(r["n"] for r in plain)
    failed = sum(r["alarmed"] for r in plain)
    if not trace:
        metrics = _median_metrics([{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "us_per_prime", "peak_rss_mb")} for r in plain])
        p50, tail, q, samples = latency_stats([r["lat_ns"] for r in plain])
        metrics.update(op_p50_ms=p50, op_tail_ms=tail)
        info.update(op_samples=samples, op_tail_percentile=q)
    else:
        per = [layer_metrics(r["trace"], n) | {"untraced_share": r["untraced_share"]} for r in traced]
        metrics = _median_metrics(per)
        metrics["resume_s"] = statistics.median(r["resume_s"] for r in plain)
        metrics["fail_share"] = failed / attempted
        metrics["trace_overhead"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain) - 1
        info["missing_hooks"] = traced[0]["missing_hooks"]
        info["layers"] = {k: v for k, v in traced[0]["trace"].items() if v["calls"]}
    return metrics, dict(info, attempted=attempted, failed=failed)


def run_construct_workload(spawner: Spawner, name: str, wl: dict, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = _now()
    members = construct_members(name, wl["draws"], seed)
    setups = []
    for k in range(SETUP_PROBES):
        spawn_ns, r = spawner.child({"mode": "setup", "members": members, "cpu": k})
        setups.append((r["ready_ns"] - spawn_ns) / 1e9)
    spawn_ns, r = spawner.child(
        {
            "mode": "construct",
            "members": members,
            "trace": trace,
            "budget_s": seconds - (_now() - start) / 1e9,
            "min_passes": 2 if trace else 1,
        }
    )
    setups.append((r["ready_ns"] - spawn_ns) / 1e9)
    check_construct(r["verdicts"], members, r["verdicts_stable"])
    plain = [p for p in r["passes"] if not p["traced"]]
    traced = [p for p in r["passes"] if p["traced"]]
    if len({json.dumps(_counts_of(p["trace"]), sort_keys=True) for p in traced}) > 1:
        raise GateFailure("traced call counts differ between passes over the same members")
    n = len(r["verdicts"])
    alarmed = sum(1 for v in r["verdicts"] if v[6])
    info = {
        "members": members,
        "passes": len(plain),
        "wall_s_per_pass": [p["wall_ns"] / 1e9 for p in plain],
        "traced_passes": len(traced),
        "alarm_kinds": r["alarm_kinds"],
    }
    attempted = n * len(plain)
    failed = alarmed * len(plain)
    if not trace:
        wall_s = statistics.median(p["wall_ns"] for p in plain) / 1e9
        p50, tail, q, samples = latency_stats([p["lat_ns"] for p in plain])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "cpu_s": r["setup_cpu_s"] + statistics.median(p["cpu_s"] for p in plain),
            "us_per_prime": wall_s * 1e6 / n,
            "op_p50_ms": p50,
            "op_tail_ms": tail,
            "peak_rss_mb": r["rss_self_kb"] / 1024,
        }
        info.update(op_samples=samples, op_tail_percentile=q)
    else:
        per = [layer_metrics(p["trace"], n) | {"untraced_share": 1 - p["cover_ns"] / p["wall_ns"]} for p in traced]
        metrics = _median_metrics(per)
        metrics["resume_s"] = 0.0
        metrics["fail_share"] = alarmed / n
        metrics["trace_overhead"] = statistics.median(p["wall_ns"] for p in traced) / statistics.median(p["wall_ns"] for p in plain) - 1
        info["missing_hooks"] = r["missing_hooks"]
        info["layers"] = {k: v for k, v in traced[0]["trace"].items() if v["calls"]}
    return metrics, dict(info, attempted=attempted, failed=failed)


# -- environment and entry point ---------------------------------------------


def package_version() -> str | None:
    with open(os.path.join(PACKAGE, "__init__.py"), encoding="utf-8") as fh:
        m = re.search(r"__version__\s*=\s*['\"]([^'\"]+)", fh.read())
    return m.group(1) if m else None


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "package_version": package_version(),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result object, info object)."""
    wl = dict(WORKLOADS[name], **(SMOKE[name] if smoke else {}))
    spawner = Spawner()
    info = {"env": environment(name, seed, seconds, trace)}
    try:
        spawner.child({"mode": "warm"})
        runner = run_scan_workload if wl["kind"] == "scan" else run_construct_workload
        try:
            metrics, detail = runner(spawner, name, wl, seed, seconds, trace)
            correct = True
        except GateFailure as exc:
            print(f"correctness gate failed: {exc}", file=sys.stderr)
            info["gate_failure"] = str(exc)
            metrics, detail, correct = None, {"attempted": 1, "failed": 1}, False
    finally:
        spawner.close()
    info.update(detail)
    units = PER_LAYER if trace else END_TO_END
    if metrics is None:
        # nothing trustworthy was measured; correct = false says so
        metrics = {k: 0.0 for k in units}
    result = {
        "correct": correct,
        "attempted": info.pop("attempted"),
        "failed": info.pop("failed"),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, info


def smoke() -> int:
    """Every workload at a tiny size, both modes; checks names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            result, _ = run_workload(name, seed=1, seconds=1, trace=bool(trace), smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if got != declared[trace]:
                problems.append(f"metrics {sorted(set(got) ^ set(declared[trace]))} or units differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append("correctness gate failed")
            if any(not isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append("a metric value is not a number")
            ok = ok and not problems
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {name} trace={trace}: {status} ({time.perf_counter() - t0:.1f} s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, check metric names")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no package source at {os.path.relpath(PACKAGE, os.getcwd())}; run from a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
