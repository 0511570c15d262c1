"""One fresh benchmark process: a scan repetition or a run of construct passes.

Usage: python3 perfbench/child.py SPEC.json

The spec names the mode and its inputs and the path the JSON result goes
to.  Set-up time is measured by the parent from just before it starts this
process, so everything this process does before the first candidate prime,
imports included, counts as set-up.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import re
import resource
import sys
import time

_now = time.perf_counter_ns
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))


def _cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _alarm_kind(alarm: str) -> str:
    """The alarm text without the numbers that vary from prime to prime."""
    return re.split(r"\s+(?:near|at|for|with)\b|\d", alarm)[0].strip(" :=,")


def _alarm_kinds(alarm_lists) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for alarms in alarm_lists:
        for alarm in alarms:
            kind = _alarm_kind(alarm)
            kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def run_scan(spec: dict) -> dict:
    import unitindex
    from unitindex import experiment

    import layers

    clock = layers.OpClock(experiment, spec["X"])
    tracer = None
    if spec["trace"]:
        tracer = layers.Tracer(unitindex)
        tracer.install()
    cfg = experiment.ScanConfig(
        d=spec["d"],
        X=spec["X"],
        workers=spec["workers"],
        out=spec["out"],
        fmt=spec["fmt"],
        checkpoint=spec["checkpoint"],
        seed=spec["scan_seed"],
    )
    call_ns = _now()
    summary, records = experiment.run_scan(cfg)
    experiment.report(summary, records, cfg)
    end_ns = _now()
    cpu = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    cover_ns = tracer.parent_self_ns() if tracer else 0
    primes = [r["p"] for r in records]
    kinds = _alarm_kinds(r["alarms"] for r in records)
    alarmed = sum(1 for r in records if r["alarms"])
    del summary, records
    gc.collect()

    resume_ns = None
    if spec["checkpoint"]:
        cfg_resume = dataclasses.replace(cfg, out=spec["resume_out"])
        t0 = _now()
        summary, records = experiment.run_scan(cfg_resume)
        experiment.report(summary, records, cfg_resume)
        resume_ns = _now() - t0
        del summary, records

    return {
        "call_ns": call_ns,
        "first_ns": clock.first_ns.value,
        "end_ns": end_ns,
        "resume_ns": resume_ns,
        "cpu_s": cpu,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_child_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "n": len(primes),
        "alarmed": alarmed,
        "alarm_kinds": kinds,
        "lat_ns": clock.latencies(primes),
        "cover_ns": cover_ns,
        "trace": tracer.totals() if tracer else None,
        "missing_hooks": tracer.missing if tracer else [],
    }


def _setup(members):
    from unitindex import arith, criterion, qfclassgroup  # noqa: F401  (import is set-up)

    sds = {}
    for d in sorted({d for d, _ in members}):
        sd = arith.factor_squarefree(d)
        if not qfclassgroup.verify_hypotheses(sd).passed:
            raise SystemExit(f"d = {d} fails the hypothesis check")
        sds[d] = sd
    return sds


def run_setup(spec: dict) -> dict:
    _setup(spec["members"])
    return {"ready_ns": _now()}


def run_construct(spec: dict) -> dict:
    """Evaluate every member with the construction check, pass after pass.

    Passes go on until the next one would end past the budget, with at
    least ``min_passes``.  In traced mode odd passes are traced, so the
    untraced passes give the overhead baseline from the same process.
    Successive passes run on successive CPUs (see ``pin``).
    """
    members = spec["members"]
    sds = _setup(members)
    ready_ns = _now()
    setup_cpu = _cpu_s(resource.RUSAGE_SELF)
    import unitindex
    from unitindex import criterion

    import layers

    tracer = layers.Tracer(unitindex) if spec["trace"] else None
    deadline = ready_ns + int(spec["budget_s"] * 1e9)
    passes = []
    verdicts = None
    stable = True
    while True:
        # a traced pass and the untraced one before it share a CPU
        pin(len(passes) // 2 if tracer else len(passes))
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        cpu0 = _cpu_s(resource.RUSAGE_SELF)
        t_pass = _now()
        lat, seen = [], []
        for d, p in members:
            t0 = _now()
            v = criterion.evaluate(sds[d], p, construction_check=True)
            lat.append(_now() - t0)
            seen.append([d, p, v.m, v.in_P, v.q_direct, v.q_governing, list(v.alarms)])
        wall_ns = _now() - t_pass
        record = {"traced": traced, "wall_ns": wall_ns, "cpu_s": _cpu_s(resource.RUSAGE_SELF) - cpu0, "lat_ns": lat}
        if traced:
            tracer.uninstall()
            record["cover_ns"] = tracer.parent_self_ns()
            record["trace"] = tracer.totals()
        passes.append(record)
        if verdicts is None:
            verdicts = seen
        else:
            stable = stable and seen == verdicts
        if len(passes) >= spec["min_passes"] and _now() + wall_ns > deadline:
            break
    return {
        "ready_ns": ready_ns,
        "setup_cpu_s": setup_cpu,
        "passes": passes,
        "verdicts": verdicts,
        "verdicts_stable": stable,
        "alarm_kinds": _alarm_kinds(v[6] for v in verdicts),
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "missing_hooks": tracer.missing if tracer else [],
    }


def pin(k: int | None) -> None:
    """Run on the k-th allowed CPU (round robin); None leaves all CPUs.

    On a shared host each virtual CPU slows down in phases of its own that
    last minutes, so one process left on one CPU carries that CPU's phase
    into the whole run.  Rotating single-process work over the CPUs makes
    every run sample all of them.
    """
    if k is None:
        return
    cpus = sorted(_CPUS)
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})


_CPUS = os.sched_getaffinity(0)


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    pin(spec.get("cpu"))
    mode = spec["mode"]
    if mode == "warm":
        import unitindex.experiment  # noqa: F401  (compiles the byte code once)

        result = {}
    elif mode == "scan":
        result = run_scan(spec)
    elif mode == "setup":
        result = run_setup(spec)
    elif mode == "construct":
        result = run_construct(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
