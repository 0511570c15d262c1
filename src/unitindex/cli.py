"""Command-line front end for prime scans.

Settings come from an optional flat key=value config file, with any
command-line flag overriding the file.  Exit status: 0 for a clean scan,
1 when any scanned prime raised an alarm, 2 for refused or malformed
configuration.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import PreconditionViolated, UnitIndexError
from .experiment import ScanConfig, report, run_scan

_CONFIG_KEYS = ("d", "X", "m", "workers", "out", "format", "checkpoint", "seed")


def _parse_m_filter(text: str) -> frozenset[int]:
    try:
        values = frozenset(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise PreconditionViolated(f"bad m filter {text!r}: expected comma-separated integers")
    if not values:
        raise PreconditionViolated("empty m filter")
    return values


def read_config(path: str) -> dict:
    """Flat key=value file; blank lines and # comments are ignored."""
    settings: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise PreconditionViolated(f"{path} is not UTF-8 text: {exc.reason}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PreconditionViolated(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise PreconditionViolated(f"{path}:{lineno}: unknown key {key!r}")
        settings[key] = value
    return settings


def build_config(args: argparse.Namespace) -> ScanConfig:
    settings = read_config(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
    for key in ("d", "X", "workers", "seed"):
        if key in settings:
            try:
                settings[key] = int(settings[key])
            except ValueError:
                raise PreconditionViolated(f"{key} must be an integer, got {settings[key]!r}")
    if "d" not in settings or "X" not in settings:
        raise PreconditionViolated("both d and X are required (flags or config file)")
    out = settings.get("out")
    if out:
        # the report is written after the scan; refuse a path it cannot take now
        folder = os.path.dirname(out) or "."
        if os.path.isdir(out) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
            raise PreconditionViolated(f"cannot write the report to {out}")
    # the remaining keys are ScanConfig fields; it holds their defaults
    m_filter = settings.pop("m", None)
    if isinstance(m_filter, str):
        m_filter = _parse_m_filter(m_filter)
    return ScanConfig(m_filter=m_filter, fmt=settings.pop("format", "csv"), **settings)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitindex",
        description="Scan primes p = 1 (mod 4) up to X and tabulate unit-index densities for Q(sqrt(p), sqrt(d)).",
    )
    parser.add_argument("--d", type=int, help="squarefree base value with all factors 1 (mod 4) or 2")
    parser.add_argument("--X", type=int, help="scan bound (inclusive)")
    parser.add_argument("--m", type=_parse_m_filter, help="restrict output to these m values, comma-separated")
    parser.add_argument("--workers", type=int, help="concurrent scan processes (default 1)")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), help="report format (default csv)")
    parser.add_argument("--checkpoint", help="JSON Lines record log for resumable scans")
    parser.add_argument("--seed", type=int, help="seed for sampled construction cross-checks")
    parser.add_argument("--config", help="key=value settings file; flags override it")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        summary, records = run_scan(cfg)
        text = report(summary, records, cfg)
    except (UnitIndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg.out:
        print(f"wrote {cfg.out}: {len(records)} records for d = {cfg.d}")
    else:
        sys.stdout.write(text)

    alarmed = [r["p"] for r in records if r["alarms"]]
    if alarmed:
        shown = ", ".join(str(p) for p in alarmed[:10])
        more = "" if len(alarmed) <= 10 else f" (and {len(alarmed) - 10} more)"
        print(f"ALARM: {len(alarmed)} primes need attention: {shown}{more}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
