"""Benchmark history: the record of parent/change ledger comparisons.

``BENCH_HISTORY.jsonl`` at the repository root holds one JSON line per
side of every ledger comparison (``benchmarks/ledger/compare.py`` gives
the verdict; this file only keeps what was measured).  A record carries:

* ``bench`` — ``ledger-<workload>``;
* ``git_sha`` — the commit the run measured (the parent's, for both
  sides of a comparison made on its working tree);
* ``host`` — a fingerprint of the machine;
* ``metrics`` — the end-to-end medians under their ``BENCHMARK.json``
  names (``setup_s``, ``mlups``, ``op_p50_s``, ``peak_rss_mb``; records
  written before those names carry ``end_to_end.*`` / ``traced.*`` keys);
* ``labels`` — strings: ``pr`` and ``side`` (``parent`` / ``change``)
  pair the records, ``backend``, ``pairs``, ``seconds``, ``source``,
  ``tree`` describe the runs.

``python -m repro history`` prints the pairs: per PR and benchmark, each
metric both sides carry, parent → change, with their ratio.  A record
that pairs with nothing (no ``pr`` / ``side`` label, or no other side)
is counted as unpaired.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import Sequence

from ..obs.log import append_lines

__all__ = [
    "HISTORY_VERSION", "repo_root", "history_path", "git_sha",
    "host_fingerprint", "build_record", "append_record", "load_history",
    "main",
]

HISTORY_VERSION = 1
HISTORY_BASENAME = "BENCH_HISTORY.jsonl"


# -- provenance ----------------------------------------------------------------

def repo_root(start: str | None = None) -> str:
    """Nearest ancestor directory holding ``pyproject.toml`` or ``.git``.

    Searched from ``start`` (default: this file's location, then the
    working directory), falling back to the working directory — so the
    trajectory lands at the repo root for a source checkout and in cwd
    for an installed package.
    """
    candidates = [start] if start else [os.path.dirname(os.path.abspath(__file__)),
                                        os.getcwd()]
    for origin in candidates:
        d = os.path.abspath(origin)
        while True:
            if any(os.path.exists(os.path.join(d, probe))
                   for probe in ("pyproject.toml", ".git")):
                return d
            parent = os.path.dirname(d)
            if parent == d:
                break
            d = parent
    return os.getcwd()


def history_path(out_dir: str | None = None) -> str:
    """Location of the append-only trajectory file."""
    return os.path.join(out_dir if out_dir is not None else repo_root(),
                        HISTORY_BASENAME)


def git_sha(cwd: str | None = None) -> str:
    """Current commit hash, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd or repo_root(),
            capture_output=True, text=True, timeout=10)
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_fingerprint() -> dict:
    """Stable identity of the measuring machine.

    ``id`` is a short hash of the stable components, so records from
    different machines are told apart at a glance.
    """
    info = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }
    digest = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode()).hexdigest()[:12]
    return {"id": digest, **info}


# -- records -------------------------------------------------------------------

def build_record(bench: str, metrics: dict[str, float], *,
                 labels: dict | None = None,
                 sha: str | None = None) -> dict:
    """Assemble one history line (see the module docstring for fields)."""
    return {
        "v": HISTORY_VERSION,
        "bench": bench,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": sha if sha is not None else git_sha(),
        "host": host_fingerprint(),
        "metrics": dict(sorted(metrics.items())),
        "labels": labels or {},
    }


def append_record(record: dict, path: str | None = None) -> str:
    """Append one JSON line to the trajectory; returns the file path.

    The line goes down through :func:`repro.obs.log.append_lines`, so
    concurrent benchmark processes (parallel CI legs, mp workers) only
    ever append whole lines, and a tail torn by a writer killed mid-line
    costs only that fragment, not the record appended after it.
    """
    p = path if path is not None else history_path()
    append_lines(p, json.dumps(record, sort_keys=True, default=str) + "\n")
    return p


def load_history(path: str | None = None) -> list[dict]:
    """All parseable records, oldest first; torn/blank lines are skipped."""
    p = path if path is not None else history_path()
    out: list[dict] = []
    if not os.path.exists(p):
        return out
    with open(p) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of an interrupted writer
            if isinstance(rec, dict) and "bench" in rec:
                out.append(rec)
    return out


# -- CLI -----------------------------------------------------------------------

def _pair_line(pr: str, bench: str, parent: dict, change: dict) -> str:
    """``PR <pr> <bench> @ <sha>: <metric> <parent> → <change> (×<ratio>), ...``"""
    def numbers(rec: dict) -> dict:
        return {k: v for k, v in (rec.get("metrics") or {}).items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)}

    p, c = numbers(parent), numbers(change)
    cells = [f"{k} {p[k]:.4g} → {c[k]:.4g}"
             + (f" (×{c[k] / p[k]:.3f})" if p[k] else "")
             for k in sorted(p.keys() & c.keys())]
    return (f"PR {pr} {bench} @ {str(parent.get('git_sha', '?'))[:10]}: "
            + ", ".join(cells))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro history",
        description="Print the ledger comparisons recorded in "
                    "BENCH_HISTORY.jsonl: per PR and benchmark, every metric "
                    "both sides carry, parent → change, with their ratio.")
    parser.add_argument("--path", default=None,
                        help="history file (default: BENCH_HISTORY.jsonl at "
                             "the repo root)")
    parser.add_argument("--tail", type=int, default=None, metavar="N",
                        help="print only the last N PRs (default: all)")
    args = parser.parse_args(argv)

    path = args.path if args.path is not None else history_path()
    history = load_history(path)

    # (pr, bench) -> {side: record}, in the order the PRs were recorded.
    sides_of: dict[tuple[str, str], dict[str, dict]] = {}
    unpaired = 0
    for rec in history:
        labels = rec.get("labels") or {}
        pr, side = labels.get("pr"), labels.get("side")
        if pr is None or side not in ("parent", "change"):
            unpaired += 1
            continue
        sides_of.setdefault((str(pr), rec["bench"]), {})[side] = rec
    pairs = {key: sides for key, sides in sides_of.items() if len(sides) == 2}
    unpaired += sum(len(sides) for sides in sides_of.values() if len(sides) < 2)

    prs = list(dict.fromkeys(pr for pr, _ in pairs))
    print(f"{path}: {len(history)} record(s), {len(pairs)} pair(s) over "
          f"{len(prs)} PR(s), {unpaired} unpaired")
    if args.tail is not None:
        prs = prs[-args.tail:] if args.tail > 0 else []
    shown = set(prs)
    for (pr, bench), sides in pairs.items():
        if pr in shown:
            print("  " + _pair_line(pr, bench, sides["parent"], sides["change"]))
    return 0
