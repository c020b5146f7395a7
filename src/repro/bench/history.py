"""Benchmark history: an append-only perf trajectory with a regression gate.

Every benchmark run appends one JSON line to ``BENCH_HISTORY.jsonl`` at
the repository root (the ``BENCH_*.json`` snapshot files are overwritten
per run and gitignored; the history line is what survives across PRs).
A record carries everything needed to compare runs honestly:

* ``git_sha`` — the commit the run measured;
* ``host`` — a fingerprint of the machine (regressions are only judged
  against a baseline from the *same* host: cross-host wall clock is not
  comparable);
* ``config_digest`` — a hash of the benchmark's watched-metric key set,
  so a benchmark that changes shape starts a fresh baseline instead of
  "regressing" against an incomparable series;
* ``metrics`` — the flat numeric watch-list extracted from the
  ``BENCH_*.json`` payload (wall seconds, MLUPS, kernels/step, ...);
* ``bandwidth`` — the roofline summary when the run traced spans.

The regression detector is noise-aware: the baseline for each
(bench, host, digest, metric) series is the **rolling median** of the
previous ``window`` values, the threshold is ``k`` times the scaled
**median absolute deviation** of those values (with a relative noise
floor), and a deviation must *also* exceed ``min_ratio`` to be reported
at all.  Findings worse than ``fail_ratio`` are severity ``fail`` and
gate the exit status of ``python -m repro history --check``;
milder findings are ``warn`` and informational (shared CI hosts are
noisy), unless ``--strict``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Iterable, Sequence

try:  # POSIX only; appends on other platforms skip the >PIPE_BUF lock
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX host
    fcntl = None  # type: ignore[assignment]

try:
    from select import PIPE_BUF as _PIPE_BUF
except ImportError:  # pragma: no cover - non-POSIX host
    _PIPE_BUF = 512

__all__ = [
    "HISTORY_VERSION", "WATCHED_METRICS", "LOWER_IS_BETTER",
    "repo_root", "history_path", "git_sha", "host_fingerprint",
    "config_digest", "build_record", "record_from_bench", "append_record",
    "load_history", "RegressionFinding", "RegressionReport",
    "detect_regressions", "seed_synthetic_history", "main",
]

HISTORY_VERSION = 1
HISTORY_BASENAME = "BENCH_HISTORY.jsonl"

#: Metric leaf keys worth tracking across PRs, with their direction.
#: ``True`` means lower is better (time, traffic, footprint); ``False``
#: means higher is better (throughput, bandwidth, speedup).
LOWER_IS_BETTER: dict[str, bool] = {
    "wall_seconds": True,
    "kernels_per_step": True,
    "bytes_per_step": True,
    "atomic_bytes": True,
    "arena_peak_bytes": True,
    "wall_mlups": False,
    "sim_mlups": False,
    "speedup": False,
    "achieved_bw": False,
    "achieved_fraction": False,
    "mlups": False,
}
WATCHED_METRICS = frozenset(LOWER_IS_BETTER)


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

    ``id`` is a short hash of the stable components; the regression
    detector groups series by it so baselines never mix hosts.
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


def config_digest(metrics: dict[str, float],
                  backend: str | None = None) -> str:
    """Hash of the watched-metric *key set* — the series identity.

    Two runs are comparable when they measured the same quantities; a
    benchmark that adds or drops a config/workload changes its key set
    and therefore starts a fresh baseline.  ``backend`` salts the digest
    so compiled-backend runs start their own baseline instead of
    "improving" against interpreted history (and interpreted runs never
    regress against compiled ones); ``None`` leaves digests of
    backend-agnostic benchmarks unchanged.
    """
    keys = sorted(metrics)
    if backend:
        keys.append(f"backend={backend}")
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:12]


# -- record construction -------------------------------------------------------

def _numeric_leaves(payload: Any, prefix: str = "",
                    depth: int = 0) -> Iterable[tuple[str, float]]:
    """Watched numeric leaves of a nested bench payload, dotted paths."""
    if depth > 6:
        return
    if isinstance(payload, dict):
        for k, v in payload.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            if isinstance(v, bool):
                continue
            if isinstance(v, (int, float)) and k in WATCHED_METRICS:
                yield key, float(v)
            elif isinstance(v, dict):
                yield from _numeric_leaves(v, key, depth + 1)


def build_record(bench: str, metrics: dict[str, float], *,
                 bandwidth: dict | None = None,
                 labels: dict | None = None,
                 sha: str | None = None,
                 backend: str | None = None) -> dict:
    """Assemble one history line (see the module docstring for fields).

    ``backend`` records which execution backend produced the numbers and
    salts the :func:`config_digest`, so per-backend series never share a
    regression baseline.
    """
    rec = {
        "v": HISTORY_VERSION,
        "bench": bench,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": sha if sha is not None else git_sha(),
        "host": host_fingerprint(),
        "config_digest": config_digest(metrics, backend=backend),
        "metrics": dict(sorted(metrics.items())),
        "bandwidth": bandwidth or {},
        "labels": labels or {},
    }
    if backend is not None:
        rec["backend"] = backend
    return rec


def record_from_bench(name: str, payload: dict) -> dict:
    """History record extracted from a ``BENCH_<name>.json`` payload.

    Scans the (possibly nested) payload for watched numeric leaves; the
    dotted path disambiguates per-config entries
    (``measurements.ours-4f.wall_mlups``).  A ``backend`` key in the
    payload is carried into the record and its digest.
    """
    metrics = dict(_numeric_leaves(payload))
    bandwidth = payload.get("bandwidth") if isinstance(
        payload.get("bandwidth"), dict) else None
    backend = payload.get("backend") if isinstance(
        payload.get("backend"), str) else None
    return build_record(name, metrics, bandwidth=bandwidth, backend=backend)


def append_record(record: dict, path: str | None = None) -> str:
    """Append one JSON line to the trajectory; returns the file path.

    The encoded line goes down in a single unbuffered ``os.write`` on an
    ``O_APPEND`` fd — no user-space buffering that could flush a record
    in interleaving chunks — so concurrent benchmark processes (parallel
    CI legs, mp workers) only ever append whole lines.  Lines longer
    than ``PIPE_BUF`` additionally take an advisory ``flock``, since the
    POSIX atomicity guarantee stops there.
    """
    p = path if path is not None else history_path()
    os.makedirs(os.path.dirname(p) or ".", exist_ok=True)
    data = (json.dumps(record, sort_keys=True, default=str) + "\n").encode()
    fd = os.open(p, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if len(data) > _PIPE_BUF and fcntl is not None:
            # Atomicity of a single O_APPEND write is only guaranteed up
            # to PIPE_BUF by POSIX; bigger lines serialize writers via an
            # advisory lock (released with the fd on close).
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                pass  # e.g. filesystems without lock support
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
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


# -- regression detection ------------------------------------------------------

@dataclass(frozen=True)
class RegressionFinding:
    """One metric of one benchmark moving the wrong way."""

    bench: str
    metric: str
    host: str
    value: float
    baseline: float            # rolling median of the prior window
    ratio: float               # value/baseline oriented so > 1 is worse
    threshold: float           # MAD-scaled deviation that was exceeded
    window: int                # prior points the baseline stands on
    severity: str              # "warn" | "fail"
    git_sha: str

    def __str__(self) -> str:
        return (f"{self.severity}: {self.bench}:{self.metric} = "
                f"{self.value:.6g} vs baseline {self.baseline:.6g} "
                f"({self.ratio:.2f}x worse over {self.window} runs, "
                f"host {self.host}, {self.git_sha[:10]})")

    def as_dict(self) -> dict:
        return {"bench": self.bench, "metric": self.metric, "host": self.host,
                "value": self.value, "baseline": self.baseline,
                "ratio": round(self.ratio, 4), "threshold": self.threshold,
                "window": self.window, "severity": self.severity,
                "git_sha": self.git_sha}


@dataclass(frozen=True)
class RegressionReport:
    """Outcome of one ``--check`` sweep."""

    records: int
    series_checked: int
    findings: tuple[RegressionFinding, ...]

    @property
    def failures(self) -> tuple[RegressionFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "fail")

    @property
    def warnings(self) -> tuple[RegressionFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "warn")

    def as_dict(self) -> dict:
        return {"records": self.records, "series_checked": self.series_checked,
                "findings": [f.as_dict() for f in self.findings]}


def _median(values: Sequence[float]) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def detect_regressions(history: Sequence[dict], *, window: int = 8,
                       mad_factor: float = 4.0, min_ratio: float = 1.25,
                       fail_ratio: float = 5.0, min_history: int = 3,
                       noise_floor: float = 0.10) -> RegressionReport:
    """Judge the newest record of every series against its own past.

    A series is (bench, host id, config digest, metric).  The newest
    value is compared to the rolling median of up to ``window``
    *earlier* values; at least ``min_history`` of them must exist.  The
    value is flagged when it is worse than the baseline by more than

        max(mad_factor * 1.4826 * MAD, noise_floor * |baseline|)

    **and** the worse-direction ratio exceeds ``min_ratio`` (both guards
    must agree: the MAD term adapts to each series' own noise, the ratio
    term keeps a perfectly quiet series from flagging microscopic
    drift).  Ratios at or above ``fail_ratio`` escalate to ``fail``.
    """
    by_series: dict[tuple[str, str, str], list[dict]] = {}
    for rec in history:
        key = (rec.get("bench", "?"),
               rec.get("host", {}).get("id", "?"),
               rec.get("config_digest", "?"))
        by_series.setdefault(key, []).append(rec)

    findings: list[RegressionFinding] = []
    series_checked = 0
    for (bench, host, _digest), recs in sorted(by_series.items()):
        if len(recs) < min_history + 1:
            continue
        latest = recs[-1]
        prior = recs[-(window + 1):-1]
        for metric, lower_better in LOWER_IS_BETTER.items():
            pairs = [(r["metrics"].get(k), k)
                     for r in [latest]
                     for k in latest.get("metrics", {})
                     if k == metric or k.endswith("." + metric)]
            for value, key in pairs:
                if value is None:
                    continue
                past = [r["metrics"][key] for r in prior
                        if isinstance(r.get("metrics", {}).get(key),
                                      (int, float))]
                if len(past) < min_history:
                    continue
                series_checked += 1
                baseline = _median(past)
                if baseline == 0:
                    continue
                mad = _median([abs(v - baseline) for v in past])
                threshold = max(mad_factor * 1.4826 * mad,
                                noise_floor * abs(baseline))
                delta = (value - baseline) if lower_better \
                    else (baseline - value)
                if delta <= threshold:
                    continue
                ratio = (value / baseline) if lower_better \
                    else (baseline / value if value > 0 else float("inf"))
                if ratio < min_ratio:
                    continue
                findings.append(RegressionFinding(
                    bench=bench, metric=key, host=host,
                    value=float(value), baseline=float(baseline),
                    ratio=float(ratio), threshold=float(threshold),
                    window=len(past),
                    severity="fail" if ratio >= fail_ratio else "warn",
                    git_sha=str(latest.get("git_sha", "unknown"))))
    return RegressionReport(records=len(history),
                            series_checked=series_checked,
                            findings=tuple(findings))


def seed_synthetic_history(path: str, *, runs: int = 6,
                           slowdown: float | None = None,
                           bench: str = "synthetic",
                           base_seconds: float = 1.0,
                           jitter: float = 0.02) -> str:
    """Write a deterministic fixture history (tests and the README demo).

    Emits ``runs`` records of one benchmark with ±``jitter`` alternating
    noise around ``base_seconds``; when ``slowdown`` is given the *last*
    record's ``wall_seconds`` is multiplied by it (and its MLUPS divided),
    simulating a PR that regressed the hot path.
    """
    host = host_fingerprint()
    for i in range(runs):
        wobble = 1.0 + jitter * (1 if i % 2 else -1)
        seconds = base_seconds * wobble
        mlups = 100.0 / wobble
        if slowdown is not None and i == runs - 1:
            seconds *= slowdown
            mlups /= slowdown
        metrics = {"wall_seconds": seconds, "wall_mlups": mlups,
                   "kernels_per_step": 10.0, "bytes_per_step": 1e6}
        rec = build_record(bench, metrics, sha=f"seed{i:07d}")
        rec["host"] = host
        append_record(rec, path)
    return path


# -- CLI -----------------------------------------------------------------------

def _print_report(report: RegressionReport, out) -> None:
    print(f"history: {report.records} record(s), "
          f"{report.series_checked} series checked", file=out)
    for f in report.findings:
        print(f"  {f}", file=out)
    if not report.findings:
        print("  no regressions detected", file=out)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro history",
        description="Benchmark-trajectory tools: inspect BENCH_HISTORY.jsonl "
                    "and gate on noise-aware regression detection.")
    parser.add_argument("--path", default=None,
                        help="history file (default: BENCH_HISTORY.jsonl at "
                             "the repo root)")
    parser.add_argument("--check", action="store_true",
                        help="run the regression detector over the history")
    parser.add_argument("--show", action="store_true",
                        help="print the trailing records of the trajectory")
    parser.add_argument("--tail", type=int, default=5,
                        help="records to print with --show (default 5)")
    parser.add_argument("--window", type=int, default=8,
                        help="rolling-baseline window (default 8 runs)")
    parser.add_argument("--mad-factor", type=float, default=4.0,
                        help="MAD multiplier for the deviation threshold")
    parser.add_argument("--min-ratio", type=float, default=1.25,
                        help="minimum worse-direction ratio to report")
    parser.add_argument("--fail-ratio", type=float, default=5.0,
                        help="ratio at which a finding gates the exit status")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too (quiet hosts)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the check report as JSON")
    args = parser.parse_args(argv)

    path = args.path if args.path is not None else history_path()
    history = load_history(path)

    if args.show or not args.check:
        print(f"{path}: {len(history)} record(s)")
        for rec in history[-args.tail:]:
            mets = rec.get("metrics", {})
            brief = ", ".join(f"{k}={v:.4g}" for k, v in sorted(mets.items())
                              if isinstance(v, (int, float)))
            print(f"  {rec.get('recorded_at', '?')} "
                  f"{str(rec.get('git_sha', '?'))[:10]} "
                  f"{rec.get('bench', '?')}: {brief[:160]}")
    if not args.check:
        return 0

    report = detect_regressions(history, window=args.window,
                                mad_factor=args.mad_factor,
                                min_ratio=args.min_ratio,
                                fail_ratio=args.fail_ratio)
    _print_report(report, sys.stdout)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2)
            fh.write("\n")
    if report.failures:
        return 1
    if args.strict and report.warnings:
        return 1
    return 0
