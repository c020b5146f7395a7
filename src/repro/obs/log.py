"""Unified structured event log: one JSON-lines schema for everything.

The observability layer grew four disjoint record streams — kernel/step
spans (:mod:`repro.obs.spans`), run metrics
(:mod:`repro.obs.metrics`), watchdog findings
(:mod:`repro.obs.watchdog`) and resilience events (the
``RunResult.events`` a :mod:`repro.resilience.runner` run fills).  This
module folds them into **one** append-friendly JSON-lines schema so a
single file narrates a whole run, and so several concurrent runs can
share one sink and still be teased apart: every line carries the run's
identity and labels (the per-tenant seam the future ``repro.serve``
layer multiplexes on).

Line schema (``v`` = :data:`LOG_VERSION`)::

    {"v": 1, "run": {"id": "...", <labels>}, "kind": "<kind>",
     "seq": <int>, "ts_us": <float|null>, "data": {...}}

``kind`` is one of :data:`LOG_KINDS`:

* ``meta``      — one opening line per run: workload, config, host;
* ``kernel``    — one kernel span (index, name, level, bytes, timing);
* ``step``      — one coarse-step span (record range, timing);
* ``metric``    — a run's closing metrics (labels + values);
* ``watchdog``  — a health check outcome (ok stats or divergence payload);
* ``resilience``— a recovery event (resume / retry / rollback / degrade,
  or a served job's worker-death);
* ``note``      — free-form annotations (regrids, phase markers, ...).

``seq`` is a per-run monotone sequence number — the total order of the
log even where timestamps tie or are absent.  ``ts_us`` is microseconds
relative to the run's span origin when the source stream has one.
"""

from __future__ import annotations

import json
import os
from typing import Any, Sequence
from uuid import uuid4

from ..io.checkpoint import atomic_write

try:  # POSIX only; appends on other platforms skip the >PIPE_BUF lock
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX host
    fcntl = None  # type: ignore[assignment]

try:
    from select import PIPE_BUF as _PIPE_BUF
except ImportError:  # pragma: no cover - non-POSIX host
    _PIPE_BUF = 512

__all__ = ["LOG_VERSION", "LOG_KINDS", "EventLog", "append_lines",
           "read_log", "validate_log", "split_runs"]

LOG_VERSION = 1
LOG_KINDS = ("meta", "kernel", "step", "metric", "watchdog",
             "resilience", "note")


class EventLog:
    """Accumulates one run's events; serializes to JSON lines.

    Parameters
    ----------
    run_id:
        Stable identity of the run; auto-generated when omitted.
    labels:
        Arbitrary key/value labels stamped on **every** line (tenant,
        workload, config, job id, ...).
    """

    def __init__(self, run_id: str | None = None, **labels: Any) -> None:
        self.run_id = run_id if run_id is not None else uuid4().hex[:12]
        self.labels = {str(k): v for k, v in labels.items()}
        self.lines: list[dict] = []
        self._seq = 0

    # -- emission ------------------------------------------------------------
    def emit(self, kind: str, /, ts_us: float | None = None,
             **data: Any) -> dict:
        """Append one event line and return it.

        ``kind`` is positional-only, so ``data`` may carry a field of
        that name (a retry event's failure ``kind``).
        """
        if kind not in LOG_KINDS:
            raise ValueError(f"unknown log kind {kind!r}; one of {LOG_KINDS}")
        line = {
            "v": LOG_VERSION,
            "run": {"id": self.run_id, **self.labels},
            "kind": kind,
            "seq": self._seq,
            "ts_us": round(ts_us, 3) if ts_us is not None else None,
            "data": data,
        }
        self._seq += 1
        self.lines.append(line)
        return line

    def note(self, message: str, **data: Any) -> dict:
        return self.emit("note", message=message, **data)

    # -- ingestion from the existing telemetry sources -----------------------
    def ingest_spans(self, recorder) -> int:
        """Fold a :class:`~repro.obs.spans.SpanRecorder` into the log.

        Emits one ``kernel`` line per kernel span and one ``step`` line
        per step span; returns the number of lines emitted.
        """
        n = 0
        for s in recorder.kernel_spans:
            self.emit("kernel", ts_us=s.start_us, index=s.index,
                      name=s.record.name, level=s.record.level,
                      n_cells=s.record.n_cells, bytes=s.record.bytes_total,
                      atomic_bytes=s.record.atomic_bytes,
                      dur_us=round(s.dur_us, 3))
            n += 1
        for ss in recorder.step_spans:
            self.emit("step", ts_us=ss.start_us, step=ss.step,
                      start_record=ss.start_record, end_record=ss.end_record,
                      dur_us=round(ss.dur_us, 3))
            n += 1
        return n

    def ingest_metrics(self, values: dict[str, float]) -> dict:
        """Append a run's closing metrics as one final ``metric`` line.

        ``values`` is :func:`~repro.obs.metrics.run_metrics`' dict; the
        line has the shape a served job's closing ``metric`` line has.
        """
        return self.emit("metric", labels={"final": True}, values=values)

    def ingest_watchdog(self, report: dict | None = None,
                        diverged: dict | None = None) -> int:
        """Fold a watchdog outcome in: an ok report or a divergence.

        ``report`` is :attr:`HealthWatchdog.last_report`; ``diverged`` is
        a :class:`~repro.obs.watchdog.SimulationDiverged` payload (its
        span dump is dropped — the spans are already ``kernel`` lines).
        """
        n = 0
        if report is not None:
            self.emit("watchdog", status="ok", step=report.get("step"),
                      checks_run=report.get("checks_run"),
                      levels=report.get("levels"))
            n += 1
        if diverged is not None:
            payload = {k: v for k, v in diverged.items() if k != "spans"}
            self.emit("watchdog", status="diverged", **payload)
            n += 1
        return n

    # -- serialization -------------------------------------------------------
    def dump(self, start: int = 0) -> str:
        """The lines from ``start`` on, as JSON lines."""
        return "".join(json.dumps(line, sort_keys=True, default=str) + "\n"
                       for line in self.lines[start:])

    def write(self, path: str, append: bool = True) -> str:
        """Serialize to ``path`` (append by default: logs are shared sinks).

        ``append=False`` replaces the file whole (atomically).
        """
        text = self.dump()
        if not append:
            atomic_write(path, lambda fh: fh.write(text), "w")
            return path
        append_lines(path, text)
        return path

    def __len__(self) -> int:
        return len(self.lines)


def append_lines(path: str, text: str) -> None:
    """Append ``text`` — whole lines — to the file at ``path`` in one ``write``.

    One unbuffered ``os.write`` on an ``O_APPEND`` fd, so concurrent
    writers only ever append whole lines; POSIX guarantees that only up
    to ``PIPE_BUF``, so longer text first takes an advisory ``flock``.
    A process killed mid-append leaves a last line without its newline;
    appended to as it is, the next line would run on from the fragment
    and a reader would drop both.  So a torn tail is terminated first,
    in the same ``write``: only the fragment is lost.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    data = text.encode()
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if len(data) > _PIPE_BUF and fcntl is not None:
            try:        # released with the fd on close
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                pass    # e.g. filesystems without lock support
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def read_log(path: str) -> list[dict]:
    """Parse a JSON-lines event log; blank/torn lines are skipped."""
    out: list[dict] = []
    with open(path) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if isinstance(line, dict):
                out.append(line)
    return out


def validate_log(lines: Sequence[dict]) -> list[str]:
    """Schema lint of event-log lines; returns found problems.

    Checks the invariants consumers key on: version, a known ``kind``, a
    run identity on every line, numeric-or-null ``ts_us``, and strictly
    increasing ``seq`` within each run.
    """
    problems: list[str] = []
    last_seq: dict[str, int] = {}
    for i, line in enumerate(lines):
        if line.get("v") != LOG_VERSION:
            problems.append(f"line {i}: unsupported version {line.get('v')!r}")
            continue
        kind = line.get("kind")
        if kind not in LOG_KINDS:
            problems.append(f"line {i}: unknown kind {kind!r}")
        run = line.get("run")
        if not isinstance(run, dict) or not run.get("id"):
            problems.append(f"line {i}: missing run identity")
            continue
        ts = line.get("ts_us")
        if ts is not None and not isinstance(ts, (int, float)):
            problems.append(f"line {i}: non-numeric ts_us {ts!r}")
        seq = line.get("seq")
        rid = str(run["id"])
        if not isinstance(seq, int):
            problems.append(f"line {i}: missing seq")
        else:
            if rid in last_seq and seq <= last_seq[rid]:
                problems.append(f"line {i}: seq {seq} not increasing for "
                                f"run {rid}")
            last_seq[rid] = seq
        if not isinstance(line.get("data"), dict):
            problems.append(f"line {i}: data is not an object")
    return problems


def split_runs(lines: Sequence[dict]) -> dict[str, list[dict]]:
    """Group a shared sink's lines by run id (the multi-tenant read path)."""
    out: dict[str, list[dict]] = {}
    for line in lines:
        rid = str(line.get("run", {}).get("id", "?"))
        out.setdefault(rid, []).append(line)
    return out
