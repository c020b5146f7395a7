"""Observability layer: span tracing, timeline export, metrics, watchdog.

Built on the runtime's launch trace (DESIGN.md §9):

* :mod:`repro.obs.spans` — wall-clock spans per kernel launch, nested
  under per-coarse-step and per-level parents;
* :mod:`repro.obs.trace` — Chrome-trace-event / Perfetto JSON export,
  one track per concurrency stream plus the cost-model-predicted
  schedule;
* :mod:`repro.obs.metrics` — a run's metrics as one ``{name: value}``
  dict and the ``BENCH_*.json`` writer;
* :mod:`repro.obs.watchdog` — numerical-health monitor raising a
  structured :class:`~repro.obs.watchdog.SimulationDiverged`;
* :mod:`repro.obs.roofline` — observed-vs-predicted bandwidth join and
  the cross-config drift report (DESIGN.md §13);
* :mod:`repro.obs.log` — unified JSON-lines event log (spans, metrics,
  watchdog, resilience) with per-run labels;
* :mod:`repro.obs.report` — one-shot run report (text / HTML / JSON)
  joining trace, metrics, roofline, lint and certificates;
* ``python -m repro report`` (:mod:`repro.obs.cli`) — run a workload
  under full telemetry and write its Perfetto trace, run report and
  event log, validating the trace before it exits.
"""

from .log import EventLog, read_log, split_runs, validate_log
from .metrics import run_metrics, write_bench_json
from .report import (RunReport, collect_report, render_html, render_text,
                     write_report)
from .roofline import (DriftFinding, DriftReport, FamilyRoofline,
                       KernelRoofline, RooflineSummary, drift_findings,
                       drift_report, kernel_rooflines, roofline_summary)
from .spans import KernelSpan, LevelRun, SpanRecorder, StepSpan
from .trace import chrome_trace, validate_trace, write_chrome_trace
from .watchdog import CS_LATTICE, HealthWatchdog, SimulationDiverged

__all__ = [
    "run_metrics", "write_bench_json",
    "KernelSpan", "LevelRun", "SpanRecorder", "StepSpan",
    "chrome_trace", "validate_trace", "write_chrome_trace",
    "CS_LATTICE", "HealthWatchdog", "SimulationDiverged",
    "EventLog", "read_log", "split_runs", "validate_log",
    "RunReport", "collect_report", "render_html", "render_text",
    "write_report",
    "DriftFinding", "DriftReport", "FamilyRoofline", "KernelRoofline",
    "RooflineSummary", "drift_findings", "drift_report", "kernel_rooflines",
    "roofline_summary",
]
