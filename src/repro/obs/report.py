"""``python -m repro report`` — one run, one report.

Joins every telemetry source the repo has into a single artifact, in two
renderings (terminal text and self-contained HTML):

* **trace** — kernel/step counts, wave depth, span coverage, observed
  occupancy (from the span tracer);
* **metrics** — :func:`~repro.obs.metrics.run_metrics` (MLUPS,
  bytes/step, ...);
* **roofline** — per-kernel-family achieved bandwidth, predicted-vs-
  observed skew and flagged drift (:mod:`repro.obs.roofline`);
* **lint** — the static linter's opportunities over the last step's
  stream, priced in bytes and microseconds saved
  (:mod:`repro.analysis.lint`);
* **certificate** — the stream digest that identifies the executed step
  plan (:mod:`repro.analysis.certificate`) and ties the report to the
  admission artifacts under ``certificates/``;
* **watchdog + event log** — health status and the unified JSON-lines
  narration (:mod:`repro.obs.log`);
* **memory** — the bytes the run's grid and engine hold, per level and
  family (:func:`repro.gpu.memory.memory_ledger`), their total, and the
  process's peak RSS.

The report degrades gracefully: a truncated trace (a failed kernel
mid-step), an empty trace (zero steps) or a restored-from-checkpoint run
all render, with the anomaly stated rather than hidden.
"""

from __future__ import annotations

import html as _html
import json
import resource
from dataclasses import dataclass, field

from ..gpu.device import A100_40GB, DeviceSpec
from ..gpu.memory import memory_ledger
from ..io.checkpoint import atomic_write
from .log import EventLog
from .metrics import run_metrics
from .roofline import RooflineSummary, drift_findings, roofline_summary
from .spans import SpanRecorder

__all__ = ["RunReport", "collect_report", "render_text", "render_html"]


@dataclass
class RunReport:
    """Everything one run's report renders, in plain data."""

    workload: str
    config: str
    steps: int                     # coarse steps covered by the trace
    device: str
    backend: str                   # execution backend the run used
    status: dict                   # watchdog outcome ({"status": ...})
    n_records: int
    kernels_per_step: list[int]
    partial_step: bool             # trace truncated mid-step?
    metrics: dict                  # run_metrics: {name: value}
    roofline: RooflineSummary | None
    drift: list[dict]              # flagged drift findings (as_dicts)
    lint: dict                     # {"errors": [...], "opportunities": [...],
                                   #  "touched_bytes": int}
    certificate: dict              # {"stream_digest": ..., "source": ...}
    log_lines: int                 # unified event-log lines emitted
    occupancy: dict = field(default_factory=dict)
    memory: dict = field(default_factory=dict)  # {"levels", "total", "ru_maxrss_kib"}
    watchdog: dict | None = None   # last passed check (HealthWatchdog.last_report)

    def as_dict(self) -> dict:
        return {
            "workload": self.workload, "config": self.config,
            "steps": self.steps, "device": self.device,
            "backend": self.backend,
            "status": self.status, "n_records": self.n_records,
            "kernels_per_step": self.kernels_per_step,
            "partial_step": self.partial_step,
            "metrics": self.metrics,
            "roofline": self.roofline.as_dict() if self.roofline else None,
            "drift": self.drift,
            "lint": self.lint,
            "certificate": self.certificate,
            "log_lines": self.log_lines,
            "occupancy": self.occupancy,
            "memory": self.memory,
            "watchdog": self.watchdog,
        }


def _lint_last_step(sim) -> dict:
    """Static lint findings over one step's stream.

    The stream is captured from the run's stepper and its bodies bound
    (no body runs), so it works on any finished (or aborted) run; a run
    that completed no step yields an empty report rather than an error.
    """
    if not sim.runtime.last_step():
        return {"errors": [], "opportunities": [], "touched_bytes": 0}
    from ..analysis.lint import lint_stream
    from ..backend.compiler import bind_stream
    records, _, accesses = bind_stream(sim.stepper)
    report = lint_stream(records, accesses, sim.engine)
    return {
        "errors": [str(f) for f in report.errors],
        "opportunities": [{
            "check": f.check, "field": f.field, "kernel": f.kernel,
            "bytes_saved": f.bytes_saved, "capacity_saved": f.capacity_saved,
            "time_saved_us": round(f.time_saved_us, 3), "detail": f.detail,
        } for f in report.opportunities],
        "touched_bytes": report.touched_bytes,
    }


def _certificate_digest(sim) -> dict:
    """Digest of the executed step plan (ties the run to its certificate)."""
    records = sim.runtime.last_step()
    if not records:
        return {"stream_digest": None, "kernels": 0}
    from ..analysis.certificate import stream_digest
    return {"stream_digest": stream_digest(records), "kernels": len(records)}


def _memory(sim) -> dict:
    """The run's memory ledger by level, its total, and the peak RSS."""
    ledger = memory_ledger(sim.engine)
    levels = [{f: n for (lv, f), n in ledger.items() if lv == level}
              for level in range(sim.num_levels)]
    return {"levels": levels, "total": sum(ledger.values()),
            "ru_maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def collect_report(sim, recorder: SpanRecorder, *,
                   workload: str = "", status: dict | None = None,
                   device: DeviceSpec = A100_40GB, kbc: bool = False,
                   event_log: EventLog | None = None,
                   watchdog: dict | None = None) -> RunReport:
    """Assemble a :class:`RunReport` from a (possibly failed) session.

    ``sim`` may have completed, diverged or aborted mid-step; ``status``
    states which (default ``{"status": "ok"}``).  The metrics are
    :func:`~repro.obs.metrics.run_metrics` of the session; ``watchdog``
    is the last passed health check, kept as it is.  When ``event_log``
    is given the session's spans and metrics are folded into it, and the
    line count is reported.
    """
    rt = sim.runtime
    metrics = run_metrics(sim, recorder=recorder)
    markers = list(rt.markers)
    per_step = [m - (markers[i - 1] if i else 0)
                for i, m in enumerate(markers)]
    done = markers[-1] if markers else 0
    # Steps actually *completed* by the stepper since the trace began
    # (steps_base rebases after a warmup reset or checkpoint restore).
    completed = max(sim.steps_done - getattr(rt, "steps_base", 0), 0)
    # A mid-step failure leaves either records past the last marker (no
    # abort ran) or a closing marker with no completed step behind it
    # (Stepper.step closes the partial step before re-raising).
    partial = len(rt.records) > done or len(markers) > completed

    summary = roofline_summary(recorder, device=device, kbc=kbc) \
        if recorder.kernel_spans else None
    drift = []
    if summary is not None:
        drift = [f.as_dict() for f in drift_findings(
            summary, workload=workload,
            config=sim.stepper.config.name)]

    log_lines = 0
    if event_log is not None:
        event_log.ingest_spans(recorder)
        event_log.ingest_metrics(metrics)
        if status and status.get("status") == "diverged":
            event_log.ingest_watchdog(diverged=status.get("payload", {}))
        log_lines = len(event_log)

    return RunReport(
        workload=workload, config=sim.stepper.config.name,
        steps=min(len(markers), completed), device=device.name,
        backend=getattr(sim.stepper.backend, "name", "interpreted"),
        status=status or {"status": "ok"},
        n_records=len(rt.records), kernels_per_step=per_step,
        partial_step=partial,
        metrics=metrics,
        roofline=summary, drift=drift,
        lint=_lint_last_step(sim),
        certificate=_certificate_digest(sim),
        log_lines=log_lines,
        occupancy=recorder.observed_occupancy(),
        memory=_memory(sim),
        watchdog=watchdog)


# -- terminal rendering --------------------------------------------------------

def _fmt(v, nd: int = 3) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.{nd}f}"
    return str(v)


def render_text(rep: RunReport) -> str:
    """Plain-text rendering for terminals and CI logs."""
    m = rep.metrics
    lines = [
        f"== run report: {rep.workload or '?'} / {rep.config} "
        f"on {rep.device} [{rep.backend}] ==",
        f"status        : {rep.status.get('status', '?')}"
        + ("  [trace truncated mid-step]" if rep.partial_step else ""),
        f"steps         : {rep.steps} traced "
        f"({rep.n_records} kernels; per step {rep.kernels_per_step})",
        f"wall MLUPS    : {_fmt(m.get('wall_mlups'))}   "
        f"bytes/step {_fmt(m.get('bytes_per_step'), 0)}   "
        f"wave depth {_fmt(m.get('wave_depth'), 0)}",
        f"touched bytes : {_fmt(m.get('arena_peak_bytes'), 0)} B   "
        f"cell split {_fmt(m.get('cell_split_parts'), 0)} collide part(s)",
        f"occupancy     : max {rep.occupancy.get('max_concurrent', 0)} "
        f"mean {_fmt(rep.occupancy.get('mean_concurrent', 0.0), 2)}",
    ]
    if rep.backend == "mp":
        lines.append(
            f"mp pool       : {_fmt(m.get('mp_workers'), 0)} workers  "
            f"util {_fmt(m.get('mp_utilisation'), 2)}  "
            f"imbalance {_fmt(m.get('mp_shard_imbalance'), 2)}  "
            f"restarts {_fmt(m.get('mp_worker_restarts'), 0)}")
    if rep.roofline is not None:
        r = rep.roofline
        lines += [
            "-- roofline --",
            f"achieved bw   : {r.achieved_bw:.1f} B/us "
            f"({100 * r.achieved_fraction:.4f}% of {r.device} sustained); "
            f"median skew {r.median_skew:.1f}x",
            "  family      kernels   bytes      obs_us    pred_us   "
            "bw(B/us)   norm_skew",
        ]
        for fam in r.families:
            d = fam.as_dict()
            lines.append(
                f"  {d['family']:<12}{d['kernels']:<10}{d['bytes']:<11}"
                f"{d['observed_us']:<10.1f}{d['predicted_us']:<10.2f}"
                f"{d['achieved_bw']:<11.1f}{d['norm_skew']:.2f}")
        for f in rep.drift:
            lines.append(f"  drift: {f['family']} norm-skew "
                         f"{f['norm_skew']:.2f} > {f['factor']:g} "
                         f"({f['detail']})")
        if not rep.drift:
            lines.append("  drift: none flagged")
    else:
        lines += ["-- roofline --", "  (empty trace: nothing to join)"]
    lines.append("-- lint --")
    for e in rep.lint.get("errors", []):
        lines.append(f"  ERROR {e}")
    opps = rep.lint.get("opportunities", [])
    for o in opps:
        gain = []
        if o["bytes_saved"]:
            gain.append(f"{o['bytes_saved']} B, {o['time_saved_us']:.2f} us")
        if o["capacity_saved"]:
            gain.append(f"{o['capacity_saved']} B capacity")
        lines.append(f"  {o['check']} {o['field']}"
                     + (f" [saves {'; '.join(gain)}]" if gain else ""))
    if not opps and not rep.lint.get("errors"):
        lines.append("  clean (no findings on the last step's stream)")
    cert = rep.certificate
    lines.append("-- certificate --")
    lines.append(f"  stream digest : {cert.get('stream_digest') or '-'} "
                 f"({cert.get('kernels', 0)} kernels/step)")
    if rep.watchdog:
        w = rep.watchdog
        lines.append(f"-- watchdog: {w['checks_run']} check(s), last at step "
                     f"{w['step']} --")
        lines += [f"  level {s['level']}: rho [{_fmt(s['rho_min'], 4)}, "
                  f"{_fmt(s['rho_max'], 4)}]  |u| max {_fmt(s['u_max'], 4)}"
                  for s in w["levels"]]
    if rep.log_lines:
        lines.append("-- event log --")
        lines.append(f"  {rep.log_lines} unified log lines emitted")
    if rep.memory:
        lines.append(f"-- memory: {rep.memory['total']} B held, ru_maxrss "
                     f"{rep.memory['ru_maxrss_kib']} KiB --")
        lines += [f"  level {lv}: " + ", ".join(f"{f} {n}" for f, n in sorted(held.items()))
                  for lv, held in enumerate(rep.memory["levels"])]
    return "\n".join(lines) + "\n"


# -- HTML rendering ------------------------------------------------------------

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 64rem; color: #1a1a1a; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
table { border-collapse: collapse; width: 100%; margin: .5rem 0; }
th, td { text-align: left; padding: .25rem .6rem;
         border-bottom: 1px solid #ddd; font-variant-numeric: tabular-nums; }
th { background: #f4f4f4; }
.bad { color: #b00020; font-weight: 600; }
.ok  { color: #1b6e20; }
.tag { display: inline-block; padding: 0 .5rem; border-radius: 8px;
       background: #eef; margin-right: .4rem; }
code { background: #f4f4f4; padding: 0 .3rem; }
"""


def _table(headers: list[str], rows: list[list]) -> str:
    head = "".join(f"<th>{_html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_html.escape(str(c))}</td>" for c in row)
        + "</tr>" for row in rows)
    return f"<table><tr>{head}</tr>{body}</table>"


def render_html(rep: RunReport) -> str:
    """Self-contained single-file HTML rendering (CI artifact)."""
    m = rep.metrics
    status = rep.status.get("status", "?")
    status_cls = "ok" if status == "ok" else "bad"
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>run report: {_html.escape(rep.workload)} / "
        f"{_html.escape(rep.config)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Run report — {_html.escape(rep.workload or '?')} / "
        f"{_html.escape(rep.config)} on {_html.escape(rep.device)}</h1>",
        f"<p><span class='tag {status_cls}'>status: {status}</span>"
        + ("<span class='tag bad'>trace truncated mid-step</span>"
           if rep.partial_step else "")
        + f"<span class='tag'>{rep.steps} steps</span>"
        + f"<span class='tag'>{rep.n_records} kernels</span>"
        + (f"<span class='tag'>{rep.log_lines} log lines</span>"
           if rep.log_lines else "") + "</p>",
        "<h2>Metrics</h2>",
        _table(["metric", "value"],
               [[k, _fmt(v)] for k, v in sorted(m.items())
                if isinstance(v, (int, float))]),
    ]
    if rep.roofline is not None:
        r = rep.roofline
        parts += [
            "<h2>Roofline</h2>",
            f"<p>achieved bandwidth <b>{r.achieved_bw:.1f} B/µs</b> "
            f"({100 * r.achieved_fraction:.4f}% of {_html.escape(r.device)} "
            f"sustained), median skew {r.median_skew:.1f}×</p>",
            _table(["family", "kernels", "bytes", "observed µs",
                    "predicted µs", "bw (B/µs)", "norm skew"],
                   [[d["family"], d["kernels"], d["bytes"],
                     f"{d['observed_us']:.1f}", f"{d['predicted_us']:.2f}",
                     f"{d['achieved_bw']:.1f}", f"{d['norm_skew']:.2f}"]
                    for d in (fam.as_dict() for fam in r.families)]),
        ]
        if rep.drift:
            parts.append("<h2 class='bad'>Drift</h2>")
            parts.append(_table(
                ["family", "norm skew", "factor", "detail"],
                [[f["family"], f"{f['norm_skew']:.2f}", f["factor"],
                  f["detail"]] for f in rep.drift]))
        if r.steps:
            parts.append("<h2>Per-step bandwidth</h2>")
            parts.append(_table(
                ["step", "bytes", "observed µs", "bw (B/µs)"],
                [[s["step"], s["bytes"], f"{s['observed_us']:.1f}",
                  f"{s['achieved_bw']:.1f}"]
                 for s in (sb.as_dict() for sb in r.steps)]))
    errors = rep.lint.get("errors", [])
    opps = rep.lint.get("opportunities", [])
    parts.append("<h2>Lint</h2>")
    if errors:
        parts.append(_table(["error"], [[e] for e in errors]))
    if opps:
        parts.append(_table(
            ["check", "field", "bytes saved", "µs saved", "capacity saved",
             "detail"],
            [[o["check"], o["field"], o["bytes_saved"],
              f"{o['time_saved_us']:.2f}", o["capacity_saved"], o["detail"]]
             for o in opps]))
    if not errors and not opps:
        parts.append("<p class='ok'>clean — no findings on the last step's "
                     "stream</p>")
    cert = rep.certificate
    parts += [
        "<h2>Certificate</h2>",
        f"<p>step-plan stream digest: "
        f"<code>{_html.escape(str(cert.get('stream_digest') or '-'))}</code> "
        f"({cert.get('kernels', 0)} kernels/step)</p>",
        "</body></html>",
    ]
    return "".join(parts)


def write_report(rep: RunReport, stem: str, out_dir: str) -> dict[str, str]:
    """Write the JSON + HTML renderings; returns their paths."""
    import os
    paths = {
        "json": os.path.join(out_dir, f"report_{stem}.json"),
        "html": os.path.join(out_dir, f"report_{stem}.html"),
    }
    text = json.dumps(rep.as_dict(), indent=2, default=str) + "\n"
    atomic_write(paths["json"], lambda fh: fh.write(text), "w")
    page = render_html(rep)
    atomic_write(paths["html"], lambda fh: fh.write(page), "w")
    return paths
