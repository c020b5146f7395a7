"""``python -m repro obs`` — run a workload under full telemetry.

Runs one (workload, fusion-config) pair with the span tracer installed
and the health watchdog armed, then emits

* ``trace_<workload>_<config>.json`` — a Chrome-trace/Perfetto timeline
  (load it at https://ui.perfetto.dev) with one observed track per
  concurrency stream plus the cost-model-predicted schedule;
* ``metrics_<workload>_<config>.json`` — the metrics-registry report
  (MLUPS, bytes/step, kernels/step, active cells, wave depth, watchdog
  status and its periodic snapshots).

The emitted trace is validated structurally before the process exits
(exactly one complete slice per kernel record, parseable JSON); exit
status is non-zero on validation failure or a detected divergence.

``python -m repro report`` is the observatory entry point: the same
telemetry session rendered as one terminal/HTML run report — trace
summary, metrics, roofline accounting (achieved bandwidth + drift),
lint opportunities, the step-plan certificate digest and a unified
JSON-lines event log (see :mod:`repro.obs.report`).  ``report --drift``
additionally sweeps all 7 fusion configs (2D and 3D) through the
roofline join and reports families whose predicted-vs-observed skew is
out of line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from ..core.fusion import get_config
from ..core.simulation import Simulation
from ..gpu.device import get_device
from .metrics import MetricsRegistry, run_metrics
from .spans import SpanRecorder
from .trace import chrome_trace, validate_trace
from .watchdog import HealthWatchdog, SimulationDiverged

__all__ = ["main", "report_main", "run_workload", "OBS_WORKLOADS",
           "CONFIG_ALIASES"]

#: Named workloads small enough for functional telemetry runs.
#: ``cavity2d`` is the Fig. 2 golden setup: a 3-level 24x24 cavity whose
#: per-coarse-step kernel counts are 29 (baseline-4b) / 10 (ours-4f).
OBS_WORKLOADS: dict[str, dict] = {
    "cavity2d": dict(base=(24, 24), num_levels=3, lattice="D2Q9",
                     widths=[7.0, 2.0]),
    "cavity2d-2lvl": dict(base=(20, 20), num_levels=2, lattice="D2Q9"),
    "cavity3d": dict(base=(12, 12, 12), num_levels=3, lattice="D3Q19"),
}

#: Friendly spellings of the fusion presets.
CONFIG_ALIASES: dict[str, str] = {
    "case": "ours-4f", "ours": "ours-4f", "fused": "ours-4f",
    "baseline": "baseline-4b", "original": "baseline-4a",
}


def _resolve_config(name: str):
    return get_config(CONFIG_ALIASES.get(name, name))


def _telemetry_session(workload: str, config_name: str, *, steps: int = 3,
                       watchdog_every: int = 1) -> dict:
    """Run one instrumented session and return the live objects.

    Shared by the trace-export path (:func:`run_workload`) and the
    observatory report path (:func:`report_main`): builds the workload,
    installs the span tracer, arms the watchdog, runs, and publishes the
    standard metrics.  Divergence is caught and reported in ``status``.
    """
    from ..bench.workloads import lid_cavity

    cfg = _resolve_config(config_name)
    wl = lid_cavity(**OBS_WORKLOADS[workload])
    sim = Simulation.from_config(wl.spec, wl.sim_config(fusion=cfg))
    recorder = sim.enable_tracing()
    registry = MetricsRegistry()
    watchdog = HealthWatchdog(sim, every=watchdog_every, registry=registry)

    def monitor(stepper) -> None:
        watchdog.callback(stepper)
        if stepper.steps_done % max(watchdog_every, 1) == 0:
            registry.snapshot(step=stepper.steps_done)

    try:
        sim.run(steps, callback=monitor, callback_every=1)
        status: dict = {"status": "ok"}
    except SimulationDiverged as exc:
        status = {"status": "diverged", "payload": exc.payload}

    run_metrics(sim, registry, recorder=recorder)
    return {"sim": sim, "recorder": recorder, "registry": registry,
            "watchdog": watchdog, "status": status, "workload": wl,
            "config": cfg, "kbc": wl.collision.lower() == "kbc"}


def run_workload(workload: str, config_name: str, *, steps: int = 3,
                 device_name: str = "A100-40GB",
                 watchdog_every: int = 1) -> dict:
    """Run one telemetry session; return trace/metrics/report dicts."""
    device = get_device(device_name)
    ses = _telemetry_session(workload, config_name, steps=steps,
                             watchdog_every=watchdog_every)
    sim, recorder, registry = ses["sim"], ses["recorder"], ses["registry"]
    watchdog, status, wl, cfg = (ses["watchdog"], ses["status"],
                                 ses["workload"], ses["config"])
    trace = chrome_trace(recorder, device=device, kbc=ses["kbc"])
    per_step = [m - (sim.runtime.markers[i - 1] if i else 0)
                for i, m in enumerate(sim.runtime.markers)]
    return {
        "workload": wl.name,
        "config": cfg.name,
        "steps": sim.steps_done,
        "trace": trace,
        "kernels_per_step": per_step,
        "metrics": registry.as_dict(),
        "watchdog": {**status, "checks_run": watchdog.checks_run,
                     "last_report": watchdog.last_report},
        "n_records": len(sim.runtime.records),
    }


def _print_report(res: dict, out) -> None:
    metrics = res["metrics"]["metrics"]

    def val(name):
        m = metrics.get(name)
        return m["value"] if m else float("nan")

    print(f"workload {res['workload']}  config {res['config']}  "
          f"steps {res['steps']}", file=out)
    print(f"  kernels/step : {val('kernels_per_step'):.1f}  "
          f"(per step: {res['kernels_per_step']})", file=out)
    print(f"  bytes/step   : {val('bytes_per_step') / 1e6:.3f} MB", file=out)
    print(f"  atomic bytes : {val('atomic_bytes_total') / 1e3:.1f} kB total",
          file=out)
    print(f"  wave depth   : {val('wave_depth'):.0f} syncs/step "
          f"(max width {val('wave_max_width'):.0f})", file=out)
    print(f"  MLUPS (wall) : {val('wall_mlups'):.3f}", file=out)
    print(f"  cell split   : {val('cell_split_parts'):.0f} part(s) on the "
          f"largest level", file=out)
    print(f"  span cover   : {val('span_total_us'):.0f} us over "
          f"{res['n_records']} kernels", file=out)
    wd = res["watchdog"]
    print(f"  watchdog     : {wd['status']} after {wd['checks_run']} check(s)",
          file=out)
    if wd["status"] == "diverged":
        p = wd["payload"]
        print(f"      {p['reason']} in {p['field']}@{p['level']} at step "
              f"{p['step']}, cells {p['cells']}", file=out)


def report_main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro report`` — the observatory run report."""
    from .log import EventLog
    from .report import collect_report, render_text, write_report
    from .roofline import drift_report

    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Render one telemetry session as a terminal/HTML run "
                    "report: trace + metrics + roofline + lint "
                    "opportunities + certificate digest + event log.")
    parser.add_argument("--workload", default="cavity2d",
                        choices=sorted(OBS_WORKLOADS))
    parser.add_argument("--config", default="case",
                        help="fusion config name or alias")
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument("--device", default="A100-40GB")
    parser.add_argument("--watchdog-every", type=int, default=1)
    parser.add_argument("--out", default=".",
                        help="output directory for report + event log")
    parser.add_argument("--drift", action="store_true",
                        help="also sweep all 7 fusion configs (2D+3D) "
                             "through the roofline join and report drift")
    parser.add_argument("--drift-factor", type=float, default=3.0,
                        help="normalized-skew factor that flags a family")
    parser.add_argument("--run-id", default=None,
                        help="run identity stamped on every event-log line")
    parser.add_argument("--label", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="extra event-log label (repeatable) — the "
                             "per-tenant seam")
    args = parser.parse_args(argv)

    try:
        cfg = _resolve_config(args.config)
        device = get_device(args.device)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    labels = {}
    for item in args.label:
        if "=" not in item:
            parser.error(f"--label wants KEY=VALUE, got {item!r}")
        k, _, v = item.partition("=")
        labels[k] = v

    ses = _telemetry_session(args.workload, args.config, steps=args.steps,
                             watchdog_every=args.watchdog_every)
    log = EventLog(run_id=args.run_id, workload=args.workload,
                   config=cfg.name, **labels)
    log.emit("meta", workload=args.workload, config=cfg.name,
             steps=args.steps, device=device.name)
    rep = collect_report(ses["sim"], ses["recorder"], ses["registry"],
                         workload=args.workload, status=ses["status"],
                         device=device, kbc=ses["kbc"],
                         drift_factor=args.drift_factor, event_log=log)
    rep.log_lines = len(log)

    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.workload}_{cfg.name}"
    paths = write_report(rep, stem, args.out)
    log_path = os.path.join(args.out, f"events_{stem}.jsonl")
    log.write(log_path, append=False)

    sys.stdout.write(render_text(rep))
    print(f"report json   : {paths['json']}")
    print(f"report html   : {paths['html']}")
    print(f"event log     : {log_path}")

    if args.drift:
        dr = drift_report(steps=max(args.steps, 2), device=device,
                          factor=args.drift_factor)
        drift_path = os.path.join(args.out, "drift_report.json")
        with open(drift_path, "w") as fh:
            json.dump(dr.as_dict(), fh, indent=2)
            fh.write("\n")
        print(f"drift sweep   : {len(dr.entries)} (workload, config) "
              f"entries, {len(dr.findings)} flagged -> {drift_path}")
        for f in dr.findings:
            print(f"  {f}")

    return 1 if rep.status.get("status") != "ok" else 0


def main(argv: Sequence[str] | None = None) -> int:
    args_in = list(sys.argv[1:] if argv is None else argv)
    if args_in and args_in[0] == "report":
        return report_main(args_in[1:])
    return _run_main(args_in)


def _run_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Telemetry runner: span tracer + Perfetto timeline "
                    "export + metrics report + health watchdog.  "
                    "Subcommand 'report' renders the observatory run "
                    "report instead (see python -m repro report -h).")
    parser.add_argument("--workload", default="cavity2d",
                        choices=sorted(OBS_WORKLOADS),
                        help="workload to run (default cavity2d, the "
                             "Fig. 2 golden setup)")
    parser.add_argument("--config", default="case",
                        help="fusion config name or alias "
                             f"({', '.join(sorted(CONFIG_ALIASES))}, or any "
                             "preset name; default 'case' = ours-4f)")
    parser.add_argument("--steps", type=int, default=3,
                        help="coarse steps to run (default 3)")
    parser.add_argument("--device", default="A100-40GB",
                        help="device spec for the predicted track")
    parser.add_argument("--watchdog-every", type=int, default=1,
                        help="health-check cadence in coarse steps")
    parser.add_argument("--out", default=".",
                        help="output directory for the JSON artifacts")
    args = parser.parse_args(argv)

    try:
        cfg = _resolve_config(args.config)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    try:
        get_device(args.device)
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    res = run_workload(args.workload, args.config, steps=args.steps,
                       device_name=args.device,
                       watchdog_every=args.watchdog_every)

    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.workload}_{cfg.name}"
    trace_path = os.path.join(args.out, f"trace_{stem}.json")
    with open(trace_path, "w") as fh:
        json.dump(res["trace"], fh)
        fh.write("\n")
    metrics_path = os.path.join(args.out, f"metrics_{stem}.json")
    with open(metrics_path, "w") as fh:
        json.dump({k: v for k, v in res.items() if k != "trace"}, fh, indent=2)
        fh.write("\n")

    _print_report(res, sys.stdout)
    print(f"  trace        : {trace_path}  (open at https://ui.perfetto.dev)")
    print(f"  metrics      : {metrics_path}")

    # Validate what actually landed on disk, round-tripped through JSON.
    with open(trace_path) as fh:
        problems = validate_trace(json.load(fh), res["n_records"])
    for p in problems:
        print(f"  trace INVALID: {p}", file=sys.stderr)
    if not problems:
        print(f"  trace OK     : {res['n_records']} kernel slices, "
              f"1 per record")
    diverged = res["watchdog"]["status"] != "ok"
    return 1 if (problems or diverged) else 0
