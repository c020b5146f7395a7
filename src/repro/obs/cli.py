"""``python -m repro report`` — run a workload under full telemetry.

Runs one (workload, fusion-config) pair with the span tracer installed
and the health watchdog armed, then writes into ``--out-dir``:

* ``trace_<workload>_<config>.json`` — a Chrome-trace/Perfetto timeline
  (load it at https://ui.perfetto.dev) with one observed track per
  concurrency stream plus the cost-model-predicted schedule;
* ``report_<workload>_<config>.json`` / ``.html`` — the run report:
  trace summary, metrics, roofline accounting (achieved bandwidth +
  drift), lint opportunities and the step-plan certificate digest (see
  :mod:`repro.obs.report`);
* ``events_<workload>_<config>.jsonl`` — the unified JSON-lines event
  log: one ``watchdog`` line per health check, the spans, and a final
  ``metric`` line equal to the report's ``metrics``.

The trace is re-read from disk and validated structurally before the
process exits (exactly one complete slice per kernel record); the exit
status is non-zero on an invalid trace or a detected divergence.
``--drift`` additionally sweeps all 7 fusion configs (2D and 3D) through
the roofline join and reports families whose predicted-vs-observed skew
is out of line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from ..bench.workloads import SMALL_WORKLOADS, lid_cavity
from ..core.fusion import get_config
from ..core.simulation import Simulation
from ..gpu.device import get_device
from ..io.checkpoint import atomic_write
from .log import EventLog
from .report import collect_report, render_text, write_report
from .roofline import drift_report
from .trace import validate_trace, write_chrome_trace
from .watchdog import HealthWatchdog, SimulationDiverged

__all__ = ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro report`` — one instrumented run, all artifacts."""
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Run one workload under the span tracer and the "
                    "health watchdog; write its Perfetto trace, run report "
                    "(text/HTML/JSON: metrics, roofline, lint, certificate "
                    "digest) and event log, and validate the trace.")
    parser.add_argument("--workload", default="cavity2d",
                        choices=sorted(SMALL_WORKLOADS),
                        help="workload to run (default cavity2d, the "
                             "Fig. 2 golden setup)")
    parser.add_argument("--config", default="ours-4f",
                        help="fusion preset name (default ours-4f)")
    parser.add_argument("--steps", type=int, default=3,
                        help="coarse steps to run (default 3)")
    parser.add_argument("--device", default="A100-40GB",
                        help="device spec for the predicted track")
    parser.add_argument("--out-dir", default=".",
                        help="output directory for the artifacts")
    parser.add_argument("--drift", action="store_true",
                        help="also sweep all 7 fusion configs (2D+3D) "
                             "through the roofline join and report drift")
    args = parser.parse_args(argv)

    try:
        cfg = get_config(args.config)
        device = get_device(args.device)
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    wl = lid_cavity(**SMALL_WORKLOADS[args.workload])
    kbc = wl.collision.lower() == "kbc"
    log = EventLog(workload=args.workload, config=cfg.name)
    log.emit("meta", workload=args.workload, config=cfg.name,
             steps=args.steps, device=device.name)
    with Simulation.from_config(wl.spec, wl.sim_config(fusion=cfg)) as sim:
        recorder = sim.enable_tracing()
        watchdog = HealthWatchdog(sim)

        def monitor(stepper) -> None:
            log.ingest_watchdog(report=watchdog.check())

        try:
            sim.run(args.steps, callback=monitor)
            status: dict = {"status": "ok"}
        except SimulationDiverged as exc:
            status = {"status": "diverged", "payload": exc.payload}
        rep = collect_report(sim, recorder, workload=args.workload,
                             status=status, device=device, kbc=kbc,
                             event_log=log, watchdog=watchdog.last_report)

    stem = f"{args.workload}_{cfg.name}"
    trace_path = write_chrome_trace(
        os.path.join(args.out_dir, f"trace_{stem}.json"), recorder,
        device=device, kbc=kbc)
    paths = write_report(rep, stem, args.out_dir)
    log_path = log.write(os.path.join(args.out_dir, f"events_{stem}.jsonl"),
                         append=False)

    sys.stdout.write(render_text(rep))
    print(f"trace         : {trace_path}  (open at https://ui.perfetto.dev)")
    print(f"report json   : {paths['json']}")
    print(f"report html   : {paths['html']}")
    print(f"event log     : {log_path}")

    # Validate what actually landed on disk, round-tripped through JSON.
    with open(trace_path) as fh:
        problems = validate_trace(json.load(fh), rep.n_records)
    for p in problems:
        print(f"trace INVALID : {p}", file=sys.stderr)
    if not problems:
        print(f"trace OK      : {rep.n_records} kernel slices, 1 per record")

    if args.drift:
        dr = drift_report(steps=max(args.steps, 2), device=device)
        drift_path = os.path.join(args.out_dir, "drift_report.json")
        text = json.dumps(dr.as_dict(), indent=2) + "\n"
        atomic_write(drift_path, lambda fh: fh.write(text), "w")
        print(f"drift sweep   : {len(dr.entries)} (workload, config) "
              f"entries, {len(dr.findings)} flagged -> {drift_path}")
        for f in dr.findings:
            print(f"  {f}")

    return 1 if (problems or status["status"] != "ok") else 0
