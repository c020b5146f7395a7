"""``python -m repro resilience`` — the recovery fault matrix.

Runs every requested (fusion config x fault kind x execution mode) cell:
an unfaulted serial run of the workload provides the per-config
reference state, then each faulted run must *recover* — roll back to the
last good checkpoint, retry, and finish with population buffers
**bit-identical** to the reference.  Because serial and threaded
execution are themselves bit-identical, one serial reference per fusion
config covers both modes.

Every cell runs on the ``compiled`` backend — faults are injected into,
and recovered on, the plan replay that ships — and must report zero
``plan_fallback_steps``: a cell that quietly ran on the interpreted
reference path fails the matrix.  Each cell also has to leave a visible
trail in its ``RunResult`` (``retries >= 1`` and at least one
``rollback`` entry in ``events``), so a recovery that silently happened
— or silently didn't — fails the matrix.  Results land in
``BENCH_resilience.json`` via :func:`repro.obs.metrics.write_bench_json`;
the exit status is non-zero if any cell failed, which is what CI gates
on.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from ..bench.workloads import ALL_CONFIGS, SMALL_WORKLOADS, lid_cavity
from ..core.config import SimConfig
from ..core.fusion import get_config
from ..core.simulation import Simulation
from ..obs.metrics import write_bench_json
from .faults import Fault, FaultInjector
from .runner import ResilientRunner, RetryExhausted, RetryPolicy

__all__ = ["main", "run_matrix"]

FAULT_KINDS = ("nan", "kernel", "oom")
MODES = ("serial", "threaded")


def _state(sim: Simulation) -> list:
    return [buf.f[:, :buf.n_owned].copy() for buf in sim.engine.levels]


def _identical(a: list, b: list) -> bool:
    import numpy as np
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _make_fault(kind: str, step: int) -> Fault:
    # One transient fault mid-run; level 0 / cell 0 / the step's first
    # kernel are always present regardless of workload or fusion config.
    return Fault(kind, step=step)


def run_matrix(workload: str = "cavity2d-2lvl", *,
               configs: Sequence[str] | None = None,
               faults: Sequence[str] = FAULT_KINDS,
               modes: Sequence[str] = MODES,
               steps: int = 10, policy: RetryPolicy | None = None) -> dict:
    """Run the matrix; return ``{"rows": [...], "summary": {...}}``."""
    wl = lid_cavity(**SMALL_WORKLOADS[workload])
    fusion_cfgs = (ALL_CONFIGS if configs is None
                   else [get_config(c) for c in configs])
    pol = policy if policy is not None else RetryPolicy(checkpoint_every=4)
    fault_step = max(2, steps // 2 + 1)  # mid-run, never the final step
    rows: list[dict] = []
    for fusion in fusion_cfgs:
        base_cfg = SimConfig(lattice=wl.lattice, collision=wl.collision,
                             viscosity=wl.viscosity, fusion=fusion,
                             backend="compiled")
        with Simulation.from_config(wl.spec, base_cfg,
                                    backend="interpreted",
                                    threaded=False) as ref_sim:
            ref_sim.run(steps)
            reference = _state(ref_sim)
        for mode in modes:
            cfg = base_cfg.replace(threaded=(mode == "threaded"))
            for kind in faults:
                injector = FaultInjector([_make_fault(kind, fault_step)])
                runner = ResilientRunner(wl.spec, cfg, policy=pol,
                                         faults=injector)
                row = {"config": fusion.name, "mode": mode, "fault": kind,
                       "fault_step": fault_step}
                try:
                    result = runner.run(steps)
                    row.update(
                        outcome=result.outcome,
                        retries=result.retries,
                        rollback_steps=result.rollback_steps,
                        checkpoints=result.checkpoints,
                        identical=_identical(reference, _state(runner.sim)),
                        telemetry=result.retries >= 1 and any(
                            e["name"] == "rollback" for e in result.events),
                    )
                except RetryExhausted as exc:
                    row.update(outcome="failed", retries=exc.result.retries,
                               rollback_steps=exc.result.rollback_steps,
                               checkpoints=exc.result.checkpoints,
                               identical=False, telemetry=True)
                finally:
                    row["injected"] = len(injector.fired)
                    row["plan_fallback_steps"] = int(
                        runner.sim.backend.stats["plan_fallback_steps"])
                    runner.close()
                row["ok"] = bool(
                    row["outcome"] == "ok" and row["identical"]
                    and row["injected"] >= 1 and row["telemetry"]
                    and row["plan_fallback_steps"] == 0)
                rows.append(row)
    passed = sum(1 for r in rows if r["ok"])
    return {
        "workload": wl.name,
        "steps": steps,
        "fault_step": fault_step,
        "rows": rows,
        "summary": {"cells": len(rows), "passed": passed,
                    "failed": len(rows) - passed},
    }


def _print_matrix(result: dict, out) -> None:
    print(f"workload {result['workload']}  steps {result['steps']}  "
          f"fault at step {result['fault_step']}", file=out)
    header = (f"{'config':<18} {'mode':<9} {'fault':<7} {'outcome':<9} "
              f"{'retries':>7} {'rollback':>8} {'identical':>9} "
              f"{'fallback':>8} {'ok':>4}")
    print(header, file=out)
    print("-" * len(header), file=out)
    for r in result["rows"]:
        print(f"{r['config']:<18} {r['mode']:<9} {r['fault']:<7} "
              f"{r['outcome']:<9} {r['retries']:>7} {r['rollback_steps']:>8} "
              f"{str(r['identical']):>9} {r['plan_fallback_steps']:>8} "
              f"{'yes' if r['ok'] else 'NO':>4}",
              file=out)
    s = result["summary"]
    print(f"{s['passed']}/{s['cells']} cells recovered bit-identically",
          file=out)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro resilience",
        description="Fault matrix: inject NaN/kernel/OOM faults across "
                    "fusion configs and execution modes on compiled "
                    "plan replay, verify every recovered run is "
                    "bit-identical to an unfaulted reference and never "
                    "left the plan path.")
    parser.add_argument("--workload", default="cavity2d-2lvl",
                        choices=sorted(SMALL_WORKLOADS))
    parser.add_argument("--configs", default="all",
                        help="comma-separated fusion presets, or 'all' "
                             "(default) for the full Fig.-4 set")
    parser.add_argument("--faults", default=",".join(FAULT_KINDS),
                        help=f"comma-separated fault kinds "
                             f"(default {','.join(FAULT_KINDS)})")
    parser.add_argument("--modes", default=",".join(MODES),
                        help="comma-separated execution modes "
                             "(default serial,threaded)")
    parser.add_argument("--steps", type=int, default=10,
                        help="coarse steps per run (default 10)")
    parser.add_argument("--checkpoint-every", type=int, default=4,
                        help="checkpoint cadence in coarse steps")
    parser.add_argument("--max-retries", type=int, default=3)
    parser.add_argument("--out-dir", default=None,
                        help="directory for BENCH_resilience.json "
                             "(default $BENCH_OUT_DIR or cwd)")
    args = parser.parse_args(argv)

    configs = None if args.configs == "all" else args.configs.split(",")
    for kind in args.faults.split(","):
        if kind not in FAULT_KINDS:
            parser.error(f"unknown fault kind {kind!r}")
    for mode in args.modes.split(","):
        if mode not in MODES:
            parser.error(f"unknown mode {mode!r}")

    policy = RetryPolicy(checkpoint_every=args.checkpoint_every,
                         max_retries=args.max_retries)
    try:
        result = run_matrix(args.workload, configs=configs,
                            faults=args.faults.split(","),
                            modes=args.modes.split(","),
                            steps=args.steps, policy=policy)
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    _print_matrix(result, sys.stdout)
    path = write_bench_json("resilience", result, out_dir=args.out_dir)
    print(f"wrote {path}")
    return 0 if result["summary"]["failed"] == 0 else 1
