"""``python -m repro serve`` — the job-server demo flood and fleet summary.

Two modes:

* **flood** (default): synthesize a multi-tenant flood of mixed-size
  lid-cavity jobs, run them through a :class:`~repro.serve.server.JobServer`
  on ``--workers`` worker processes — optionally with chaos-injected
  worker deaths (the server SIGKILLs the worker) — and print the
  per-tenant fleet summary.  Everything durable
  (job state, checkpoints, ``events.jsonl``, ``fleet_summary.json``)
  lands in ``--out-dir``.
* **--summary**: post-hoc fleet health from a server root on disk,
  derived from the persisted ``job.json`` records by the same function
  the server's own summary uses.

Shared conventions with the other ``python -m repro`` subcommands:
``--out-dir`` for artifacts, ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys

from ..bench.workloads import lid_cavity
from ..core.config import SimConfig
from .server import JobServer
from .spec import JobSpec, JobStatus, WorkerKilled
from .state import fleet_tables, scan_jobs

__all__ = ["main", "build_flood", "summary_from_disk"]


def build_flood(jobs: int = 20, tenants: int = 3, seed: int = 0,
                steps_min: int = 4, steps_max: int = 10,
                checkpoint_every: int = 2) -> list[JobSpec]:
    """A deterministic multi-tenant flood of mixed-size cavity jobs.

    Sizes, levels and step targets vary per job (seeded), so predicted
    costs differ enough for the fair scheduler to have real work to do.
    """
    rng = random.Random(seed)
    specs: list[JobSpec] = []
    for i in range(jobs):
        base = rng.choice((10, 12, 16))
        levels = rng.choice((1, 2))
        wl = lid_cavity(base=(base, base), num_levels=levels,
                        lattice="D2Q9", collision="bgk")
        cfg = SimConfig(lattice="D2Q9", collision="bgk",
                        viscosity=wl.viscosity, threaded=False)
        specs.append(JobSpec(
            spec=wl.spec, config=cfg,
            steps=rng.randint(steps_min, steps_max),
            tenant=f"tenant-{i % tenants}",
            priority=rng.choice((0, 0, 1)),
            checkpoint_every=checkpoint_every,
            job_id=f"flood-{i:03d}",
            labels=(("workload", wl.name),)))
    return specs


def _chaos_hook(probability: float, seed: int = 0):
    """A seeded worker-death injector for the demo flood."""
    rng = random.Random(seed)

    def chaos(job_id: str, step: int) -> None:
        if step > 0 and rng.random() < probability:
            raise WorkerKilled(f"chaos killed worker of {job_id} at step {step}")

    return chaos


async def _run_flood(args) -> dict:
    chaos = _chaos_hook(args.chaos, args.seed) if args.chaos > 0 else None
    server = JobServer(args.out_dir, workers=args.workers, chaos=chaos,
                       max_restarts=max(4, args.jobs))
    async with server:
        for spec in build_flood(jobs=args.jobs, tenants=args.tenants,
                                seed=args.seed):
            await server.submit(spec)
        await server.drain()
        summary = server.fleet_summary()
    return summary


def summary_from_disk(root: str) -> dict:
    """Fleet summary of a server root, derived from its ``job.json`` records.

    The tables come from :func:`~repro.serve.state.fleet_tables`, the
    function :meth:`JobServer.fleet_summary` uses on the live records.
    """
    jobs = [JobStatus.from_dict(state) for _, state in scan_jobs(root)]
    return {"version": 1, "root": str(root), **fleet_tables(jobs),
            "jobs": [job.as_dict() for job in jobs]}


def _print_summary(summary: dict) -> None:
    print(f"# fleet summary ({summary.get('root', '?')})")
    states = summary.get("states", {})
    print(f"jobs: {summary.get('jobs_total', 0)}  " +
          "  ".join(f"{k}={v}" for k, v in sorted(states.items())))
    tenants = summary.get("tenants", {})
    if tenants:
        cols = ("tenant", "submitted", "done", "failed", "restarts",
                "retries", "checkpoints", "steps_done", "predicted_cost_us")
        rows = [[t] + [s.get(c, 0) for c in cols[1:]]
                for t, s in sorted(tenants.items())]
        widths = [max(len(str(c)), *(len(f"{r[i]:.0f}" if isinstance(r[i], float)
                                         else str(r[i])) for r in rows))
                  for i, c in enumerate(cols)]
        print("  ".join(c.ljust(widths[i]) for i, c in enumerate(cols)))
        for r in rows:
            print("  ".join(
                (f"{v:.0f}" if isinstance(v, float) else str(v)).ljust(widths[i])
                for i, v in enumerate(r)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="async multi-tenant simulation job server (demo flood "
                    "and fleet summary)")
    parser.add_argument("--jobs", type=int, default=20,
                        help="flood size (default 20)")
    parser.add_argument("--tenants", type=int, default=3,
                        help="tenants in the flood (default 3)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes, one job each at a time "
                             "(default 2)")
    parser.add_argument("--chaos", type=float, default=0.0, metavar="P",
                        help="per-checkpoint worker-death probability "
                             "(demonstrates recovery; default 0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="flood/chaos RNG seed (default 0)")
    parser.add_argument("--out-dir", default="serve-out",
                        help="server root for durable state and artifacts "
                             "(default ./serve-out)")
    parser.add_argument("--summary", action="store_true",
                        help="print the fleet summary of --out-dir instead "
                             "of running a flood")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    args = parser.parse_args(argv)

    if args.summary:
        summary = summary_from_disk(args.out_dir)
    else:
        summary = asyncio.run(_run_flood(args))
    if args.json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True, default=str)
        print()
    else:
        _print_summary(summary)
    if not args.summary:
        lost = [j for j in summary.get("jobs", [])
                if j.get("state") not in ("done", "cancelled")]
        if lost:
            print(f"LOST/FAILED JOBS: {[j.get('job_id') for j in lost]}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
