"""``python -m repro analysis`` — gate every fusion configuration.

For each requested :class:`~repro.core.fusion.FusionConfig` and workload
one pass over the access map the capture's reports state (no body runs
for it: :func:`~repro.analysis.static.plan_stream`) checks the
fusion-legality proof, the lint pass and the step-plan certificate,
whose wave schedule is the one the records' dependency graph gives;

then steps the simulation to check it stays finite, and runs the
seeded-illegal negative controls per workload (a Collision hoisted over
an Explosion, and an Explode moved behind the coarser level's Stream).

Exit status is non-zero when any finding or failed gate survives —
this is the CI gate that every future fusion/optimisation change must
keep green.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence, TextIO

from ..bench.workloads import ALL_CONFIGS, SMALL_WORKLOADS
from ..core.fusion import FusionConfig, get_config

__all__ = ["ALL_CONFIGS", "main", "small_workloads", "static_check"]


def small_workloads() -> dict[str, dict[str, Any]]:
    """Small-but-representative multigrid workloads for the gate.

    Both exercise moving-wall + no-slip boundaries and every cross-level
    operator (Explosion, Accumulate, Coalescence) while staying fast
    enough to sweep 7 configurations x 2 workloads in seconds.
    """
    return {name: SMALL_WORKLOADS[name]
            for name in ("cavity2d-2lvl", "cavity3d-3lvl")}


def static_check(config: FusionConfig, workload: str = "cavity2d-2lvl",
                 steps: int = 2, cert_dir: str | None = None) -> dict[str, Any]:
    """Analyse ``steps`` coarse steps of one config; returns a report dict.

    The stream is captured, and the access map is what its reports
    state (:func:`~repro.analysis.static.plan_stream`).  Over that one
    map, each failure is a ``problem``:

    1. the fusion is proved a legal contraction of the modified baseline
       on the same engine
       (:func:`~repro.backend.compiler.prove_plan_legality`);
    2. the lint pass reports no ``error``-severity findings;
    3. the emitted certificate validates against the stream;
    4. the simulation, stepped ``steps`` times on the interpreted
       backend, stays finite.

    With ``cert_dir``, the step-plan certificate is written there as
    ``<config>--<workload>.json``.
    """
    from ..backend.compiler import prove_plan_legality
    from .capture import AccessTracer
    from .certificate import build_certificate, validate_certificate, \
        write_certificate
    from .lint import lint_stream
    from .static import plan_stream

    records, accesses, sim = plan_stream(config, small_workloads()[workload],
                                         steps=steps)
    proof = prove_plan_legality(sim.stepper, records, AccessTracer(), steps)
    lint = lint_stream(records, accesses, sim.engine)
    cert = build_certificate(config.name, workload, records, accesses, proof,
                             lint, steps)
    cert_problems = validate_certificate(cert, records)
    cert_path = None
    if cert_dir is not None:
        cert_path = str(write_certificate(
            cert, f"{cert_dir}/{config.name}--{workload}.json"))
    with sim:
        sim.run(steps)
        stable = sim.is_stable()

    return {
        "config": config.name,
        "workload": workload,
        "steps": steps,
        "kernels": len(records),
        "declared_edges": cert["graph"]["edges"],
        "declared_waves": len(cert["wave_schedule"]),
        "verdict": proof.verdict,
        "pairs_checked": proof.pairs_checked,
        "counterexamples": [str(c) for c in proof.counterexamples],
        "lint_errors": [str(f) for f in lint.errors],
        "lint_opportunities": len(lint.opportunities),
        "touched_bytes": lint.touched_bytes,
        "certificate_problems": cert_problems,
        "certificate": cert_path,
        "stable": stable,
    }


def _negative_controls(workload: str, steps: int) -> list[dict[str, Any]]:
    """The seeded-illegal gates: each reordered stream must be rejected."""
    from .static import SEEDED_CONTROLS, seeded_illegal_proof

    out = []
    for control in SEEDED_CONTROLS:
        proof = seeded_illegal_proof(small_workloads()[workload], steps=steps,
                                     control=control)
        out.append({
            "workload": workload,
            "control": control,
            "verdict": proof.verdict,
            "rejected": proof.verdict == "illegal" and bool(proof.counterexamples),
            "counterexamples": [str(c) for c in proof.counterexamples],
        })
    return out


def _problems(report: dict[str, Any]) -> int:
    return ((0 if report["verdict"] in ("legal", "baseline") else 1)
            + len(report["lint_errors"]) + len(report["certificate_problems"])
            + (0 if report["stable"] else 1))


def _run(configs: Sequence[FusionConfig], workloads: Sequence[str],
         steps: int, cert_dir: str | None,
         out: TextIO) -> tuple[list[dict[str, Any]], list[dict[str, Any]], int]:
    reports = []
    total = 0
    for cfg in configs:
        for wl in workloads:
            rep = static_check(cfg, wl, steps=steps, cert_dir=cert_dir)
            reports.append(rep)
            n = _problems(rep)
            total += n
            status = "OK" if n == 0 else "FAIL"
            print(f"[{status}] {rep['config']:>14s} x {rep['workload']:<14s} "
                  f"kernels={rep['kernels']:4d} "
                  f"waves={rep['declared_waves']:3d} "
                  f"verdict={rep['verdict']:8s} "
                  f"pairs={rep['pairs_checked']:4d} "
                  f"touched={rep['touched_bytes']} B", file=out)
            for msg in rep["lint_errors"] + rep["certificate_problems"]:
                print(f"    {msg}", file=out)
            if rep["verdict"] == "illegal":
                for c in rep["counterexamples"]:
                    print(f"    counterexample: {c}", file=out)
            if not rep["stable"]:
                print("    simulation diverged (NaN/Inf populations)", file=out)
    controls = []
    for wl in workloads:
        for ctl in _negative_controls(wl, steps):
            controls.append(ctl)
            if not ctl["rejected"]:
                total += 1
                print(f"[FAIL] seeded illegal {ctl['control']} NOT rejected "
                      f"on {wl}", file=out)
            else:
                print(f"[OK] seeded illegal {ctl['control']} rejected on {wl}: "
                      f"{ctl['counterexamples'][0]}", file=out)
    return reports, controls, total


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro analysis",
        description="Fusion-legality "
                    "proof, lint pass and step-plan certificates for every "
                    "kernel-fusion configuration, over the access map the "
                    "kernels' bodies report (plus seeded-illegal controls).")
    parser.add_argument("--config", action="append", default=None,
                        metavar="NAME",
                        help="check one configuration (repeatable); "
                             f"choices: {', '.join(c.name for c in ALL_CONFIGS)}")
    parser.add_argument("--all-configs", action="store_true",
                        help="check the full Fig. 9 ablation plus the "
                             "original baseline (default when no --config)")
    parser.add_argument("--workload", action="append", default=None,
                        choices=sorted(small_workloads()),
                        help="workload(s) to check on (default: all)")
    parser.add_argument("--steps", type=int, default=2,
                        help="coarse time steps to analyse and run "
                             "(default 2)")
    parser.add_argument("--cert-dir", default=None, metavar="DIR",
                        help="write step-plan certificates to DIR "
                             "(one JSON per config x workload)")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    args = parser.parse_args(argv)

    if args.config:
        try:
            configs = [get_config(name) for name in args.config]
        except KeyError as exc:
            parser.error(str(exc.args[0]))
    else:
        configs = list(ALL_CONFIGS)
    workloads = args.workload or sorted(small_workloads())

    out = sys.stderr if args.json else sys.stdout
    reports, controls, total = _run(configs, workloads, args.steps,
                                    args.cert_dir, out)
    if args.json:
        json.dump({"runs": reports, "negative_controls": controls,
                   "total_problems": total}, sys.stdout, indent=2)
        print()
    else:
        rejected = sum(c["rejected"] for c in controls)
        print(f"{len(reports)} runs, {rejected} seeded-illegal control(s) "
              f"rejected, {total} problem(s)")
    return 1 if total else 0
