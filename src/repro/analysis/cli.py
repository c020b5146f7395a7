"""``python -m repro analysis`` — lint every fusion configuration.

For each requested :class:`~repro.core.fusion.FusionConfig` and workload
the linter runs a short functional simulation under access capture, then

1. diffs every kernel's captured accesses (its body's report) against
   its declarations (:mod:`repro.analysis.verify`),
2. schedules the declared dependency graph into concurrency waves and
   race-checks every wave at row-interval / exact-entry granularity
   (:mod:`repro.analysis.races`), and
3. repeats the race check on the interval-refined graph (the schedule a
   runtime exploiting disjoint row ranges would use).

``--static`` runs the declaration-time gate instead (:func:`static_check`).

Exit status is non-zero when any finding or race survives — this is the
CI gate that every future fusion/optimisation change must keep green.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence, TextIO

from ..bench.workloads import lid_cavity
from ..core.fusion import ABLATION_CONFIGS, ORIGINAL_BASELINE, FusionConfig, get_config
from ..core.simulation import Simulation
from ..neon.graph import build_dependency_graph, schedule_waves
from ..neon.runtime import Runtime
from .races import detect_races
from .verify import verify_trace

__all__ = ["ALL_CONFIGS", "lint_config", "main", "small_workloads",
           "static_check"]

#: Every configuration the linter gates: the Fig. 9 ablation plus the
#: original (Fig. 4a) baseline.
ALL_CONFIGS: tuple[FusionConfig, ...] = (ORIGINAL_BASELINE,) + ABLATION_CONFIGS


def small_workloads() -> dict[str, dict[str, Any]]:
    """Small-but-representative multigrid workloads for functional linting.

    Both exercise moving-wall + no-slip boundaries and every cross-level
    operator (Explosion, Accumulate, Coalescence) while staying fast
    enough to sweep 7 configurations x 2 workloads in seconds.
    """
    return {
        "cavity2d-2lvl": dict(base=(20, 20), num_levels=2, lattice="D2Q9"),
        "cavity3d-3lvl": dict(base=(12, 12, 12), num_levels=3, lattice="D3Q19"),
    }


def lint_config(config: FusionConfig, workload: str = "cavity2d-2lvl",
                steps: int = 2) -> dict[str, Any]:
    """Run one config on one workload under capture; return a report dict."""
    wl_kwargs = small_workloads()[workload]
    wl = lid_cavity(**wl_kwargs)
    rt = Runtime()
    rt.capture_start()
    sim = Simulation.from_config(wl.spec, wl.sim_config(fusion=config),
                                 runtime=rt)
    sim.run(steps)
    captured = rt.capture_stop()
    records = rt.records

    findings = verify_trace(records, captured)
    declared = build_dependency_graph(records, reduce=False)
    declared_waves = schedule_waves(declared)
    races = detect_races(records, captured, declared_waves)
    refined = build_dependency_graph(records, reduce=False, access_map=captured)
    refined_waves = schedule_waves(refined)
    refined_races = detect_races(records, captured, refined_waves)

    return {
        "config": config.name,
        "workload": workload,
        "steps": steps,
        "kernels": len(records),
        "declared_edges": declared.number_of_edges(),
        "declared_waves": len(declared_waves),
        "refined_edges": refined.number_of_edges(),
        "refined_waves": len(refined_waves),
        "findings": [str(f) for f in findings],
        "races": [str(r) for r in races],
        "refined_races": [str(r) for r in refined_races],
        "stable": sim.is_stable(),
    }


def static_check(config: FusionConfig, workload: str = "cavity2d-2lvl",
                 steps: int = 2, cert_dir: str | None = None) -> dict[str, Any]:
    """Declaration-time analysis of one config; returns a report dict.

    Nothing executes: the stream is captured and its bodies bound, and
    the access map is what their reports state
    (:func:`~repro.analysis.static.plan_stream`).  Gates (each failure is
    a ``problem``):

    1. the reports reproduce every declaration exactly
       (:func:`~repro.analysis.verify.verify_trace` over the bind-time map);
    2. the fusion is proved a legal contraction of the modified baseline
       (:func:`~repro.analysis.static.prove_fusion_legality`);
    3. the lint pass reports no ``error``-severity findings;
    4. the emitted certificate validates against the stream.

    With ``cert_dir``, the step-plan certificate is written there as
    ``<config>--<workload>.json``.
    """
    from .certificate import build_certificate, validate_certificate, \
        write_certificate
    from .lint import lint_stream
    from .static import plan_stream, prove_fusion_legality

    wl_kwargs = small_workloads()[workload]
    records, accesses, engine = plan_stream(config, wl_kwargs, steps=steps)
    findings = verify_trace(records, accesses)
    proof = prove_fusion_legality(config, wl_kwargs, steps=steps)
    lint = lint_stream(records, accesses, engine)
    cert = build_certificate(config.name, workload, records, accesses, proof,
                             lint, steps)
    cert_problems = validate_certificate(cert, records)
    cert_path = None
    if cert_dir is not None:
        cert_path = str(write_certificate(
            cert, f"{cert_dir}/{config.name}--{workload}.json"))

    return {
        "config": config.name,
        "workload": workload,
        "steps": steps,
        "kernels": len(records),
        "findings": [str(f) for f in findings],
        "verdict": proof.verdict,
        "pairs_checked": proof.pairs_checked,
        "counterexamples": [str(c) for c in proof.counterexamples],
        "lint_errors": [str(f) for f in lint.errors],
        "lint_opportunities": len(lint.opportunities),
        "touched_bytes": lint.touched_bytes,
        "certificate_problems": cert_problems,
        "certificate": cert_path,
    }


def _static_negative_control(workload: str, steps: int) -> dict[str, Any]:
    """The seeded-illegal gate: a swapped declaration must be rejected."""
    from .static import seeded_illegal_proof

    proof = seeded_illegal_proof(small_workloads()[workload], steps=steps)
    return {
        "workload": workload,
        "verdict": proof.verdict,
        "rejected": proof.verdict == "illegal" and bool(proof.counterexamples),
        "counterexamples": [str(c) for c in proof.counterexamples],
    }


def _static_problems(report: dict[str, Any]) -> int:
    return (len(report["findings"])
            + (0 if report["verdict"] in ("legal", "baseline") else 1)
            + len(report["lint_errors"]) + len(report["certificate_problems"]))


def _run_static(configs: Sequence[FusionConfig], workloads: Sequence[str],
                steps: int, cert_dir: str | None,
                out: TextIO) -> tuple[list[dict[str, Any]], int]:
    reports = []
    total = 0
    for cfg in configs:
        for wl in workloads:
            rep = static_check(cfg, wl, steps=steps, cert_dir=cert_dir)
            reports.append(rep)
            n = _static_problems(rep)
            total += n
            status = "OK" if n == 0 else "FAIL"
            print(f"[{status}] static {rep['config']:>14s} x "
                  f"{rep['workload']:<14s} kernels={rep['kernels']:4d} "
                  f"verdict={rep['verdict']:8s} "
                  f"pairs={rep['pairs_checked']:4d} "
                  f"touched={rep['touched_bytes']} B", file=out)
            for msg in (rep["findings"] + rep["lint_errors"]
                        + rep["certificate_problems"]):
                print(f"    {msg}", file=out)
            if rep["verdict"] == "illegal":
                for c in rep["counterexamples"]:
                    print(f"    counterexample: {c}", file=out)
    controls = []
    for wl in workloads:
        ctl = _static_negative_control(wl, steps)
        controls.append(ctl)
        if not ctl["rejected"]:
            total += 1
            print(f"[FAIL] seeded illegal fusion NOT rejected on {wl}",
                  file=out)
        else:
            print(f"[OK] seeded illegal fusion rejected on {wl}: "
                  f"{ctl['counterexamples'][0]}", file=out)
    return reports + [{"negative_controls": controls}], total


def _problems(report: dict[str, Any]) -> int:
    return (len(report["findings"]) + len(report["races"])
            + len(report["refined_races"]) + (0 if report["stable"] else 1))


def _print_text(reports: list[dict[str, Any]], out: TextIO) -> None:
    for rep in reports:
        status = "OK" if _problems(rep) == 0 else "FAIL"
        print(f"[{status}] {rep['config']:>14s} x {rep['workload']:<14s} "
              f"kernels={rep['kernels']:4d} "
              f"waves={rep['declared_waves']:3d} "
              f"(refined {rep['refined_waves']:3d}) "
              f"findings={len(rep['findings'])} races={len(rep['races'])}",
              file=out)
        for f in rep["findings"]:
            print(f"    declaration: {f}", file=out)
        for r in rep["races"]:
            print(f"    race: {r}", file=out)
        for r in rep["refined_races"]:
            print(f"    race (refined schedule): {r}", file=out)
        if not rep["stable"]:
            print("    simulation diverged (NaN/Inf populations)", file=out)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro analysis",
        description="Trace-based declaration verifier and race detector "
                    "for every kernel-fusion configuration.")
    parser.add_argument("--config", action="append", default=None,
                        metavar="NAME",
                        help="lint one configuration (repeatable); "
                             f"choices: {', '.join(c.name for c in ALL_CONFIGS)}")
    parser.add_argument("--all-configs", action="store_true",
                        help="lint the full Fig. 9 ablation plus the "
                             "original baseline (default when no --config)")
    parser.add_argument("--workload", action="append", default=None,
                        choices=sorted(small_workloads()),
                        help="workload(s) to lint on (default: all)")
    parser.add_argument("--steps", type=int, default=2,
                        help="coarse time steps to trace (default 2)")
    parser.add_argument("--static", action="store_true",
                        help="declaration-time mode, no body runs: the "
                             "bound bodies' access reports against the "
                             "declarations, fusion-legality proofs, lint "
                             "pass and step-plan certificates (plus a "
                             "seeded-illegal control)")
    parser.add_argument("--cert-dir", default=None, metavar="DIR",
                        help="with --static: write step-plan certificates "
                             "to DIR (one JSON per config x workload)")
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

    if args.static:
        out = sys.stderr if args.json else sys.stdout
        reports, total = _run_static(configs, workloads, args.steps,
                                     args.cert_dir, out)
        if args.json:
            json.dump({"runs": reports, "total_problems": total}, sys.stdout,
                      indent=2)
            print()
        else:
            print(f"{len(reports) - 1} static runs, {total} problem(s)")
        return 1 if total else 0

    reports = [lint_config(cfg, wl, steps=args.steps)
               for cfg in configs for wl in workloads]
    total = sum(_problems(r) for r in reports)
    if args.json:
        json.dump({"runs": reports, "total_problems": total}, sys.stdout,
                  indent=2)
        print()
    else:
        _print_text(reports, sys.stdout)
        print(f"{len(reports)} runs, {total} problem(s)")
    return 1 if total else 0
