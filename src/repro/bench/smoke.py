"""``python -m repro bench`` — the quick benchmark pass CI tracks.

One small lid-cavity measurement per direction-setting fusion config
(the original baseline, the modified baseline and the full fusion),
under **both** execution backends: the interpreted reference and the
compiled step-plan replay (:mod:`repro.backend`).  The payload carries
both series plus the per-config speedup, is written as
``BENCH_smoke.json`` and — through the shared writer — appended to
``BENCH_HISTORY.jsonl``.  The point is not absolute speed (the
functional NumPy host is slow); it is a *stable series*: the same tiny
workload measured the same way every PR, so the regression gate
(:mod:`repro.bench.history`) has a trajectory to judge.

The smoke pass also *asserts* what plan replay is for.  Both backends
run the same kernel bodies, so on this toy — where the arithmetic is a
few microseconds per kernel — the interpreted-over-compiled ratio
measures the launch path's per-kernel cost (record construction plus
binding the body) against bare replay of those bodies.  Its geometric
mean must reach :data:`DEFAULT_MIN_SPEEDUP` or the process exits
non-zero: replay that stops being cheaper than launching fails CI the
same way a broken test would.  The history line is written *before* the
gate is judged, so a failing run still leaves its evidence in the
trajectory.

A second leg (:func:`run_mp_smoke`, skippable with ``--skip-mp``)
measures the process-parallel mp backend against thread-wave replay of
the same plan on a larger cavity and appends its own ``smoke_mp``
history record, salted with ``backend="mp"`` so the series keeps a
separate baseline.  The leg prints the mp-over-threaded ratio and gates
only on the pool actually being used (zero counted fallback steps):
whether processes beat threads is a property of the host's cores, and
the ledger's ``backend.mp_step_p50_s`` against
``backend.replay_step_p50_s`` is where that comparison is read.

Runs in seconds and needs nothing beyond the package itself, which is
what ``make bench-check`` and the ``perf-observatory`` CI job want.
"""

from __future__ import annotations

import argparse
import os
from typing import Sequence

__all__ = ["SMOKE_CONFIGS", "MP_SMOKE_CONFIG", "DEFAULT_MIN_SPEEDUP",
           "run_smoke", "run_mp_smoke", "main"]

#: Config names measured by the smoke pass — the endpoints of Fig. 9's
#: ablation (both baselines and the full fusion), enough to catch a
#: regression in either the unfused or the fused code path.
SMOKE_CONFIGS = ("baseline-4a", "baseline-4b", "ours-4f")

#: Interpreted-over-compiled geometric-mean wall-clock ratio the smoke
#: pass requires (it reads 1.4-1.7x on the toy cavity).
DEFAULT_MIN_SPEEDUP = 1.3

#: Config measured by the process-parallel leg (the paper's best; one
#: config keeps the leg fast — the bit-identity of the others is the
#: test suite's job, not the benchmark's).
MP_SMOKE_CONFIG = "ours-4f"


def _geomean(values: Sequence[float]) -> float:
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values)) if values else 0.0


def run_smoke(steps: int = 3, warmup: int = 1) -> dict:
    """Measure the smoke workload under every smoke config and backend.

    Returns the full payload: ``measurements`` (interpreted series, the
    historical key so old trajectory series continue), ``compiled``
    (compiled series) and ``speedup`` (per-config wall-clock ratios plus
    their geometric mean).  The compiled measurements absorb plan
    compilation in the warmup, so the ratio compares steady-state replay
    against steady-state interpretation.
    """
    from ..core.fusion import get_config
    from .harness import measure
    from .workloads import lid_cavity

    wl = lid_cavity(base=(16, 16), num_levels=2, lattice="D2Q9")
    payload: dict = {"workload": wl.name, "steps": steps,
                     "backend": "compiled",
                     "measurements": {}, "compiled": {}, "speedup": {}}
    ratios: list[float] = []
    for name in SMOKE_CONFIGS:
        cfg = get_config(name)
        mi = measure(wl, cfg, steps=steps, warmup=warmup,
                     backend="interpreted")
        mc = measure(wl, cfg, steps=steps, warmup=warmup,
                     backend="compiled")
        payload["measurements"][name] = mi.summary()
        payload["compiled"][name] = mc.summary()
        ratio = (mi.wall_seconds / mc.wall_seconds
                 if mc.wall_seconds > 0 else float("inf"))
        ratios.append(ratio)
        payload["speedup"][name] = {"speedup": ratio}
    payload["speedup"]["mean"] = {"speedup": _geomean(ratios)}
    return payload


def run_mp_smoke(steps: int = 3, warmup: int = 1) -> dict:
    """Measure the mp backend against in-process thread-wave plan replay.

    Uses a larger cavity than the main pass (64x64) so kernel work
    dominates the per-wave IPC round-trips, and a single config
    (:data:`MP_SMOKE_CONFIG`).  The payload carries ``backend: "mp"``,
    which salts the history record's config digest — the mp series gets
    its own regression baseline instead of being judged against (or
    flattering) the in-process series.
    """
    from ..core.fusion import get_config
    from .harness import measure
    from .workloads import lid_cavity

    wl = lid_cavity(base=(64, 64), num_levels=2, lattice="D2Q9")
    cfg = get_config(MP_SMOKE_CONFIG)
    mt = measure(wl, cfg, steps=steps, warmup=warmup,
                 backend="compiled", threaded=True)
    mm = measure(wl, cfg, steps=steps, warmup=warmup,
                 backend="mp", threaded=False)
    speedup = (mt.wall_seconds / mm.wall_seconds
               if mm.wall_seconds > 0 else float("inf"))
    vals = mm.metrics.get("metrics", {})

    def _val(key):
        return vals.get(key, {}).get("value", 0.0)

    return {
        "workload": wl.name, "steps": steps, "backend": "mp",
        "cpu_count": os.cpu_count() or 1,
        "threaded": mt.summary(), "mp": mm.summary(),
        "speedup": {MP_SMOKE_CONFIG: {"speedup": speedup}},
        "mp_pool": {"workers": _val("mp_workers"),
                    "utilisation": _val("mp_utilisation"),
                    "imbalance": _val("mp_shard_imbalance"),
                    "fallback_steps": _val("plan_fallback_steps")},
    }


def main(argv: Sequence[str] | None = None) -> int:
    from ..obs.metrics import write_bench_json

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Quick benchmark pass: one small cavity measurement "
                    "per direction-setting fusion config, under both the "
                    "interpreted and compiled backends; appends to "
                    "BENCH_HISTORY.jsonl and gates on the compiled "
                    "speedup.")
    parser.add_argument("--steps", type=int, default=3,
                        help="coarse steps per measurement (default 3)")
    parser.add_argument("--out", default=None,
                        help="output directory (default: $BENCH_OUT_DIR "
                             "or the repo root)")
    parser.add_argument("--skip-mp", action="store_true",
                        help="skip the process-parallel (mp backend) leg")
    args = parser.parse_args(argv)

    payload = run_smoke(steps=args.steps)
    # History first: a gate failure must still leave its evidence line.
    path = write_bench_json("smoke", payload, args.out)
    for name, s in payload["measurements"].items():
        ratio = payload["speedup"][name]["speedup"]
        print(f"  {name:<14} interpreted {s['wall_seconds']:.3f}s  "
              f"compiled {payload['compiled'][name]['wall_seconds']:.3f}s  "
              f"speedup {ratio:.2f}x  "
              f"{s['kernels_per_step']:.0f} kernels/step")
    mean = payload["speedup"]["mean"]["speedup"]
    print(f"  geomean speedup {mean:.2f}x "
          f"(gate: >= {DEFAULT_MIN_SPEEDUP:.2f}x)")
    print(f"  wrote {path} (+ BENCH_HISTORY.jsonl line)")
    failed = mean < DEFAULT_MIN_SPEEDUP
    if failed:
        print(f"  FAIL: plan replay below the {DEFAULT_MIN_SPEEDUP:.2f}x "
              f"gate over the launch path")
    if not args.skip_mp:
        mp_payload = run_mp_smoke(steps=args.steps)
        # Separate bench name + backend salt: the mp series starts its
        # own baseline in the history trajectory.
        mp_path = write_bench_json("smoke_mp", mp_payload, args.out)
        ratio = mp_payload["speedup"][MP_SMOKE_CONFIG]["speedup"]
        pool = mp_payload["mp_pool"]
        cores = mp_payload["cpu_count"]
        print(f"  {MP_SMOKE_CONFIG:<14} threaded "
              f"{mp_payload['threaded']['wall_seconds']:.3f}s  "
              f"mp {mp_payload['mp']['wall_seconds']:.3f}s  "
              f"speedup {ratio:.2f}x  "
              f"({pool['workers']:.0f} workers, "
              f"util {pool['utilisation']:.2f}, {cores} cores)")
        print(f"  wrote {mp_path} (+ BENCH_HISTORY.jsonl line)")
        if pool["fallback_steps"]:
            print(f"  FAIL: mp leg fell back to in-process execution for "
                  f"{pool['fallback_steps']:.0f} steps")
            failed = True
    return 1 if failed else 0
