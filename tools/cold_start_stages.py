#!/usr/bin/env python
"""Where a cold start goes: per-stage medians over fresh processes.

For the anchor cavity (16^3 x 3, D3Q19, ``ours-4f``), a ``coldstart-mix``
shell (the anchor with its innermost refinement shell moved, seed 1's
first spec), the half-scale KBC sphere (D3Q27, ``baseline-4b``) and the
served 64^2 x 3 cavity (D2Q9, ``ours-4f``), every process builds the
simulation on the compiled backend, runs one step and closes it — once
to warm the process (imports, first touch), then timed — with every
stage function swapped for a timer.  The last column is the served
cavity as a serve worker meets a repeated geometry: the grid comes from
a :class:`~repro.serve.cache.GridCache` hit (its row "grid build" is the
lookup, re-hash included) and the timed job runs at another viscosity,
reusing the admission verdict the warm-up left on the grid.  Printed per
geometry: the median over ``--procs`` fresh processes of

* the grid build and its sub-stages — spec validation, owner labels, level
  compile (grid, slots, index table), classification (the pull table),
  cross-level maps (parents, accumulate children), and the rest of the
  build (the pull table's bounds check, assembling the level's flat maps;
  on a commit without these sub-stages, all of the per-level work);
* engine init, ``initialize``, admission, the plan compile without
  admission, the first step without the compile, and the whole.

Each process runs in the ledger's environment (one BLAS thread, glibc
malloc never returning memory).  Run on an otherwise idle host::

    PYTHONPATH=src python tools/cold_start_stages.py [--procs 7]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GEOMETRIES = ("anchor 16^3x3", "coldstart shell", "sphere 0.5", "served 64^2x3",
              "served, cached grid")

#: (stage, owner module / class path, attribute): the calls that are timed.
STAGES = (
    ("grid build", "repro.core.simulation", "build_multigrid"),
    ("  validate", "repro.grid.multigrid", "_validate_spec"),
    ("  labels", "repro.grid.multigrid", "_owner_labels"),
    ("  level compile", "repro.grid.multigrid", "_level_slots"),
    ("  classification", "repro.grid.multigrid", "_classify"),
    ("  cross-level maps", "repro.grid.multigrid", "_link_coarser"),
    ("engine init", "repro.core.engine:Engine", "__init__"),
    ("initialize", "repro.core.engine:Engine", "initialize"),
    ("admission", "repro.backend.compiler", "admit_stream"),
    ("compile", "repro.backend.compiled", "compile_plan"),
    ("run", "repro.core.simulation:Simulation", "run"),
)


def _simulation_input(name: str):
    from repro.bench.workloads import lid_cavity, sphere_tunnel
    if name == "anchor 16^3x3":
        wl = lid_cavity(base=(16, 16, 16), num_levels=3)
        return wl.spec, wl.sim_config(fusion="ours-4f", backend="compiled")
    if name == "coldstart shell":
        sys.path.insert(0, os.path.join(ROOT, "benchmarks", "ledger"))
        from inputs import FULL, coldstart_inputs
        inp = coldstart_inputs(1, FULL, 1)[0]
        return inp.spec, inp.config
    if name == "sphere 0.5":
        wl = sphere_tunnel(scale=0.5)
        return wl.spec, wl.sim_config(fusion="baseline-4b", backend="compiled")
    wl = lid_cavity(base=(64, 64), num_levels=3, lattice="D2Q9")   # served
    return wl.spec, wl.sim_config(fusion="ours-4f", backend="compiled")


def _instrument(totals: dict[str, float]) -> None:
    """Wrap every stage call that exists (a commit may lack a sub-stage)."""
    import importlib

    for stage, path, attr in STAGES:
        module, _, cls = path.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        inner = getattr(owner, attr, None)
        if inner is None:
            continue
        totals[stage] = 0.0

        def timed(*a, _inner=inner, _stage=stage, **kw):
            t0 = time.perf_counter()
            try:
                return _inner(*a, **kw)
            finally:
                totals[_stage] += time.perf_counter() - t0

        setattr(owner, attr, timed)


def child(name: str) -> dict[str, float]:
    """One process: a discarded cold start, then a timed one, by stage."""
    import gc

    from repro.core.simulation import Simulation

    spec, config = _simulation_input(name)
    totals: dict[str, float] = {}
    _instrument(totals)
    grids = None
    if name.endswith("cached grid"):
        try:
            from repro.serve.cache import GridCache
            from repro.serve.server import GRID_CACHE_BYTES
        except ImportError:         # a commit without the serve grid cache
            return {}
        grids = GridCache(GRID_CACHE_BYTES)

    def cold_start(config) -> float:
        gc.collect()
        t0 = time.perf_counter()
        kw = {}
        if grids is not None:
            kw["grid"] = grids.get(spec, config.lattice)[0]
            totals["grid build"] = time.perf_counter() - t0
        with Simulation.from_config(spec, config, **kw) as sim:
            sim.run(1)
        return time.perf_counter() - t0

    cold_start(config)
    totals.update(dict.fromkeys(totals, 0.0))
    # a cached grid serves the next job of the geometry: another viscosity
    whole = cold_start(config if grids is None
                       else config.replace(viscosity=config.viscosity * 0.8))
    build = {s: totals[s] for s, _, _ in STAGES if s.startswith(" ") and s in totals}
    out = {"grid build": totals["grid build"], **build,
           "  rest of the build": totals["grid build"] - sum(build.values())}
    for s in ("engine init", "initialize", "admission"):
        out[s] = totals[s]
    out["compile"] = totals["compile"] - totals["admission"]
    out["first step"] = totals["run"] - totals["compile"]
    out["cold start"] = whole
    return out


def _env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_BACKEND", "REPRO_MP_WORKERS", "REPRO_MP_TIMEOUT"):
        env.pop(name, None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", MALLOC_MMAP_MAX_="0",
               MALLOC_TRIM_THRESHOLD_=str(1 << 40), MALLOC_TOP_PAD_=str(256 << 20))
    return env


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--procs", type=int, default=7,
                    help="fresh processes per geometry (default 7)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child)))
        return 0
    runs: dict[str, list[dict[str, float]]] = {g: [] for g in GEOMETRIES}
    for _ in range(args.procs):
        for g in GEOMETRIES:           # interleaved, so host drift hits all alike
            res = subprocess.run([sys.executable, __file__, "--child", g],
                                 env=_env(), capture_output=True, text=True, check=True)
            runs[g].append(json.loads(res.stdout.splitlines()[-1]))
    stages = list(runs[GEOMETRIES[0]][0])
    shown = [g for g in GEOMETRIES if runs[g][0]]
    print(f"median ms over {args.procs} fresh processes per geometry "
          f"(a sub-stage the build lacks is not listed)")
    print(f"{'stage':20s}" + "".join(f"{g:>20s}" for g in shown))
    for s in stages:
        print(f"{s:20s}" + "".join(
            f"{median(r[s] for r in runs[g]) * 1e3:20.1f}" for g in shown))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
