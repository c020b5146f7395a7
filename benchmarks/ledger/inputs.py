"""Seeded input generators: the only place a workload name or seed is read.

Each generator turns ``(seed, sizes)`` into plain ``RefinementSpec`` /
``SimConfig`` / ``JobSpec`` objects.  The program under test receives
those objects and nothing else — no workload name, no seed — so it can
not tell a benchmark input from a user's.

The seed moves only what does not change how much work an input is
(Reynolds number, which walls carry the thicker refinement shell, the
order jobs arrive in).  The driver compares runs made with different
seeds, so the amount of work has to be the same for every seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.bench.workloads import lid_cavity, sphere_tunnel
from repro.core.config import SimConfig
from repro.grid.multigrid import RefinementSpec
from repro.serve.oracle import active_cells_estimate
from repro.serve.spec import JobSpec

__all__ = ["Sizes", "FULL", "QUICK", "SimInput", "steady_input",
           "coldstart_inputs", "serve_jobs", "input_digest"]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes: ``FULL`` is the benchmark, ``QUICK`` the self-test."""

    cavity_base: tuple[int, ...]
    cavity_levels: int
    sphere_scale: float
    #: Centre of the sphere tunnel's seeded Reynolds number (low enough
    #: that the workload builder's viscosity floor does not swallow it).
    sphere_reynolds: float
    #: (base, levels, lattice, steps) of the served-job geometries.  Steps
    #: are tied to the geometry so every seed serves the same multiset of
    #: jobs, and chosen so the geometries take about equally long to serve
    #: (0.4-0.5 s): the median latency then sits inside one cluster, not
    #: between two.
    serve_geoms: tuple[tuple[tuple[int, ...], int, str, int], ...]
    #: Distinct specs per coldstart block; a block visits each twice.
    coldstart_block: int
    #: Step counts of the interpreted / threaded / mp / resilience legs.
    leg_steps: int
    #: Bytes per array of the STREAM triad probe (capped, see probes.py).
    stream_cap_bytes: int


FULL = Sizes(
    cavity_base=(16, 16, 16), cavity_levels=3, sphere_scale=0.5,
    sphere_reynolds=4000.0,
    serve_geoms=(((48, 48), 3, "D2Q9", 16), ((64, 64), 3, "D2Q9", 12),
                 ((96, 96), 2, "D2Q9", 20), ((12, 12, 12), 2, "D3Q19", 8)),
    coldstart_block=4, leg_steps=4, stream_cap_bytes=128 << 20)

QUICK = Sizes(
    cavity_base=(12, 12, 12), cavity_levels=2, sphere_scale=0.25,
    sphere_reynolds=1000.0,
    serve_geoms=(((24, 24), 2, "D2Q9", 6), ((12, 12, 12), 2, "D3Q19", 4)),
    coldstart_block=2, leg_steps=2, stream_cap_bytes=8 << 20)


@dataclass(frozen=True)
class SimInput:
    """One simulation input: the domain, its config, and whether it is closed."""

    spec: RefinementSpec
    config: SimConfig
    #: True when no face lets mass in or out (mass drift is then checked).
    closed: bool


def _jitter(rng: random.Random, centre: float, rel: float = 0.1) -> float:
    return centre * (1.0 + rel * rng.uniform(-1.0, 1.0))


# -- the two steady workloads --------------------------------------------------

def steady_input(workload: str, seed: int, sizes: Sizes) -> SimInput:
    """``cavity3d-steady`` or ``sphere-kbc-unfused``; the seed moves Re only."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cavity3d-steady":
        wl = lid_cavity(base=sizes.cavity_base, num_levels=sizes.cavity_levels,
                        reynolds=_jitter(rng, 100.0))
        return SimInput(wl.spec, wl.sim_config(fusion="ours-4f",
                                               backend="compiled"), closed=True)
    if workload == "sphere-kbc-unfused":
        wl = sphere_tunnel(scale=sizes.sphere_scale,
                           reynolds=_jitter(rng, sizes.sphere_reynolds))
        return SimInput(wl.spec, wl.sim_config(fusion="baseline-4b",
                                               backend="compiled"), closed=False)
    raise ValueError(f"not a steady workload: {workload!r}")


# -- coldstart-mix -------------------------------------------------------------

#: Per-wall offsets (cells) of the innermost refinement shell.  Every
#: pattern sums to zero, so the finest level keeps its size within a few
#: per cent while the mask itself differs.
_OFFSETS = ((-1, 0, 0, 0, 0, 1), (-1, -1, 0, 0, 1, 1))


def _shell_patterns() -> list[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for base in _OFFSETS:
        out.update(itertools.permutations(base))
    return sorted(out)


def _jittered_cavity(sizes: Sizes, pattern: tuple[int, ...]):
    """The anchor cavity with its innermost shell moved per wall.

    Returns ``(spec, anchor_workload)``; cavities here are 3-D (six walls).
    """
    wl = lid_cavity(base=sizes.cavity_base, num_levels=sizes.cavity_levels)
    spec = wl.spec
    anchor = np.asarray(spec.refine_regions[-1], dtype=bool)
    d = anchor.ndim
    # shell thickness of the anchor: refined cells from a wall along the
    # line through the middle of the opposite faces
    mid = tuple(n // 2 for n in anchor.shape)
    line = anchor[(slice(None),) + mid[1:]]
    thick = int(np.argmin(line))
    region = np.zeros_like(anchor)
    for axis in range(d):
        for side in (0, 1):
            t = thick + pattern[2 * axis + side]
            idx = [slice(None)] * d
            idx[axis] = slice(0, t) if side == 0 else slice(anchor.shape[axis] - t, None)
            region[tuple(idx)] = True
    regions = list(spec.refine_regions[:-1]) + [region]
    return RefinementSpec(base_shape=spec.base_shape, refine_regions=regions,
                          solid=spec.solid, bc=spec.bc,
                          block_size=spec.block_size, curve=spec.curve), wl


def coldstart_inputs(seed: int, sizes: Sizes, count: int) -> list[SimInput]:
    """``count`` distinct cavity specs, fusion alternating 4f / 4b.

    Masks are pairwise distinct and the finest level stays within 15 %
    of the anchor's size (both asserted): the specs cost the same to
    build but share no content, so a content-addressed cache can only
    hit on the repeat visit of the same spec.
    """
    rng = random.Random(f"coldstart-mix:{seed}")
    patterns = _shell_patterns()
    if count > len(patterns):
        raise ValueError(f"only {len(patterns)} shell patterns for {count} specs")
    chosen = rng.sample(patterns, count)
    anchor_fine = None
    out, seen = [], set()
    for i, pattern in enumerate(chosen):
        spec, wl = _jittered_cavity(sizes, pattern)
        if anchor_fine is None:
            anchor_fine = active_cells_estimate(wl.spec)[-1]
        fine = active_cells_estimate(spec)[-1]
        if abs(fine - anchor_fine) > 0.15 * anchor_fine:
            raise AssertionError(f"pattern {pattern}: finest level {fine} "
                                 f"strays from the anchor's {anchor_fine}")
        key = np.asarray(spec.refine_regions[-1]).tobytes()
        if key in seen:
            raise AssertionError(f"pattern {pattern} repeats a mask")
        seen.add(key)
        fusion = "ours-4f" if i % 2 == 0 else "baseline-4b"
        out.append(SimInput(spec, wl.sim_config(fusion=fusion,
                                                backend="compiled"), closed=True))
    return out


# -- serve-flood ---------------------------------------------------------------

def serve_jobs(seed: int, sizes: Sizes, tenants: int, rounds: int
               ) -> tuple[list[list[list[JobSpec]]], dict[str, tuple[int, bool]]]:
    """``jobs[tenant][round]``: the job lists the tenant clients submit.

    A round is every geometry once, in seeded order.  Counting jobs in
    arrival order (round by round, tenant by tenant, as they would
    arrive if every job took equally long), every second one repeats
    the Reynolds number last used with its geometry — an exact repeat
    of an earlier spec — and the others draw a fresh one.  Every
    ``RefinementSpec`` is a fresh object, repeat or not; job ids are
    fixed by position so equal seeds give equal inputs.

    Also returns ``meta[job_id] = (geometry index, is a repeat)`` — kept
    beside the jobs, not in them, so the server is not told which of its
    inputs repeat.
    """
    rng = random.Random(f"serve-flood:{seed}")
    last_re: dict[int, float] = {}
    arrival = itertools.count()
    jobs: list[list[list[JobSpec]]] = [[] for _ in range(tenants)]
    meta: dict[str, tuple[int, bool]] = {}
    for r in range(rounds):
        for t in range(tenants):
            order = list(range(len(sizes.serve_geoms)))
            rng.shuffle(order)
            batch = []
            for k, g in enumerate(order):
                base, levels, lattice, steps = sizes.serve_geoms[g]
                repeat = next(arrival) % 2 == 1 and g in last_re
                re = last_re[g] if repeat else _jitter(rng, 100.0, 0.2)
                last_re[g] = re
                wl = lid_cavity(base=base, num_levels=levels, lattice=lattice,
                                reynolds=re)
                batch.append(JobSpec(
                    spec=wl.spec,
                    config=wl.sim_config(fusion="ours-4f", backend="compiled"),
                    steps=steps, tenant=f"tenant{t}", checkpoint_every=5,
                    job_id=f"t{t}r{r}k{k}"))
                meta[batch[-1].job_id] = (g, repeat)
            jobs[t].append(batch)
    return jobs, meta


# -- identity of generated inputs ----------------------------------------------

def input_digest(obj: Any) -> str:
    """SHA-256 over everything the program receives in ``obj``.

    Used by the self-tests (same seed, same inputs; another seed, other
    inputs) and written into every result file.
    """
    h = hashlib.sha256()

    def feed(x: Any) -> None:
        if isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        elif isinstance(x, SimInput):
            feed(x.spec)
            feed(x.config)
        elif isinstance(x, JobSpec):
            feed(x.spec)
            feed(x.config)
            h.update(f"{x.steps}|{x.tenant}|{x.checkpoint_every}|{x.job_id}"
                     .encode())
        elif isinstance(x, RefinementSpec):
            h.update(repr((x.base_shape, x.block_size, x.curve,
                           sorted(x.bc.faces.items()))).encode())
            for region in x.refine_regions:
                h.update(np.asarray(region, dtype=bool).tobytes())
            if x.solid is not None:
                h.update(np.asarray(x.solid, dtype=bool).tobytes())
        elif isinstance(x, SimConfig):
            h.update(repr(sorted(x.as_dict().items())).encode())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()
