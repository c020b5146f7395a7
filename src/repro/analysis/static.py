"""Capture-time kernel-stream analysis: nothing executes.

This module reasons about a kernel stream as one capture returns it
(:func:`repro.backend.compiler.bind_stream`): the
:class:`~repro.neon.runtime.KernelRecord` stream (fields, byte totals,
atomics) and, for each launch, the accesses its body's report stated,
from which the record was read
(:meth:`~repro.neon.runtime.KernelRecord.from_accesses`) — the engine
resolves index arrays, no body runs and no population value is read.

The report bound with each body is the one per-kernel statement of what
the kernel touches (field x level x half-open row interval x
read/write/atomic, with exact entry sets for the small scatter/gather
patches).  From it this module proves **fusion legality**: a fused
stream is a valid *contraction* of the modified-baseline stream — every
conflicting access pair of the baseline keeps its happens-before order,
either inside one fused kernel (body order) or across kernels (a path in
the fused stream's dependency DAG).  Violations produce a structured
:class:`Counterexample` naming the conflicting pair.

The same map feeds the lint pass (:mod:`repro.analysis.lint`) and the
step-plan certificates (:mod:`repro.analysis.certificate`) plan
admission checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from ..core.fusion import FusionConfig
from ..neon.graph import (_access_overlap, build_dependency_graph,
                          iter_conflict_pairs)
from ..neon.runtime import FieldRef, KernelRecord
from .capture import ATOMIC, WRITE, Access, AccessTracer

if TYPE_CHECKING:
    from ..core.engine import Engine
    from ..core.simulation import Simulation

__all__ = [
    "plan_stream", "decompose",
    "Counterexample", "LegalityProof", "check_contraction",
    "prove_fusion_legality", "hoist_collide", "late_explode", "SEEDED_CONTROLS",
    "seeded_illegal_proof",
]

#: Primitives of every kernel whose name fixes them (``CASE`` depends on
#: the level's geometry, see :func:`decompose`).
_PRIMITIVES = {"C": ("C",), "A": ("A",), "S": ("S",), "E": ("E",), "O": ("O",),
               "CA": ("C", "A"), "SE": ("S", "E"), "SO": ("S", "O"),
               "SEO": ("S", "E", "O")}


def decompose(engine: "Engine", record: KernelRecord) -> list[tuple[str, int]]:
    """Primitive operations a (possibly fused) kernel executes, in order.

    Primitives are the modified baseline's kernels — ``C``, ``A``,
    ``S``, ``E``, ``O`` at a level.  ``CASE`` is resolved against the
    geometry (its name does not encode whether the level has an
    Accumulate or Explosion part).
    """
    lv = record.level
    if record.name in _PRIMITIVES:
        return [(p, lv) for p in _PRIMITIVES[record.name]]
    if record.name == "CASE":
        prims = ["C"]
        if lv > 0 and engine.levels[lv - 1].n_ghost:
            prims.append("A")
        prims.append("S")
        if lv > 0 and engine.mgrid.levels[lv].exp_dst.size:
            prims.append("E")
        return [(p, lv) for p in prims]
    raise KeyError(f"cannot decompose kernel {record.name!r}")


def plan_stream(fusion: FusionConfig, wl_kwargs: Mapping[str, Any],
                steps: int = 2,
                ) -> tuple[list[KernelRecord], dict[int, list[Access]],
                           "Simulation"]:
    """The kernel stream of a workload and its access map; no body runs.

    Builds the simulation (grid compilation + buffer allocation are
    setup, not kernel execution) on the interpreted backend, whatever
    ``$REPRO_BACKEND`` says, and captures ``steps`` coarse steps of the
    Algorithm-1 stepper (:func:`~repro.backend.compiler.bind_steps`, one
    tracer for the whole stream).  Returns ``(records, accesses, sim)``.
    """
    from ..backend.compiler import bind_steps
    from ..bench.workloads import lid_cavity
    from ..core.simulation import Simulation

    wl = lid_cavity(**wl_kwargs)
    sim = Simulation.from_config(wl.spec, wl.sim_config(
        fusion=fusion, threaded=False, backend="interpreted"))
    return (*bind_steps(sim.stepper, steps, AccessTracer()), sim)


# -- fusion-legality contraction proof ----------------------------------------

@dataclass(frozen=True)
class Counterexample:
    """Why a fused stream is *not* a contraction of its baseline.

    Names the conflicting baseline access pair whose happens-before
    order the fused stream fails to reproduce, plus the fused kernels
    it mapped into.
    """

    reason: str                    # "unordered" | "reordered" | "structure"
    field: str
    hazard: str
    base_i: int
    base_j: int
    kernel_i: str
    kernel_j: str
    interval_i: tuple[int, int]
    interval_j: tuple[int, int]
    fused_i: int
    fused_j: int
    fused_kernel_i: str
    fused_kernel_j: str
    detail: str

    def __str__(self) -> str:
        return (f"{self.reason}: baseline {self.kernel_i}#{self.base_i} "
                f"{self.hazard.upper()} {self.field}{list(self.interval_i)} -> "
                f"{self.kernel_j}#{self.base_j} {self.field}{list(self.interval_j)}"
                f" lost in fused stream ({self.fused_kernel_i}#{self.fused_i} vs "
                f"{self.fused_kernel_j}#{self.fused_j}): {self.detail}")


@dataclass(frozen=True)
class LegalityProof:
    """Outcome of one contraction check."""

    config: str
    baseline: str
    verdict: str                   # "legal" | "illegal" | "baseline"
    pairs_checked: int
    primitives: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def legal(self) -> bool:
        return self.verdict in ("legal", "baseline")


def _label(records: Sequence[KernelRecord], i: int) -> str:
    return f"{records[i].name}{records[i].level}"


def _witness(base_map: Mapping[int, Sequence[Access]], i: int, j: int,
             dep: str, ref: FieldRef) -> tuple[tuple[int, int], tuple[int, int]]:
    """Representative conflicting intervals of one baseline pair."""
    i_side = [a for a in base_map.get(i, ()) if a.field == ref
              and (a.kind in (WRITE, ATOMIC)) == (dep != "war")]
    j_side = [a for a in base_map.get(j, ()) if a.field == ref
              and (a.kind in (WRITE, ATOMIC)) == (dep != "raw")]
    for a in i_side:
        for b in j_side:
            if a.kind == ATOMIC and b.kind == ATOMIC:
                continue
            if _access_overlap(a, b):
                return (a.lo, a.hi), (b.lo, b.hi)
    return (0, 0), (0, 0)


def check_contraction(base_records: Sequence[KernelRecord],
                      base_map: Mapping[int, Sequence[Access]],
                      fused_records: Sequence[KernelRecord],
                      decompose: Callable[[KernelRecord], list[tuple[str, int]]],
                      max_counterexamples: int = 10,
                      ) -> tuple[int, int, list[Counterexample]]:
    """Core proof: the fused stream contracts the baseline stream.

    Returns ``(pairs_checked, primitives_mapped, counterexamples)``.
    The mapping aligns the ``k``-th occurrence of each primitive
    ``(name, level)`` in the baseline with the ``k``-th occurrence in
    the fused stream's decomposition — substeps are never reordered by
    fusion, and any genuinely reordered conflicting pair fails the
    happens-before check below anyway.
    """
    cex: list[Counterexample] = []

    # -- align primitives -----------------------------------------------------
    seen: dict[tuple[str, int], int] = {}
    base_key: list[tuple[str, int, int]] = []
    for r in base_records:
        prims = decompose(r)
        if len(prims) != 1:
            cex.append(Counterexample(
                reason="structure", field="", hazard="", base_i=0, base_j=0,
                kernel_i=f"{r.name}{r.level}", kernel_j="", interval_i=(0, 0),
                interval_j=(0, 0), fused_i=-1, fused_j=-1, fused_kernel_i="",
                fused_kernel_j="",
                detail="baseline stream contains a fused kernel"))
            return 0, 0, cex
        name, lv = prims[0]
        k = seen.get((name, lv), 0)
        seen[(name, lv)] = k + 1
        base_key.append((name, lv, k))

    seen.clear()
    fused_pos: dict[tuple[str, int, int], tuple[int, int]] = {}
    for fi, r in enumerate(fused_records):
        for pos, (name, lv) in enumerate(decompose(r)):
            k = seen.get((name, lv), 0)
            seen[(name, lv)] = k + 1
            fused_pos[(name, lv, k)] = (fi, pos)

    missing = [key for key in base_key if key not in fused_pos]
    extra = len(fused_pos) - (len(base_key) - len(missing))
    if missing or extra:
        detail = []
        if missing:
            name, lv, k = missing[0]
            detail.append(f"baseline primitive {name}{lv} (occurrence {k + 1}) "
                          f"has no image in the fused stream")
        if extra:
            detail.append(f"fused stream has {extra} primitive(s) the baseline "
                          f"does not execute")
        cex.append(Counterexample(
            reason="structure", field="", hazard="", base_i=0, base_j=0,
            kernel_i="", kernel_j="", interval_i=(0, 0), interval_j=(0, 0),
            fused_i=-1, fused_j=-1, fused_kernel_i="", fused_kernel_j="",
            detail="; ".join(detail)))
        return 0, len(fused_pos), cex

    # -- happens-before on every conflicting pair -----------------------------
    g = build_dependency_graph(list(fused_records))
    descendants: dict[int, set[int]] = {}
    pairs = 0
    for i, j, dep, ref in iter_conflict_pairs(base_records, base_map):
        pairs += 1
        fi, pi = fused_pos[base_key[i]]
        fj, pj = fused_pos[base_key[j]]
        if fi == fj:
            if pi < pj:
                continue
            reason, detail = "reordered", (
                "both map into one fused kernel but the body order is reversed")
        else:
            if fi not in descendants:
                descendants[fi] = g.descendants(fi)
            if fj in descendants[fi]:
                continue
            reason, detail = "unordered", (
                "no dependency path orders the fused kernels; the scheduler "
                "may run them concurrently or reversed")
        iv_i, iv_j = _witness(base_map, i, j, dep, ref)
        cex.append(Counterexample(
            reason=reason, field=str(ref), hazard=dep, base_i=i, base_j=j,
            kernel_i=_label(base_records, i), kernel_j=_label(base_records, j),
            interval_i=iv_i, interval_j=iv_j, fused_i=fi, fused_j=fj,
            fused_kernel_i=_label(fused_records, fi),
            fused_kernel_j=_label(fused_records, fj), detail=detail))
        if len(cex) >= max_counterexamples:
            break
    return pairs, len(fused_pos), cex


def prove_fusion_legality(fusion: FusionConfig, wl_kwargs: Mapping[str, Any],
                          steps: int = 2,
                          tamper: Callable[[list[KernelRecord]],
                                           list[KernelRecord]] | None = None,
                          ) -> LegalityProof:
    """Prove a fusion configuration is a legal contraction of Fig. 4b.

    The proof plan admission runs
    (:func:`~repro.backend.compiler.prove_plan_legality`), on the fused
    simulation's own engine over ``steps`` coarse steps.  ``tamper``
    (tests, the CLI's seeded negative control) may rewrite the fused
    stream's records before the proof runs; the baseline side and the
    access maps are never tampered, so a record that lies about its
    kernel surfaces as a lost happens-before pair.

    The original Fig. 4a layout is a different *algorithm* (gather
    Accumulate, fine-ghost Explosion copies), not a contraction of 4b:
    it gets the verdict ``"baseline"`` and an empty proof, and so does
    4b's own untampered stream, which would be proven against itself.
    """
    from ..backend.compiler import prove_plan_legality

    records, _, sim = plan_stream(fusion, wl_kwargs, steps)
    if tamper is not None:
        records = tamper(records)
    return prove_plan_legality(sim.stepper, records, AccessTracer(), steps)


# -- seeded negative controls --------------------------------------------------

def hoist_collide(records: list[KernelRecord]) -> list[KernelRecord]:
    """Move the next Collision of the first Explosion's level in front of
    it: the next substep collides entries the Explosion has not written."""
    e = next(i for i, r in enumerate(records) if r.name == "E")
    c = next(i for i, r in enumerate(records)
             if i > e and r.name.startswith("C") and r.level == records[e].level)
    return [*records[:e], records[c], *records[e:c], *records[c + 1:]]


def late_explode(records: list[KernelRecord]) -> list[KernelRecord]:
    """Move the last level-1 Explode before the first level-0 Stream to
    just behind it: the Explode reads coarse post-collision values in
    ``f`` that the Stream has already overwritten."""
    s = next(i for i, r in enumerate(records)
             if r.name.startswith("S") and r.level == 0)
    e = max(i for i, r in enumerate(records[:s])
            if r.name == "E" and r.level == 1)
    return [*records[:e], *records[e + 1:s + 1], records[e], *records[s + 1:]]


#: The seeded-illegal controls: ``name -> (fusion config, tamper)``.
SEEDED_CONTROLS = {"fusion": ("fuse-SO", hoist_collide),
                   "late Explode": ("baseline-4b", late_explode)}


def seeded_illegal_proof(wl_kwargs: Mapping[str, Any], steps: int = 2,
                         control: str = "fusion") -> LegalityProof:
    """Negative control: a seeded-illegal stream must be rejected.

    Runs the contraction proof for the control's fusion config with its
    stream reordered (:data:`SEEDED_CONTROLS`; records and access
    maps untouched): the proof must return ``"illegal"`` with a
    counterexample naming the reordered pair.
    """
    from ..core.fusion import get_config
    fusion, tamper = SEEDED_CONTROLS[control]
    return prove_fusion_legality(get_config(fusion), wl_kwargs, steps,
                                 tamper=tamper)
