"""Static lint pass over a kernel stream's symbolic access sets.

Consumes the declaration stream and the :class:`~repro.analysis.static.AccessModel`
(never a population value) and reports two severities:

* ``error`` — the step plan is wasteful or unsound as declared and the
  ``--static`` gate fails: **dead stores** (a write fully shadowed by a
  later write with no intervening overlapping read — the classic
  write-write shadowing bug) and **arena aliasing** (two buffers sharing
  an arena slab while both are live, via the lifetime model in
  :mod:`repro.gpu.memory`).
* ``opportunity`` — legal but leaving performance on the table, reported
  with predicted bytes (and µs on the reference device) saved:
  **redundant loads** (the same rows of a field read twice with no
  intervening write — a fusion or caching candidate), **AA-pattern
  double buffering** (a level whose ``f``/``fstar`` ping-pong in-place
  AA streaming (§VI-B) would collapse into one buffer, the cuda_lbm
  71%-of-bandwidth transformation) and **droppable buffers** (allocated
  but never touched by any kernel of the stream — e.g. the finest-level
  ``fstar`` once CASE keeps the post-collision state in registers).

All findings carry machine-readable fields so certificates can embed
them; ``lint_stream`` is pure over its inputs and never executes a body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..gpu.costmodel import traffic_time_us
from ..gpu.device import DeviceSpec, get_device
from ..gpu.memory import BufferLifetime, arena_assign, arena_check, arena_peak_bytes
from ..neon.graph import _access_overlap
from ..neon.runtime import FieldRef, KernelRecord
from .capture import ATOMIC, META, READ, WRITE
from .static import AccessModel, StaticAccess

__all__ = ["LintFinding", "LintReport", "lint_stream", "build_lifetimes",
           "stream_lifetimes"]


@dataclass(frozen=True)
class LintFinding:
    """One lint diagnostic over a kernel stream."""

    check: str                  # dead-store | arena-alias | redundant-load
                                # | aa-double-buffer | droppable-buffer
    severity: str               # "error" | "opportunity"
    field: str                  # field label ("fstar@1") or buffer name
    index: int                  # record index the finding anchors to (-1: global)
    kernel: str                 # kernel label at that index ("" for global)
    bytes_saved: int            # predicted DRAM traffic eliminated
    capacity_saved: int         # predicted device capacity freed
    time_saved_us: float        # bytes_saved at the device's bandwidth
    detail: str

    def __str__(self) -> str:
        where = f"#{self.index} {self.kernel}" if self.index >= 0 else "stream"
        gain = ""
        if self.bytes_saved or self.capacity_saved:
            parts = []
            if self.bytes_saved:
                parts.append(f"{self.bytes_saved} B traffic, "
                             f"{self.time_saved_us:.2f} us")
            if self.capacity_saved:
                parts.append(f"{self.capacity_saved} B capacity")
            gain = f" [saves {'; '.join(parts)}]"
        return (f"{self.severity}:{self.check} {self.field} at {where}: "
                f"{self.detail}{gain}")


@dataclass(frozen=True)
class LintReport:
    """All findings of one stream, plus the arena model that produced them."""

    findings: tuple[LintFinding, ...]
    lifetimes: tuple[BufferLifetime, ...]
    arena_bytes: int
    naive_bytes: int

    @property
    def errors(self) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def opportunities(self) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "opportunity")


def _label(records: Sequence[KernelRecord], i: int) -> str:
    return f"{records[i].name}{records[i].level}"


def _flat(static_map: Mapping[int, Sequence[StaticAccess]],
          ) -> list[tuple[int, StaticAccess]]:
    """(record index, access) pairs in stream order, meta dropped."""
    out: list[tuple[int, StaticAccess]] = []
    for i in sorted(static_map):
        for a in static_map[i]:
            if a.kind != META and a.field is not None and a.hi > a.lo:
                out.append((i, a))
    return out


# -- individual checks ---------------------------------------------------------

def _dead_stores(records: Sequence[KernelRecord],
                 flat: list[tuple[int, StaticAccess]],
                 device: DeviceSpec) -> list[LintFinding]:
    """Writes fully shadowed by a later write before any overlapping read.

    Atomics count as reads (read-modify-write) and as shadowing writes.
    The *last* write of a field in the stream is exempt: it is the step's
    output, alive beyond the analyzed window (the next step reads it).
    """
    out: list[LintFinding] = []
    per_field: dict[FieldRef, list[tuple[int, StaticAccess]]] = {}
    for i, a in flat:
        assert a.field is not None
        per_field.setdefault(a.field, []).append((i, a))
    for ref, accs in per_field.items():
        for k, (i, a) in enumerate(accs):
            if a.kind != WRITE:
                continue
            shadowed: tuple[int, StaticAccess] | None = None
            for j, b in accs[k + 1:]:
                if not _access_overlap(a, b):
                    continue
                if b.kind in (READ, ATOMIC):
                    break
                # a scattered (exact-entry) write has a wide envelope but
                # only touches isolated entries — it never fully covers
                if b.kind == WRITE and b.entries is None and b.covers(a.lo, a.hi):
                    shadowed = (j, b)
                    break
            if shadowed is not None:
                j, b = shadowed
                out.append(LintFinding(
                    check="dead-store", severity="error",
                    field=str(ref), index=i, kernel=_label(records, i),
                    bytes_saved=a.nbytes, capacity_saved=0,
                    time_saved_us=traffic_time_us(a.nbytes, device),
                    detail=(f"write of rows [{a.lo},{a.hi}) is overwritten by "
                            f"#{j} {_label(records, j)} before any read")))
    return out


def _redundant_loads(records: Sequence[KernelRecord],
                     flat: list[tuple[int, StaticAccess]],
                     device: DeviceSpec) -> list[LintFinding]:
    """Two overlapping reads of one field with no intervening write.

    Legal, but the second read re-fetches rows the first already moved
    through DRAM — a fusion (or persistent-cache) candidate.  One
    finding per (field, later record), anchored at the re-reader.
    """
    out: list[LintFinding] = []
    per_field: dict[FieldRef, list[tuple[int, StaticAccess]]] = {}
    for i, a in flat:
        assert a.field is not None
        per_field.setdefault(a.field, []).append((i, a))
    for ref, accs in per_field.items():
        reported: set[int] = set()
        for k, (j, b) in enumerate(accs):
            if b.kind != READ or j in reported:
                continue
            for i, a in reversed(accs[:k]):
                if i == j or not _access_overlap(a, b):
                    continue
                if a.kind in (WRITE, ATOMIC):
                    break
                saved = min(a.nbytes, b.nbytes)
                if saved <= 0:
                    break
                reported.add(j)
                out.append(LintFinding(
                    check="redundant-load", severity="opportunity",
                    field=str(ref), index=j, kernel=_label(records, j),
                    bytes_saved=saved, capacity_saved=0,
                    time_saved_us=traffic_time_us(saved, device),
                    detail=(f"rows [{max(a.lo, b.lo)},{min(a.hi, b.hi)}) were "
                            f"already read by #{i} {_label(records, i)} with "
                            f"no intervening write")))
                break
    return out


def _aa_double_buffer(records: Sequence[KernelRecord],
                      flat: list[tuple[int, StaticAccess]],
                      model: AccessModel,
                      device: DeviceSpec) -> list[LintFinding]:
    """Levels whose f/fstar ping-pong AA-pattern streaming would collapse.

    Signature (per level): Collision writes ``fstar``, Streaming reads it
    back and writes ``f`` — two full population buffers where the AA
    pattern [7] keeps one, reading and writing the same buffer in
    alternating orientations.  Predicted savings: the whole ``fstar``
    allocation (capacity) and every byte of traffic through it.
    """
    out: list[LintFinding] = []
    levels = {r.level for r in records}
    for lv in sorted(levels):
        ref = FieldRef("fstar", lv)
        touched = [(i, a) for i, a in flat if a.field == ref]
        writes = [t for t in touched if t[1].kind == WRITE and t[1].nbytes > 0]
        reads = [t for t in touched if t[1].kind == READ and t[1].nbytes > 0]
        if not writes or not reads:
            continue
        traffic = sum(a.nbytes for _, a in touched)
        capacity = model.field_nbytes(ref)
        i0 = writes[0][0]
        out.append(LintFinding(
            check="aa-double-buffer", severity="opportunity",
            field=str(ref), index=i0, kernel=_label(records, i0),
            bytes_saved=traffic, capacity_saved=capacity,
            time_saved_us=traffic_time_us(traffic, device),
            detail=(f"level {lv} ping-pongs f/fstar ({len(writes)} writes, "
                    f"{len(reads)} reads per window); in-place AA-pattern "
                    f"streaming would drop the second buffer")))
    return out


def _droppable_buffers(model: AccessModel,
                       flat: list[tuple[int, StaticAccess]],
                       ) -> list[LintFinding]:
    """Allocated buffers no kernel of the stream ever touches."""
    touched = {a.field for _, a in flat}
    out: list[LintFinding] = []
    for ref in model.known_fields():
        if ref in touched:
            continue
        nbytes = model.field_nbytes(ref)
        if nbytes <= 0:
            continue
        out.append(LintFinding(
            check="droppable-buffer", severity="opportunity",
            field=str(ref), index=-1, kernel="",
            bytes_saved=0, capacity_saved=nbytes, time_saved_us=0.0,
            detail="allocated but never accessed by any kernel of the stream"))
    return out


# -- arena lifetime model ------------------------------------------------------

def build_lifetimes(model: AccessModel,
                    flat: list[tuple[int, StaticAccess]],
                    ) -> list[BufferLifetime]:
    """Buffer live ranges over the stream, from symbolic access sets.

    ``fghost`` rows physically live in the tail of the ``fstar``
    allocation, so the two are merged into one lifetime (splitting them
    would let the arena "free" half an allocation).  Untouched buffers
    get no lifetime — the droppable-buffer check reports those.
    """
    spans: dict[FieldRef, tuple[int, int]] = {}
    for i, a in flat:
        assert a.field is not None
        ref = a.field
        if ref.name == "fghost":  # tail of the fstar allocation
            ref = FieldRef("fstar", ref.level)
        lo, hi = spans.get(ref, (i, i))
        spans[ref] = (min(lo, i), max(hi, i))
    return [BufferLifetime(name=str(ref), nbytes=model.field_nbytes(ref),
                           first=lo, last=hi)
            for ref, (lo, hi) in sorted(spans.items(),
                                        key=lambda kv: str(kv[0]))]


def stream_lifetimes(records: Sequence[KernelRecord],
                     model: AccessModel) -> list[BufferLifetime]:
    """Buffer live ranges of a stream, straight from a record list.

    Convenience over :func:`build_lifetimes` for callers outside the
    lint pass (the metrics registry publishes the packed arena's peak
    occupancy per step): derives the symbolic access map and flattens it
    the same way :func:`lint_stream` does.
    """
    return build_lifetimes(model, _flat(model.access_map(records)))


def lint_stream(records: Sequence[KernelRecord], model: AccessModel,
                device: DeviceSpec | None = None,
                lifetimes: Sequence[BufferLifetime] | None = None,
                static_map: Mapping[int, Sequence[StaticAccess]] | None = None,
                ) -> LintReport:
    """Run every lint check over one stream.

    ``lifetimes`` overrides the derived arena model (tests inject broken
    assignments); by default live ranges are derived from the access sets
    and packed with :func:`~repro.gpu.memory.arena_assign`, whose result
    is then itself verified with :func:`~repro.gpu.memory.arena_check` —
    the allocator is not trusted by the linter that gates on it.
    ``static_map`` is ``model.access_map(records)`` when the caller has
    it already (plan admission shares one with the certificate).
    """
    dev = device if device is not None else get_device("A100-40GB")
    if static_map is None:
        static_map = model.access_map(records)
    flat = _flat(static_map)
    findings: list[LintFinding] = []
    findings.extend(_dead_stores(records, flat, dev))
    findings.extend(_redundant_loads(records, flat, dev))
    findings.extend(_aa_double_buffer(records, flat, model, dev))
    findings.extend(_droppable_buffers(model, flat))

    if lifetimes is None:
        lts = arena_assign(build_lifetimes(model, flat))
    else:
        lts = list(lifetimes)
    for problem in arena_check(lts):
        findings.append(LintFinding(
            check="arena-alias", severity="error", field="", index=-1,
            kernel="", bytes_saved=0, capacity_saved=0, time_saved_us=0.0,
            detail=problem))
    naive = sum(lt.nbytes for lt in lts)
    return LintReport(findings=tuple(findings), lifetimes=tuple(lts),
                      arena_bytes=arena_peak_bytes(lts), naive_bytes=naive)
