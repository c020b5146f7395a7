"""Static lint pass over a kernel stream's symbolic access sets.

Consumes the declaration stream and the :class:`~repro.analysis.static.AccessModel`
(never a population value) and reports two severities:

* ``error`` — the step plan is wasteful as declared and the ``--static``
  gate fails: **dead stores** (a write fully shadowed by a later write
  with no intervening overlapping read — the classic write-write
  shadowing bug).
* ``opportunity`` — legal but leaving performance on the table, reported
  with predicted bytes (and µs on the reference device) saved:
  **redundant loads** (the same rows of a field read twice with no
  intervening write — a fusion or caching candidate) and **droppable
  buffers** (allocated but never touched by any kernel of the stream —
  e.g. the finest-level ``fstar`` once CASE keeps the post-collision
  state in registers).

The report also carries ``touched_bytes``, the allocations the stream
does touch.  It is a plain sum: Algorithm 1 nests a finer level's
kernels inside the coarser level's, so every buffer's live range
overlaps every other's and no two could share storage.

All findings carry machine-readable fields so certificates can embed
them; ``lint_stream`` is pure over its inputs and never executes a body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..gpu.costmodel import traffic_time_us
from ..gpu.device import DeviceSpec, get_device
from ..neon.graph import _access_overlap
from ..neon.runtime import FieldRef, KernelRecord
from .capture import ATOMIC, META, READ, WRITE
from .static import AccessModel, StaticAccess

__all__ = ["LintFinding", "LintReport", "lint_stream"]


@dataclass(frozen=True)
class LintFinding:
    """One lint diagnostic over a kernel stream."""

    check: str                  # dead-store | redundant-load
                                # | droppable-buffer
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
    """All findings of one stream, plus the bytes of the buffers it touches."""

    findings: tuple[LintFinding, ...]
    touched_bytes: int

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


def _touched_bytes(model: AccessModel,
                   flat: list[tuple[int, StaticAccess]]) -> int:
    """Bytes of the allocations the stream touches.

    In the priced GPU layout ``fghost`` rows are the tail of the
    ``fstar`` allocation, so touching either counts the whole ``fstar``
    once.
    Untouched buffers are not counted — the droppable-buffer check
    reports those.
    """
    refs: set[FieldRef] = set()
    for _, a in flat:
        assert a.field is not None
        ref = a.field
        refs.add(FieldRef("fstar", ref.level) if ref.name == "fghost" else ref)
    return sum(model.field_nbytes(ref) for ref in refs)


def lint_stream(records: Sequence[KernelRecord], model: AccessModel,
                device: DeviceSpec | None = None,
                static_map: Mapping[int, Sequence[StaticAccess]] | None = None,
                ) -> LintReport:
    """Run every lint check over one stream.

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
    findings.extend(_droppable_buffers(model, flat))
    return LintReport(findings=tuple(findings),
                      touched_bytes=_touched_bytes(model, flat))
