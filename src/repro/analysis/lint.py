"""Lint pass over a kernel stream's access map.

Consumes the kernel stream, its access map (what each body's report
states, :func:`repro.backend.compiler.bind_stream`) and the engine's
buffer sizes — never a population value — and reports two severities:

* ``error`` — the step plan is wasteful as declared, plan admission
  refuses it and ``repro analysis`` fails: **dead stores** (a write
  fully shadowed by a later write with no intervening overlapping read
  — the classic write-write shadowing bug).
* ``opportunity`` — legal but leaving performance on the table, reported
  with predicted bytes (and µs on the reference device) saved:
  **redundant loads** (the same rows of a field read twice with no
  intervening write — a fusion or caching candidate) and **droppable
  buffers** (never touched by any kernel of the stream — the fine
  ghosts outside the 4a layout).  The host engine allocates none of
  them (:meth:`~repro.core.engine.Engine.allocate`).

The report also carries ``touched_bytes``, the allocations the stream
does touch.  It is a plain sum: Algorithm 1 nests a finer level's
kernels inside the coarser level's, so every buffer's live range
overlaps every other's and no two could share storage.

All findings carry machine-readable fields so certificates can embed
them; ``lint_stream`` is pure over its inputs and never executes a body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..gpu.costmodel import traffic_time_us
from ..gpu.device import DeviceSpec, get_device
from ..neon.graph import _access_overlap
from ..neon.runtime import FieldRef, KernelRecord
from .capture import ATOMIC, META, READ, WRITE, Access

if TYPE_CHECKING:
    from ..core.engine import Engine

__all__ = ["LintFinding", "LintReport", "field_nbytes", "lint_stream"]


@dataclass(frozen=True)
class LintFinding:
    """One lint diagnostic over a kernel stream."""

    check: str                  # dead-store | redundant-load
                                # | droppable-buffer
    severity: str               # "error" | "opportunity"
    field: str                  # field label ("f@1") or buffer name
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


def field_nbytes(engine: "Engine", ref: FieldRef) -> int:
    """Bytes of the host buffer backing ``ref``, allocated or not.

    A level stores one ``(Q, n_owned)`` population buffer ``f``, the 4a
    layout's fine ghosts (rows ``n_owned..n_used``) in ``fghost``, and
    its ghost accumulator (a slot per bin Coalescence reads), all in
    ``f``'s dtype: host bytes, not the device kernels'
    (:attr:`Engine.itemsize <repro.core.engine.Engine.itemsize>`).
    """
    buf = engine.levels[ref.level]
    row = engine.lat.q * buf.f.itemsize
    if ref.name == "f":
        return row * buf.n_owned
    if ref.name == "fghost":
        return row * (buf.n_used - buf.n_owned)
    if ref.name == "gacc":
        return int(buf.ghost_acc.nbytes)
    raise KeyError(f"unknown field {ref}")


def _known_fields(engine: "Engine") -> list[FieldRef]:
    """Every allocatable field of the compiled stack, all levels."""
    out: list[FieldRef] = []
    for lv, buf in enumerate(engine.levels):
        out.append(FieldRef("f", lv))
        if buf.ghost_acc.size:
            out.append(FieldRef("gacc", lv))
        if buf.n_used > buf.n_owned:
            out.append(FieldRef("fghost", lv))
    return out


def _flat(accesses: Mapping[int, Sequence[Access]],
          ) -> list[tuple[int, Access]]:
    """(record index, access) pairs in stream order, meta dropped."""
    out: list[tuple[int, Access]] = []
    for i in sorted(accesses):
        for a in accesses[i]:
            if a.kind != META and a.field is not None and a.hi > a.lo:
                out.append((i, a))
    return out


# -- individual checks ---------------------------------------------------------

def _dead_stores(records: Sequence[KernelRecord],
                 flat: list[tuple[int, Access]],
                 device: DeviceSpec) -> list[LintFinding]:
    """Writes fully shadowed by a later write before any overlapping read.

    Atomics count as reads (read-modify-write) and as shadowing writes.
    The *last* write of a field in the stream is exempt: it is the step's
    output, alive beyond the analyzed window (the next step reads it).
    """
    out: list[LintFinding] = []
    per_field: dict[FieldRef, list[tuple[int, Access]]] = {}
    for i, a in flat:
        assert a.field is not None
        per_field.setdefault(a.field, []).append((i, a))
    for ref, accs in per_field.items():
        for k, (i, a) in enumerate(accs):
            if a.kind != WRITE:
                continue
            shadowed: tuple[int, Access] | None = None
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
                     flat: list[tuple[int, Access]],
                     device: DeviceSpec) -> list[LintFinding]:
    """Two overlapping reads of one field with no intervening write.

    Legal, but the second read re-fetches rows the first already moved
    through DRAM — a fusion (or persistent-cache) candidate.  One
    finding per (field, later record), anchored at the re-reader.
    """
    out: list[LintFinding] = []
    per_field: dict[FieldRef, list[tuple[int, Access]]] = {}
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


def _droppable_buffers(engine: "Engine",
                       flat: list[tuple[int, Access]],
                       ) -> list[LintFinding]:
    """Allocated buffers no kernel of the stream ever touches."""
    touched = {a.field for _, a in flat}
    out: list[LintFinding] = []
    for ref in _known_fields(engine):
        if ref in touched:
            continue
        nbytes = field_nbytes(engine, ref)
        if nbytes <= 0:
            continue
        out.append(LintFinding(
            check="droppable-buffer", severity="opportunity",
            field=str(ref), index=-1, kernel="",
            bytes_saved=0, capacity_saved=nbytes, time_saved_us=0.0,
            detail="allocated but never accessed by any kernel of the stream"))
    return out


def _touched_bytes(engine: "Engine",
                   flat: list[tuple[int, Access]]) -> int:
    """Bytes of the allocations the stream touches.

    Untouched buffers are not counted — the droppable-buffer check
    reports those.
    """
    refs = {a.field for _, a in flat}
    return sum(field_nbytes(engine, ref) for ref in refs if ref is not None)


def lint_stream(records: Sequence[KernelRecord],
                accesses: Mapping[int, Sequence[Access]], engine: "Engine",
                device: DeviceSpec | None = None) -> LintReport:
    """Run every lint check over one stream and its access map."""
    dev = device if device is not None else get_device("A100-40GB")
    flat = _flat(accesses)
    findings: list[LintFinding] = []
    findings.extend(_dead_stores(records, flat, dev))
    findings.extend(_redundant_loads(records, flat, dev))
    findings.extend(_droppable_buffers(engine, flat))
    return LintReport(findings=tuple(findings),
                      touched_bytes=_touched_bytes(engine, flat))
