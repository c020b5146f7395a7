"""Wave-level race detection over captured accesses.

:func:`~repro.neon.graph.schedule_waves` partitions a kernel trace into
maximal concurrent waves — kernels in one wave run with no
synchronisation between them, so any pair whose accesses conflict on
the same field is a data race on the device.  Two accesses can touch a
common entry by the one rule the interval-refined dependency graph uses
(:func:`repro.neon.graph._access_overlap`: overlapping half-open row
intervals, decided by the exact entry sets when both sides carry one).
Conflict rules:

* read / read — never a conflict;
* atomic / atomic — commutative (the Accumulate scatter is an
  atomic-add), never a conflict;
* write / write, write / read — a conflict when the accesses overlap;
* atomic / plain (read or write) — a conflict when they overlap:
  atomicity does not order an atomic add against a plain access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..neon.graph import _access_overlap
from ..neon.runtime import KernelRecord
from .capture import ATOMIC, META, READ, Access

__all__ = ["Race", "access_conflict", "detect_races"]


@dataclass(frozen=True)
class Race:
    """Two same-wave kernels with conflicting accesses."""

    wave: int
    field: str
    hazard: str               # "waw" | "rw" | "atomic-plain"
    a: int                    # record index of the first kernel
    b: int                    # record index of the second kernel
    kernel_a: str
    kernel_b: str
    kind_a: str
    kind_b: str
    interval_a: tuple[int, int]
    interval_b: tuple[int, int]

    def __str__(self) -> str:
        return (f"wave {self.wave}: {self.kernel_a}#{self.a} {self.kind_a} "
                f"{self.field}{list(self.interval_a)} races "
                f"{self.kernel_b}#{self.b} {self.kind_b} "
                f"{self.field}{list(self.interval_b)} ({self.hazard})")


def access_conflict(a: Access, b: Access) -> str | None:
    """Hazard name if the two accesses conflict when concurrent, else None."""
    if a.kind == META or b.kind == META:
        return None
    if a.kind == READ and b.kind == READ:
        return None
    if a.kind == ATOMIC and b.kind == ATOMIC:
        return None  # commutative atomic adds
    if not _access_overlap(a, b):
        return None
    if ATOMIC in (a.kind, b.kind):
        return "atomic-plain"
    if a.kind == READ or b.kind == READ:
        return "rw"
    return "waw"


def detect_races(records: Sequence[KernelRecord],
                 captured: Mapping[int, Sequence[Access]],
                 waves: Sequence[Sequence[int]]) -> list[Race]:
    """Flag every conflicting same-wave pair at row-interval / entry granularity.

    ``waves`` is :func:`~repro.neon.graph.schedule_waves` output over the
    same ``records``; ``captured`` the runtime's captured accesses.  A
    record without captured accesses contributes nothing — run the
    declaration verifier alongside to catch such gaps.
    """
    out: list[Race] = []
    for w_idx, wave in enumerate(waves):
        if len(wave) < 2:
            continue
        per_field: dict[object, list[tuple[int, Access]]] = {}
        for idx in wave:
            for acc in captured.get(idx, ()):
                if acc.field is None:
                    continue
                per_field.setdefault(acc.field, []).append((idx, acc))
        for field, entries in per_field.items():
            for n1, (i, a) in enumerate(entries):
                for j, b in entries[n1 + 1:]:
                    if i == j:
                        continue
                    hazard = access_conflict(a, b)
                    if hazard is None:
                        continue
                    out.append(Race(
                        wave=w_idx, field=str(field), hazard=hazard,
                        a=i, b=j,
                        kernel_a=f"{records[i].name}{records[i].level}",
                        kernel_b=f"{records[j].name}{records[j].level}",
                        kind_a=a.kind, kind_b=b.kind,
                        interval_a=(a.lo, a.hi), interval_b=(b.lo, b.hi)))
    return out
