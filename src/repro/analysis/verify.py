"""Declaration verifier: diff each body's access report against its declaration.

A kernel's footprint is stated twice, independently: by the launch
declaration the scheduler trusts and by the access report bound with its
body (:mod:`repro.analysis.capture`).  For every
:class:`~repro.neon.runtime.KernelRecord` we compare

* the fields the report says the body reads/writes against the declared
  ``reads``/``writes`` tuples, and
* the reported DRAM traffic against the declared
  ``bytes_read``/``bytes_written``/``atomic_bytes``.

A read of a field the same kernel wrote earlier in its own body is an
*internal forwarding* (registers / same-launch visibility) and needs no
declaration — the fused Collision+Accumulate kernel re-reads its own
post-collision output this way.  Atomic scatters count as writes for
declaration purposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..neon.runtime import FieldRef, KernelRecord
from .capture import ATOMIC, META, READ, Access

__all__ = ["Finding", "verify_record", "verify_trace"]


@dataclass(frozen=True)
class Finding:
    """One declared-vs-reported discrepancy on one kernel launch."""

    check: str          # e.g. "undeclared-read", "bytes-written-mismatch"
    index: int          # record index within the trace
    kernel: str         # Fig.-2 style label, e.g. "SEO1"
    field: str          # "f@1" or "" for byte-level checks
    detail: str

    def __str__(self) -> str:
        where = f" [{self.field}]" if self.field else ""
        return f"#{self.index} {self.kernel}: {self.check}{where} — {self.detail}"


def _label(r: KernelRecord) -> str:
    return f"{r.name}{r.level}"


def verify_record(index: int, record: KernelRecord,
                  accesses: Sequence[Access]) -> list[Finding]:
    """Findings for one launch: field-set diffs and byte-count diffs."""
    declared_r, declared_w = set(record.reads), set(record.writes)
    written_so_far: set[FieldRef] = set()
    observed_r_external: set[FieldRef] = set()
    observed_r_any: set[FieldRef] = set()
    observed_w: set[FieldRef] = set()
    rbytes = wbytes = abytes = 0
    for a in accesses:
        if a.kind == META:
            rbytes += a.nbytes
            continue
        assert a.field is not None
        if a.kind == READ:
            observed_r_any.add(a.field)
            if a.field not in written_so_far:
                observed_r_external.add(a.field)
            rbytes += a.nbytes
        else:  # write or atomic
            observed_w.add(a.field)
            written_so_far.add(a.field)
            wbytes += a.nbytes
            if a.kind == ATOMIC:
                abytes += a.nbytes

    label = _label(record)
    out: list[Finding] = []

    def add(check: str, field: FieldRef | None, detail: str) -> None:
        out.append(Finding(check=check, index=index, kernel=label,
                           field=str(field) if field is not None else "",
                           detail=detail))

    for ref in sorted(observed_r_external - declared_r, key=str):
        add("undeclared-read", ref,
            "body reads this field but the kernel does not declare it; "
            "the scheduler will miss a RAW/WAR dependency")
    for ref in sorted(declared_r - observed_r_any, key=str):
        add("over-declared-read", ref,
            "declared as input but the body never reads it; "
            "the schedule carries a spurious dependency")
    for ref in sorted(observed_w - declared_w, key=str):
        add("undeclared-write", ref,
            "body writes this field but the kernel does not declare it; "
            "the scheduler will miss a RAW/WAW dependency")
    for ref in sorted(declared_w - observed_w, key=str):
        add("over-declared-write", ref,
            "declared as output but the body never writes it")

    if rbytes != record.bytes_read:
        add("bytes-read-mismatch", None,
            f"declared {record.bytes_read} B, observed {rbytes} B")
    if wbytes != record.bytes_written:
        add("bytes-written-mismatch", None,
            f"declared {record.bytes_written} B, observed {wbytes} B")
    if abytes != record.atomic_bytes:
        add("atomic-bytes-mismatch", None,
            f"declared {record.atomic_bytes} B, observed {abytes} B")
    return out


def verify_trace(records: Sequence[KernelRecord],
                 captured: Mapping[int, Sequence[Access]],
                 indices: Iterable[int] | None = None) -> list[Finding]:
    """Verify every captured launch of a trace.

    ``captured`` is a bind-time access map
    (:func:`repro.analysis.static.plan_stream`);
    ``indices`` restricts the check (default: every record).  A record
    yielding no entry is reported as ``uncaptured`` so silent gaps
    cannot pass the gate.
    """
    out: list[Finding] = []
    for i in (range(len(records)) if indices is None else indices):
        r = records[i]
        if i not in captured:
            out.append(Finding(check="uncaptured", index=i, kernel=_label(r),
                               field="",
                               detail="no accesses captured for this launch"))
            continue
        out.extend(verify_record(i, r, captured[i]))
    return out
