"""What a kernel touches: the access report bound with each body.

Every kernel body in :mod:`repro.core.engine` is built together with its
access report — a closure that states, to an :class:`AccessTracer`, each
read, plain write and atomic-add scatter the body performs, with the row
interval taken from the index arrays the body uses.  That report is the
one statement of a kernel's footprint: the capture evaluates it once
(:meth:`~repro.neon.runtime.Runtime.capture_plan`; no body runs), the
launch record is read off it
(:meth:`~repro.neon.runtime.KernelRecord.from_accesses`), and admission,
the legality proof, lint, certificates and ``repro analysis`` reason over
what it stated.  A report is not an observation of its body;
``tests/test_static_analysis.py`` checks each report against what its
body actually reads and writes.  The access kinds (``READ``, ``WRITE``,
``ATOMIC``, ``META``) are :mod:`repro.neon.runtime`'s.

Row coordinates are the engine's compact row space: rows ``0..n_owned-1``
are the owned cells of a level — all of its one population buffer ``f``,
``(Q, n_owned)`` — and rows ``n_owned..n_used-1`` the fine-ghost region of
the original baseline, the ``fghost`` field, which the engine allocates
for that layout alone (column ``r - n_owned`` holds row ``r``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..neon.runtime import ATOMIC, META, READ, WRITE, FieldRef

__all__ = ["Access", "AccessTracer", "EntrySet", "READ", "WRITE", "ATOMIC",
           "META"]

_KINDS = frozenset((READ, WRITE, ATOMIC, META))


class EntrySet:
    """An exact set of entry ids: one sorted, unique, read-only int32 array.

    int32 holds any id: the grid compile refuses ``Q * n_used >= 2**31``
    (``n_used``: the owned rows plus the 4a layout's fine-ghost rows).
    Duplicates go by a sort and an adjacent-difference mask — ``np.unique``
    takes a hash path on NumPy 2.4 that costs more than the sort.
    """

    __slots__ = ("ids",)

    def __init__(self, ids: Any) -> None:
        ids = np.sort(np.asarray(ids, dtype=np.int32), axis=None)
        keep = np.ones(ids.size, dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=keep[1:])
        self.ids: np.ndarray = ids[keep]
        self.ids.flags.writeable = False

    def __len__(self) -> int:
        return int(self.ids.size)

    def __eq__(self, other: object) -> bool:
        return (self is other or isinstance(other, EntrySet)
                and np.array_equal(self.ids, other.ids))

    def __hash__(self) -> int:
        return hash(self.ids.tobytes())

    def isdisjoint(self, other: "EntrySet") -> bool:
        """True when no id is in both sets: the smaller searched in the larger."""
        if other is self:
            return not self.ids.size
        small, big = sorted((self.ids, other.ids), key=len)
        at = np.searchsorted(big, small).clip(max=big.size - 1)
        return not np.any(big[at] == small)


@dataclass(frozen=True)
class Access:
    """One reported access: a field, a half-open row interval, a payload.

    ``nbytes`` models the DRAM traffic of the access under the paper's
    two-buffer accounting (register-resident re-reads inside a
    fused kernel carry 0 bytes); ``lo``/``hi`` bound the rows the body
    indexes.  ``entries`` (when not ``None``) is the exact set of entry
    ids the body's flat index map names — the interval is then only an
    envelope, and two exact accesses conflict only if the sets intersect
    (:func:`repro.neon.graph._access_overlap`).
    """

    field: FieldRef | None
    kind: str
    lo: int
    hi: int
    nbytes: int
    entries: EntrySet | None = None

    def covers(self, lo: int, hi: int) -> bool:
        """True when ``[lo, hi)`` lies inside this access's interval."""
        return self.lo <= lo and hi <= self.hi

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"{self.field}[{self.lo}:{self.hi}]" if self.field else "meta"
        exact = f" ({len(self.entries)} exact)" if self.entries is not None else ""
        return f"{self.kind} {where}{exact} ({self.nbytes} B)"


class AccessTracer:
    """Collects the :class:`Access` records one kernel's report states.

    Every launch is bracketed with :meth:`begin_launch` /
    :meth:`end_launch`; a report calls :meth:`read` / :meth:`write` /
    :meth:`atomic` / :meth:`meta` only while a launch is active.  A
    register-resident access inside a fused kernel (the CASE kernel's
    post-collision populations) is reported with 0 bytes, so it still
    names the storage the host body touches.  An ``entries=`` index
    array becomes one :class:`EntrySet`, built the first time this
    tracer sees the array
    (the engine shares each flat index map between every body it binds,
    so every report naming a patch gets the same object).
    """

    def __init__(self) -> None:
        self._current: list[Access] | None = None
        #: ``id(array) -> (array, EntrySet)``; the array is kept so its id
        #: cannot be reused while the tracer lives.
        self._entry_sets: dict[int, tuple[np.ndarray, EntrySet]] = {}

    @property
    def active(self) -> bool:
        """True while a launch is being recorded."""
        return self._current is not None

    # -- launch bracketing ---------------------------------------------------
    def begin_launch(self) -> None:
        if self._current is not None:
            raise RuntimeError("nested kernel launches cannot be traced")
        self._current = []

    def end_launch(self) -> list[Access]:
        if self._current is None:
            raise RuntimeError("end_launch() without begin_launch()")
        out, self._current = self._current, None
        return out

    # -- recording ------------------------------------------------------------
    def _entry_set(self, ids: np.ndarray) -> EntrySet:
        got = self._entry_sets.get(id(ids))
        if got is None:
            got = self._entry_sets[id(ids)] = (ids, EntrySet(ids))
        return got[1]

    def _add(self, field: FieldRef | None, kind: str, lo: int, hi: int,
             nbytes: int, entries: np.ndarray | None = None) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown access kind {kind!r}")
        if self._current is None:
            return
        self._current.append(Access(
            field=field, kind=kind, lo=int(lo), hi=int(hi), nbytes=int(nbytes),
            entries=None if entries is None else self._entry_set(entries)))

    def read(self, field: FieldRef, lo: int, hi: int, nbytes: int,
             entries: np.ndarray | None = None) -> None:
        self._add(field, READ, lo, hi, nbytes, entries)

    def write(self, field: FieldRef, lo: int, hi: int, nbytes: int,
              entries: np.ndarray | None = None) -> None:
        self._add(field, WRITE, lo, hi, nbytes, entries)

    def atomic(self, field: FieldRef, lo: int, hi: int, nbytes: int) -> None:
        self._add(field, ATOMIC, lo, hi, nbytes)

    def meta(self, nbytes: int) -> None:
        """Structural metadata traffic (no field identity)."""
        if nbytes:
            self._add(None, META, 0, 0, nbytes)
