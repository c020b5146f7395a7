"""Shadow-recording of the buffer accesses a kernel body actually performs.

The engine's kernel bodies are instrumented at the point where they index
into the population / accumulator buffers: every read, plain write and
atomic-add scatter is reported to the active :class:`AccessTracer` with
the *actual* row interval taken from the index arrays the body uses.
Declarations (the ``reads=``/``writes=`` tuples and byte counts handed to
:meth:`~repro.neon.runtime.Runtime.launch`) never feed into the capture;
the two sides stay independent so :mod:`repro.analysis.verify` can diff
them.

Row coordinates are the engine's compact row space: rows ``0..n_owned-1``
are the owned cells of a level — all of ``f`` and ``fstar``, both
``(Q, n_owned)`` — and rows ``n_owned..n_used-1`` the fine-ghost region of
the original baseline, the ``fghost`` field, which the engine allocates
for that layout alone (column ``r - n_owned`` holds row ``r``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..neon.runtime import FieldRef

__all__ = ["Access", "AccessTracer", "READ", "WRITE", "ATOMIC", "META"]

#: Access kinds.  ``META`` is structural-metadata traffic (neighbour
#: tables, bitmasks): it contributes to the read-byte total but names no
#: field, so it is exempt from declaration matching and race checks.
READ = "read"
WRITE = "write"
ATOMIC = "atomic"
META = "meta"

_KINDS = frozenset((READ, WRITE, ATOMIC, META))


@dataclass(frozen=True)
class Access:
    """One observed access: a field, a half-open row interval, a payload.

    ``nbytes`` models the DRAM traffic of the access under the same
    accounting the declarations use (register-resident re-reads inside a
    fused kernel carry 0 bytes); ``lo``/``hi`` bound the rows actually
    indexed, so two accesses conflict only if their intervals overlap.
    """

    field: FieldRef | None
    kind: str
    lo: int
    hi: int
    nbytes: int

    def overlaps(self, other: "Access") -> bool:
        # max/min form: an empty interval [x,x) overlaps nothing, even
        # when x lies strictly inside the other interval
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"{self.field}[{self.lo}:{self.hi}]" if self.field else "meta"
        return f"{self.kind} {where} ({self.nbytes} B)"


class AccessTracer:
    """Collects :class:`Access` records for the kernel body in flight.

    The runtime brackets every traced launch with :meth:`begin_launch` /
    :meth:`end_launch`; engine bodies call :meth:`read` / :meth:`write` /
    :meth:`atomic` / :meth:`meta` only while a launch is active.  Fields
    registered through :meth:`suppress` are register-resident for the
    duration of the ``with`` block (the fused CASE kernel keeps the
    post-collision populations in registers): their accesses are not
    recorded at all.
    """

    def __init__(self) -> None:
        self._current: list[Access] | None = None
        self._suppressed: set[FieldRef] = set()

    @property
    def active(self) -> bool:
        """True while a launch body is executing under capture."""
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

    # -- register-resident fields -------------------------------------------
    @contextmanager
    def suppress(self, *fields: FieldRef) -> Iterator[None]:
        added = set(fields) - self._suppressed
        self._suppressed |= added
        try:
            yield
        finally:
            self._suppressed -= added

    # -- recording ------------------------------------------------------------
    def _add(self, field: FieldRef | None, kind: str, lo: int, hi: int,
             nbytes: int) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown access kind {kind!r}")
        if self._current is None:
            return
        if field is not None and field in self._suppressed:
            return
        self._current.append(Access(field=field, kind=kind, lo=int(lo),
                                    hi=int(hi), nbytes=int(nbytes)))

    def read(self, field: FieldRef, lo: int, hi: int, nbytes: int) -> None:
        self._add(field, READ, lo, hi, nbytes)

    def write(self, field: FieldRef, lo: int, hi: int, nbytes: int) -> None:
        self._add(field, WRITE, lo, hi, nbytes)

    def atomic(self, field: FieldRef, lo: int, hi: int, nbytes: int) -> None:
        self._add(field, ATOMIC, lo, hi, nbytes)

    def meta(self, nbytes: int) -> None:
        """Structural metadata traffic (no field identity)."""
        if nbytes:
            self._add(None, META, 0, 0, nbytes)
