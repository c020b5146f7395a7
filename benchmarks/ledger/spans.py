"""The harness's own spans: recording, self-time arithmetic, Chrome export.

The ledger measures each ``repro`` layer from outside, by timing calls
into its public functions.  :class:`SpanLog` keeps those timings in
memory as spans (name, start, end, parent id, operation id) and writes
them out once, when the run ends.  Two ways to open a span:

* ``with log.span(name, op=...)`` around a call the harness makes itself
  (a workload, an operation, a probe);
* :meth:`SpanLog.instrument`, which swaps a public attribute of the
  program (``repro.core.simulation.build_multigrid``, ``StepPlan.execute``,
  a compiled plan's ``bodies`` ...) for a wrapper that opens a span and
  then calls the original — the same code executes, bracketed by two
  clock reads.  :meth:`SpanLog.uninstrument` restores every attribute.

A span's *self time* is its duration minus the part of that interval its
children cover (:func:`self_times`); the self times of a span tree sum
to the root's duration exactly, which is what lets a layer's share of an
operation be read off the trace.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = ["Span", "SpanLog", "self_times", "self_time_residual",
           "totals_by_op", "chrome_trace",
           "median", "quartiles", "iqr_frac", "tail_percentile"]


@dataclass
class Span:
    """One timed interval; ``parent``/``op`` tie it into the span tree."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: str | None = None
    tid: int = 0
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class SpanLog:
    """Thread-safe in-memory span recorder with attribute instrumentation."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.spans: list[Span] = []
        self.clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def adopt(self, parent: Span | None) -> None:
        """Make ``parent`` the parent of this thread's top-level spans.

        A job server runs a job on a pooled worker thread; the first
        instrumented call on that thread adopts the job's operation span
        so everything the worker does nests under the right operation.
        """
        self._local.base = parent

    def begin(self, name: str, op: str | None = None,
              parent: Span | None = None, **args: Any) -> Span:
        """Open a span with an explicit parent; close it with :meth:`end`.

        For callers whose spans do not nest by call stack — coroutines
        interleaving on one event-loop thread.
        """
        sp = Span(id=next(self._ids), name=name, start=0.0,
                  parent=parent.id if parent is not None else None,
                  op=op if op is not None
                  else (parent.op if parent is not None else None),
                  tid=threading.get_ident(), args=args)
        sp.start = self.clock()
        return sp

    def end(self, sp: Span) -> Span:
        sp.end = self.clock()
        self.spans.append(sp)
        return sp

    @contextmanager
    def span(self, name: str, op: str | None = None,
             **args: Any) -> Iterator[Span]:
        """Open a span nested under this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else getattr(self._local, "base", None)
        sp = self.begin(name, op, parent, **args)
        stack.append(sp)
        try:
            yield sp
        finally:
            stack.pop()
            self.end(sp)

    # -- instrumentation -----------------------------------------------------
    def instrument(self, owner: Any, attr: str, name: str,
                   before: Callable[..., None] | None = None,
                   after: Callable[[Any, Span], Any] | None = None) -> bool:
        """Bracket ``owner.attr`` with a span called ``name``.

        ``before(*args, **kwargs)`` runs ahead of the span (used to adopt
        a parent on worker threads); ``after(result, span)`` may annotate
        the closed span and replace the result (used to instrument the
        kernel bodies of a freshly compiled plan).  Returns ``False`` — and leaves the program
        untouched — when the attribute does not exist, so a renamed
        function costs one layer metric instead of the whole traced pass.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False
        log = self

        def wrapper(*a: Any, **kw: Any) -> Any:
            if before is not None:
                before(*a, **kw)
            with log.span(name) as sp:
                result = original(*a, **kw)
            return after(result, sp) if after is not None else result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        raw = vars(owner).get(attr, _ABSENT)
        self._patched.append((owner, attr, raw))
        # ``original`` of a class/static method is already bound; keep the
        # replacement from being re-bound as an instance method.
        bound = isinstance(raw, (classmethod, staticmethod))
        setattr(owner, attr, staticmethod(wrapper) if bound else wrapper)
        return True

    def wrap_bodies(self, plan: Any, restore: bool = False) -> Any:
        """Bracket every kernel body of a compiled ``StepPlan`` with a span.

        ``restore`` registers the plan with :meth:`uninstrument`; a plan
        compiled under instrumentation dies with its simulation and is
        not registered, so the log never keeps a simulation alive.
        """
        def traced(body: Callable[[], None], rec: Any) -> Callable[[], None]:
            name = f"backend.kernel.{rec.name}"
            nbytes = int(rec.bytes_total)
            log = self

            def run() -> None:
                with log.span(name, bytes=nbytes, level=rec.level):
                    body()
            return run
        if restore:
            self._patched.append((plan, "bodies", plan.bodies))
        plan.bodies = tuple(traced(b, r)
                            for b, r in zip(plan.bodies, plan.records))
        return plan

    def uninstrument(self) -> None:
        """Restore every attribute :meth:`instrument` replaced."""
        for owner, attr, original in reversed(self._patched):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- queries -------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


_ABSENT = object()


# -- span-tree arithmetic ------------------------------------------------------

def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, hi = 0.0, float("-inf")
    for lo, end in sorted(intervals):
        if end <= hi:
            continue
        total += end - max(lo, hi)
        hi = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the part children cover.

    Children are clipped to the parent's interval and overlapping
    children (work on another thread) are counted once, so the self
    times of any subtree sum to its root's duration.
    """
    kids: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        p = by_id.get(s.parent) if s.parent is not None else None
        if p is not None:
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                kids.setdefault(p.id, []).append((lo, hi))
    return {s.id: s.dur - _covered(kids.get(s.id, ())) for s in spans}


def self_time_residual(spans: Sequence[Span], root_name: str = "operation") -> float:
    """Largest relative gap between an operation and its tree's self times.

    The self times of a span tree sum to the root's duration; a gap means
    spans were lost or mis-parented, and the per-layer shares read off
    the trace would not add up.
    """
    self_t = self_times(spans)
    kids: dict[int | None, list[Span]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    worst = 0.0
    for root in (s for s in spans if s.name == root_name and s.dur > 0):
        total, todo = 0.0, [root]
        while todo:
            node = todo.pop()
            total += self_t[node.id]
            todo.extend(kids.get(node.id, ()))
        worst = max(worst, abs(total - root.dur) / root.dur)
    return worst


def totals_by_op(spans: Sequence[Span], *names: str,
                 self_time: dict[int, float] | None = None) -> list[float]:
    """Per operation, the summed duration (or self time) of spans ``names``."""
    per_op: dict[str | None, float] = {}
    for s in spans:
        if s.name in names:
            value = s.dur if self_time is None else self_time[s.id]
            per_op[s.op] = per_op.get(s.op, 0.0) + value
    return list(per_op.values())


def chrome_trace(spans: Sequence[Span], path: str, meta: dict) -> None:
    """Write ``spans`` as Chrome-trace JSON (``chrome://tracing``, Perfetto)."""
    t0 = min((s.start for s in spans), default=0.0)
    events = [{"name": s.name, "ph": "X", "pid": 1, "tid": s.tid,
               "ts": (s.start - t0) * 1e6, "dur": s.dur * 1e6,
               "args": {"id": s.id, "parent": s.parent, "op": s.op, **s.args}}
              for s in sorted(spans, key=lambda s: s.start)]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": meta}, fh)
        fh.write("\n")


# -- order statistics ----------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def iqr_frac(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when undefined)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


#: Percentiles a tail may be reported at, lowest first.
_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(values: Sequence[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``.  With fewer than twenty samples not
    even the median has ten beyond it; the median is reported then, and
    the sample count printed next to it says how little it rests on.
    """
    if not values:
        return 50.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    pct = _LADDER[0]
    for p in _LADDER:
        if n * (1000 - round(p * 10)) >= 10 * 1000:  # exact, in tenths of a per cent
            pct = p
    if pct == 50.0:
        return pct, median(ordered)
    rank = min(n - 1, max(0, int(-(-n * pct // 100)) - 1))  # nearest rank
    return pct, float(ordered[rank])
