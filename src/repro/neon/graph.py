"""Data-dependency graph extraction (paper Fig. 2 and Section V-C).

Neon derives the dependency DAG of a multi-resolution application from
the input/output fields each kernel declares.  We rebuild that analysis
over a recorded kernel trace: kernels become nodes; read-after-write,
write-after-read and write-after-write conflicts on the same
:class:`~repro.neon.runtime.FieldRef` become edges.  The paper's Figure 2
draws this DAG without the edges other paths imply, which change neither
its depth — the number of unavoidable synchronisation points — nor its
width, the concurrency the scheduler can exploit.

Scheduling reads the records' field sets only, as Neon does: the waves
of :func:`schedule_records` are the ones plan replay runs.  Each record
is read off its body's access report
(:meth:`~repro.neon.runtime.KernelRecord.from_accesses`), so it names
every field the report states.  The accesses themselves (see
:mod:`repro.analysis.capture`) refine one thing, the pair enumeration of
:func:`iter_conflict_pairs` that the fusion-legality proof checks: there
two kernels touching *disjoint* row ranges or entry sets of one field do
not conflict, and atomic-add scatters into one accumulator commute.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from .runtime import FieldRef, KernelRecord

#: Accesses per record index, as the bodies' reports state them.  Values are
#: duck-typed (:class:`repro.analysis.capture.Access`): anything with
#: ``field``/``kind``/``lo``/``hi`` attributes and, optionally, ``entries``.
AccessMap = Mapping[int, Sequence[Any]]

__all__ = ["ConflictPair", "KernelDAG", "build_dependency_graph", "graph_stats",
           "iter_conflict_pairs", "schedule_records", "schedule_waves",
           "stream_assignment"]

_ATOMIC = "atomic"
_META = "meta"


class _Nodes(dict):
    """``g.nodes``: ``nodes[i]`` is node ``i``'s attribute dict, iteration
    yields the indices and ``nodes(data=True)`` the ``(i, attrs)`` pairs."""

    def __call__(self, data: bool = False) -> list:
        return list(self.items()) if data else list(self)


class KernelDAG:
    """Dependency DAG over a kernel stream, as adjacency dicts.

    Nodes are record indices and every edge runs from an earlier record
    to a later one (:meth:`add_edge` asserts ``u < v``), so the graph is
    acyclic by construction and index order is a topological order.
    """

    def __init__(self) -> None:
        self.nodes = _Nodes()
        self._succ: dict[int, dict[int, dict[str, Any]]] = {}

    def add_node(self, n: int, **attrs: Any) -> None:
        """Add node ``n`` (or update its attributes)."""
        self.nodes.setdefault(n, {}).update(attrs)
        self._succ.setdefault(n, {})

    def add_edge(self, u: int, v: int, **attrs: Any) -> None:
        """Add edge ``u -> v`` (or update its attributes)."""
        assert u < v, f"edge {u} -> {v} runs against program order"
        self.add_node(u)
        self.add_node(v)
        self._succ[u].setdefault(v, {}).update(attrs)

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``u -> v`` is an edge."""
        return v in self._succ.get(u, ())

    def out_edges(self, n: int) -> list[tuple[int, int]]:
        """The edges ``(n, v)`` leaving ``n``."""
        return [(n, v) for v in self._succ[n]]

    def edges(self, data: bool = False) -> list[tuple]:
        """All edges as ``(u, v)``, or ``(u, v, attrs)`` with ``data``."""
        return [(u, v, d) if data else (u, v)
                for u, succ in self._succ.items() for v, d in succ.items()]

    def number_of_nodes(self) -> int:
        """Node count."""
        return len(self.nodes)

    def number_of_edges(self) -> int:
        """Edge count."""
        return sum(map(len, self._succ.values()))

    def descendants(self, n: int) -> set[int]:
        """Every node reachable from ``n`` (``n`` itself excluded)."""
        seen: set[int] = set()
        stack = [n]
        while stack:
            new = self._succ[stack.pop()].keys() - seen
            seen |= new
            stack.extend(new)
        return seen


def _access_overlap(a: Any, b: Any) -> bool:
    """True when two accesses can touch a common buffer entry.

    The coarse test is half-open row-interval intersection (``[lo, hi)``
    intervals that merely *touch* — ``[a,b)`` vs ``[b,c)`` — do not
    conflict, and an *empty* interval ``[x,x)`` conflicts with nothing,
    even when ``x`` lies inside the other interval — which the classic
    two-clause test ``a.lo < b.hi and b.lo < a.hi`` gets wrong).
    Accesses may additionally carry an ``entries`` attribute (the exact
    set of entry ids a small scatter/gather patch touches, which the
    Explosion and Coalescence reports state): when **both** sides are exact the
    bounding intervals are only an envelope and the sets decide —
    interleaved-but-disjoint patches (e.g. Explosion vs Coalescence
    writes into the same ``f`` buffer) correctly do not conflict.
    """
    if not max(a.lo, b.lo) < min(a.hi, b.hi):
        return False
    ea = getattr(a, "entries", None)
    eb = getattr(b, "entries", None)
    if ea is not None and eb is not None:
        return not ea.isdisjoint(eb)
    return True


def _side_accesses(access_map: AccessMap, idx: int, ref: FieldRef,
                   want_write: bool) -> list[Any] | None:
    """Observed accesses of record ``idx`` on ``ref``, or None if unknown.

    ``None`` (record not captured, or captured with no access to a field
    it declares) means the caller must be conservative and assume the
    whole field is touched.
    """
    if idx not in access_map:
        return None
    out = [a for a in access_map[idx]
           if a.field == ref and a.kind != _META
           and (a.kind in ("write", _ATOMIC)) == want_write]
    return out or None


def _refs_conflict(access_map: AccessMap, i: int, i_writes: bool,
                   j: int, j_writes: bool, ref: FieldRef) -> bool:
    """Row-interval conflict test between two kernels on one field."""
    a_side = _side_accesses(access_map, i, ref, i_writes)
    b_side = _side_accesses(access_map, j, ref, j_writes)
    if a_side is None or b_side is None:
        return True  # no observation — keep the declared (conservative) edge
    for a in a_side:
        for b in b_side:
            if a.kind == _ATOMIC and b.kind == _ATOMIC:
                continue  # commutative atomic adds
            if _access_overlap(a, b):
                return True
    return False


class ConflictPair(NamedTuple):
    """One ordered conflicting access pair ``records[i]`` -> ``records[j]``.

    ``dep`` is the hazard class (``"raw"``/``"war"``/``"waw"``), ``ref``
    the :class:`~repro.neon.runtime.FieldRef` both kernels touch.  The
    program order ``i < j`` is the happens-before the serial semantics
    guarantees; any schedule (fused, threaded, compiled) must reproduce
    it for every pair this enumeration yields.
    """

    i: int
    j: int
    dep: str
    ref: FieldRef


def iter_conflict_pairs(records: Sequence[KernelRecord],
                        access_map: AccessMap | None = None,
                        ) -> Iterator[ConflictPair]:
    """Enumerate *every* conflicting ordered pair of a kernel stream.

    Unlike :func:`build_dependency_graph` (which keeps only the edges a
    scheduler needs — last writer / readers since last write), this walks
    all ``i < j`` pairs sharing a declared field, so transitively implied
    conflicts are reported too.  This is the ground truth the static
    fusion-legality proof checks a contracted stream against: a valid
    contraction preserves the order of each of these pairs, not merely
    the pruned edge set.

    With an ``access_map`` (the accesses the bodies' reports state),
    pairs are refined to row-interval / exact-entry granularity and
    commutative atomic-atomic pairs are dropped: fusion may reorder two
    kernels whose patches of one field are disjoint (Explosion's and
    Coalescence's ``f`` writes).
    """
    for j, rj in enumerate(records):
        jr, jw = set(rj.reads), set(rj.writes)
        for i in range(j):
            ri = records[i]
            for ref in jr | jw:
                i_reads = ref in ri.reads
                i_writes = ref in ri.writes
                if not (i_reads or i_writes):
                    continue
                deps: list[str] = []
                if i_writes and ref in jr:
                    deps.append("raw")
                if i_reads and ref in jw:
                    deps.append("war")
                if i_writes and ref in jw:
                    deps.append("waw")
                for dep in deps:
                    if access_map is None or _refs_conflict(
                            access_map, i, dep != "war", j, dep != "raw", ref):
                        yield ConflictPair(i, j, dep, ref)


def build_dependency_graph(records: list[KernelRecord]) -> KernelDAG:
    """DAG over a kernel trace; node ``i`` is ``records[i]``.

    Node attributes: ``label`` (e.g. ``"S1"`` — kernel initial + level, the
    paper's Fig. 2 naming), ``name``, ``level``.  Edges are the declared
    field-level RAW / WAR / WAW hazards (``dep`` attribute).
    """
    g = KernelDAG()
    for i, r in enumerate(records):
        g.add_node(i, label=f"{r.name}{r.level}", name=r.name, level=r.level)
    last_writer: dict[FieldRef, int] = {}
    readers_since_write: dict[FieldRef, list[int]] = {}
    for i, r in enumerate(records):
        for ref in r.reads:
            if ref in last_writer:
                g.add_edge(last_writer[ref], i, dep="raw")
            readers_since_write.setdefault(ref, []).append(i)
        for ref in r.writes:
            for j in readers_since_write.get(ref, ()):  # WAR
                if j != i:
                    g.add_edge(j, i, dep="war")
            if ref in last_writer and last_writer[ref] != i:  # WAW
                g.add_edge(last_writer[ref], i, dep="waw")
            last_writer[ref] = i
            readers_since_write[ref] = []
    return g


def schedule_waves(g: KernelDAG) -> list[list[int]]:
    """Partition kernels into maximal concurrent waves (ASAP schedule).

    Consecutive waves are separated by one device synchronisation; the
    number of waves is therefore the synchronisation count of the step.
    """
    depth = {n: 0 for n in g.nodes}
    for n in sorted(depth):  # index order is a topological order
        for _, m in g.out_edges(n):
            depth[m] = max(depth[m], depth[n] + 1)
    waves: dict[int, list[int]] = {}
    for n, dd in depth.items():
        waves.setdefault(dd, []).append(n)
    return [sorted(waves[k]) for k in sorted(waves)]


def schedule_records(records: list[KernelRecord]) -> list[list[int]]:
    """Waves of a record list in one call (graph build + ASAP partition).

    This is the schedule plan replay executes: the thread-wave executor
    (:attr:`StepPlan.waves <repro.backend.plan.StepPlan.waves>`) and the
    mp backend each call it once per admitted plan, never per step, and
    the plan's certificate records it as its ``wave_schedule``.
    """
    return schedule_waves(build_dependency_graph(records))


def stream_assignment(g: KernelDAG) -> dict[int, tuple[int, int]]:
    """Map each node to its ``(wave, stream)`` slot in the ASAP schedule.

    Kernels of one wave run concurrently, one per stream; the stream index
    is stable (position within the sorted wave), so the assignment is the
    per-stream track layout the timeline exporter renders — the schedule a
    Neon-style runtime with per-wave synchronisation would issue.
    """
    out: dict[int, tuple[int, int]] = {}
    for w, wave in enumerate(schedule_waves(g)):
        for s, node in enumerate(wave):
            out[node] = (w, s)
    return out


def graph_stats(g: KernelDAG,
                waves: list[list[int]] | None = None) -> dict[str, int | float]:
    """Kernel count, dependency edges, depth (syncs) and mean width, of
    ``waves`` when the caller has partitioned ``g`` already."""
    waves = schedule_waves(g) if waves is None else waves
    n = g.number_of_nodes()
    return {
        "kernels": n,
        "edges": g.number_of_edges(),
        "depth": len(waves),
        "max_width": max((len(w) for w in waves), default=0),
        "mean_width": (n / len(waves)) if waves else 0.0,
    }
