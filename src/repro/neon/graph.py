"""Data-dependency graph extraction (paper Fig. 2 and Section V-C).

Neon derives the dependency DAG of a multi-resolution application from
the input/output fields each kernel declares.  We rebuild that analysis
over a recorded kernel trace: kernels become nodes; read-after-write,
write-after-read and write-after-write conflicts on the same
:class:`~repro.neon.runtime.FieldRef` become edges.  The transitive
reduction of this DAG is what the paper draws in Figure 2; its depth is
the number of unavoidable synchronisation points, and its width the
concurrency the scheduler can exploit.

When an ``access_map`` of observed accesses (see
:mod:`repro.analysis.capture`) is supplied, edges are refined to
row-interval granularity: two kernels that touch *disjoint* row ranges of
the same field do not conflict, and concurrent atomic-add scatters to the
same accumulator are commutative and carry no write-write edge.  This is
the check that lets a fused kernel read one range of a field while a
sibling writes another without serialising the pair.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, NamedTuple, Sequence

import networkx as nx

from .runtime import FieldRef, KernelRecord

#: Observed or statically inferred accesses per record index.  Values
#: are duck-typed (:class:`repro.analysis.capture.Access` or
#: :class:`repro.analysis.static.StaticAccess`): anything with
#: ``field``/``kind``/``lo``/``hi`` attributes.
AccessMap = Mapping[int, Sequence[Any]]

__all__ = ["ConflictPair", "build_dependency_graph", "graph_stats",
           "iter_conflict_pairs", "schedule_records", "schedule_waves",
           "stream_assignment"]

_ATOMIC = "atomic"
_META = "meta"


def _access_overlap(a: Any, b: Any) -> bool:
    """True when two accesses can touch a common buffer entry.

    The coarse test is half-open row-interval intersection (``[lo, hi)``
    intervals that merely *touch* — ``[a,b)`` vs ``[b,c)`` — do not
    conflict, and an *empty* interval ``[x,x)`` conflicts with nothing,
    even when ``x`` lies inside the other interval — which the classic
    two-clause test ``a.lo < b.hi and b.lo < a.hi`` gets wrong).
    Accesses may additionally carry an ``entries`` attribute
    (an exact set of touched entry ids, used by the static analyzer for
    small scatter/gather patches): when **both** sides are exact the
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

    With an ``access_map`` (observed or statically inferred accesses),
    pairs are refined to row-interval / exact-entry granularity and
    commutative atomic-atomic pairs are dropped, exactly as in
    interval-refined graph construction.
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


def build_dependency_graph(records: list[KernelRecord],
                           reduce: bool = True,
                           access_map: AccessMap | None = None,
                           ) -> nx.DiGraph:
    """DAG over a kernel trace; node ``i`` is ``records[i]``.

    Node attributes: ``label`` (e.g. ``"S1"`` — kernel initial + level, the
    paper's Fig. 2 naming), ``name``, ``level``.

    ``access_map`` (record index → observed :class:`~repro.analysis.capture.Access`
    list, e.g. :attr:`repro.neon.runtime.Runtime.captured`) switches edge
    construction to row-interval granularity — see the module docstring.
    """
    g = nx.DiGraph()
    for i, r in enumerate(records):
        g.add_node(i, label=f"{r.name}{r.level}", name=r.name, level=r.level)
    if access_map is None:
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
    else:
        # Interval-refined construction: a skipped edge means the two
        # kernels touch disjoint rows, so *older* writers/readers stay
        # live — keep full logs instead of only the most recent writer.
        # Redundant (transitively implied) edges are harmless; the
        # transitive reduction removes them.
        writers: dict[FieldRef, list[int]] = {}
        readers: dict[FieldRef, list[int]] = {}
        for i, r in enumerate(records):
            for ref in r.reads:
                for j in writers.get(ref, ()):  # RAW
                    if j != i and _refs_conflict(access_map, j, True, i, False, ref):
                        g.add_edge(j, i, dep="raw")
            for ref in r.writes:
                for j in readers.get(ref, ()):  # WAR
                    if j != i and _refs_conflict(access_map, j, False, i, True, ref):
                        g.add_edge(j, i, dep="war")
                for j in writers.get(ref, ()):  # WAW
                    if j != i and _refs_conflict(access_map, j, True, i, True, ref):
                        g.add_edge(j, i, dep="waw")
            for ref in r.reads:
                readers.setdefault(ref, []).append(i)
            for ref in r.writes:
                writers.setdefault(ref, []).append(i)
    if reduce and g.number_of_edges():
        tr = nx.transitive_reduction(g)
        tr.add_nodes_from(g.nodes(data=True))
        return tr
    return g


def schedule_waves(g: nx.DiGraph) -> list[list[int]]:
    """Partition kernels into maximal concurrent waves (ASAP schedule).

    Consecutive waves are separated by one device synchronisation; the
    number of waves is therefore the synchronisation count of the step.
    """
    if g.number_of_nodes() == 0:
        return []
    depth = {n: 0 for n in g.nodes}
    for n in nx.topological_sort(g):
        for _, m in g.out_edges(n):
            depth[m] = max(depth[m], depth[n] + 1)
    waves: dict[int, list[int]] = {}
    for n, dd in depth.items():
        waves.setdefault(dd, []).append(n)
    return [sorted(waves[k]) for k in sorted(waves)]


def schedule_records(records: list[KernelRecord],
                     access_map: AccessMap | None = None,
                     ) -> list[list[int]]:
    """Waves of a record list in one call (graph build + ASAP partition).

    This is the schedule plan replay executes: the thread-wave executor
    (:attr:`StepPlan.waves <repro.backend.plan.StepPlan.waves>`) and the
    mp backend each call it once per admitted plan, never per step.  The
    transitive reduction is skipped: redundant edges cannot change ASAP
    depths.
    """
    return schedule_waves(
        build_dependency_graph(records, reduce=False, access_map=access_map))


def stream_assignment(g: nx.DiGraph) -> dict[int, tuple[int, int]]:
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


def graph_stats(g: nx.DiGraph) -> dict[str, int | float]:
    """Kernel count, dependency edges, depth (syncs) and mean width."""
    waves = schedule_waves(g)
    n = g.number_of_nodes()
    return {
        "kernels": n,
        "edges": g.number_of_edges(),
        "depth": len(waves),
        "max_width": max((len(w) for w in waves), default=0),
        "mean_width": (n / len(waves)) if waves else 0.0,
    }
