"""Mini-Neon: the programming-model substrate (paper Section V-C).

Neon composes GPU applications from *kernels* that declare which fields
they read and write; the runtime extracts the data-dependency graph,
schedules kernels, and places synchronisations only where needed.  We
reproduce the parts of that model the paper relies on:

* :class:`FieldRef` — identity of a data container (a field at a level);
* :class:`KernelRecord` — one kernel launch with its reads/writes and
  its memory-traffic footprint, read off the access report of its body
  (:meth:`KernelRecord.from_accesses`);
* :class:`Runtime` — captures the kernels a step launches
  (:meth:`Runtime.capture_plan`) and keeps the trace of the kernels that
  ran, for the profiler, the dependency-graph analysis (Fig. 2) and the
  GPU cost model.

A kernel states what it touches once: ``launch`` hands the runtime the
kernel's built body and the access report beside it, and the capture
evaluates the report into a tracer and derives the launch record from
what it states.  Declaring a kernel and running it are still separate,
as in Neon: ``launch`` runs nothing, and :meth:`StepPlan.execute
<repro.backend.plan.StepPlan.execute>` is the one loop that runs kernel
bodies, for every in-process backend.  It appends the records of the
kernels it ran to :attr:`Runtime.records` and applies the two hooks
installed here (``spans``, ``faults``); :meth:`Runtime.step_marker` and
:meth:`Runtime.abort_step` close each coarse step.  The *functional*
result of a program never depends on the recording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = ["ATOMIC", "FieldRef", "KernelRecord", "META", "READ", "Runtime",
           "WRITE"]

#: A kernel body: a no-argument closure over the engine's buffers.
KernelBody = Callable[[], None]
#: A body's access report: states to an access tracer what the body reads
#: and writes (see :mod:`repro.analysis.capture`).
AccessReport = Callable[[Any], None]

#: Access kinds a report states.  ``META`` is structural-metadata traffic
#: (neighbour tables, bitmasks): it counts as read bytes but names no
#: field, so it enters no field set and no conflict pair.
READ = "read"
WRITE = "write"
ATOMIC = "atomic"
META = "meta"


@dataclass(frozen=True)
class FieldRef:
    """Identity of a field instance on one grid level."""

    name: str
    level: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}@{self.level}"


@dataclass(frozen=True)
class KernelRecord:
    """Trace entry for one kernel launch.

    ``bytes_read``/``bytes_written`` count the *payload* DRAM traffic the
    equivalent CUDA kernel would generate; ``atomic_bytes`` is the subset
    of the writes performed with atomic adds (the Accumulate scatter).
    ``n_cells`` is the number of lattice cells the kernel touches (its
    thread count, up to block-granularity rounding).
    """

    name: str
    level: int
    n_cells: int
    bytes_read: int
    bytes_written: int
    reads: tuple[FieldRef, ...]
    writes: tuple[FieldRef, ...]
    atomic_bytes: int = 0
    tag: str = ""

    @property
    def bytes_total(self) -> int:
        """Declared DRAM traffic of the launch (reads + writes)."""
        return self.bytes_read + self.bytes_written

    @classmethod
    def from_accesses(cls, name: str, level: int, n_cells: int,
                      accesses: Sequence[Any]) -> "KernelRecord":
        """The record of kernel ``name`` on ``level`` over ``n_cells``
        cells whose body's report stated ``accesses``, in report order.

        ``reads`` are the fields the kernel reads before it writes them (a
        re-read of its own output is forwarded on chip) and ``writes`` the
        fields it writes or atomically adds to, each in first-access
        order; ``bytes_read`` is the read plus the metadata bytes,
        ``bytes_written`` the write plus the atomic bytes, and
        ``atomic_bytes`` the atomic bytes alone.
        """
        reads: dict[FieldRef, None] = {}
        writes: dict[FieldRef, None] = {}
        read_b = write_b = atomic_b = 0
        for a in accesses:
            if a.kind == READ or a.kind == META:
                read_b += a.nbytes
                if a.kind == READ and a.field not in writes:
                    reads.setdefault(a.field)
            else:
                write_b += a.nbytes
                atomic_b += a.nbytes if a.kind == ATOMIC else 0
                writes.setdefault(a.field)
        return cls(name=name, level=level, n_cells=int(n_cells),
                   bytes_read=read_b, bytes_written=write_b,
                   reads=tuple(reads), writes=tuple(writes),
                   atomic_bytes=atomic_b)


class Runtime:
    """Kernel captures, the trace of what ran, and the hooks.

    ``launch`` hands a built kernel to :meth:`capture_plan`; the plan
    loop appends the :class:`KernelRecord` of every kernel it ran to
    :attr:`records`.  ``step_marker`` tags coarse-timestep boundaries so
    benchmarks can cut the trace per step.
    """

    def __init__(self) -> None:
        self.records: list[KernelRecord] = []
        self.markers: list[int] = []
        #: Active span recorder (see :mod:`repro.obs.spans`), or ``None``.
        #: Duck-typed so the runtime never imports the observability layer:
        #: ``on_launch(index, record, start, duration)`` per kernel run,
        #: ``on_step(step_index, start_record, end_record)`` at each coarse-
        #: step marker, ``on_reset()`` on :meth:`reset`.  Spans are opt-in
        #: and, when absent, the hot path pays a single ``None`` test.
        self.spans: Any = None
        #: Active fault injector (see :mod:`repro.resilience.faults`), or
        #: ``None``.  Duck-typed like the span recorder so the runtime
        #: never imports the resilience layer: ``wrap_body(name, level,
        #: fn)`` may substitute a kernel body (per run, in
        #: ``StepPlan.execute``), ``on_step(step)`` fires after each
        #: coarse-step marker with the absolute completed-step count.
        #: When absent the hot path pays a single ``None`` test.
        self.faults: Any = None
        #: Coarse steps completed before the current trace began (synced by
        #: checkpoint restore / post-warmup :meth:`reset`); per-step metrics
        #: subtract it so a restored run is not skewed by untraced history.
        self.steps_base = 0
        #: ``(tracer, records, bodies, accesses)`` of the active
        #: :meth:`capture_plan`, or ``None`` outside one.
        self._capture: tuple[Any, list[KernelRecord], list[KernelBody],
                             dict[int, list[Any]]] | None = None

    def launch(self, name: str, level: int, n_cells: int,
               body: tuple[KernelBody, AccessReport]) -> None:
        """Hand one built kernel to the active capture; run nothing.

        ``body`` is the kernel's ``(run, report)`` pair.  The report is
        evaluated once, into the capture's tracer, and the launch record
        is read off what it states (:meth:`KernelRecord.from_accesses`);
        ``run`` — never called here — is kept beside it.  A launch
        outside a capture raises ``RuntimeError``: kernels run in
        :meth:`StepPlan.execute <repro.backend.plan.StepPlan.execute>`.
        """
        if self._capture is None:
            raise RuntimeError(
                f"kernel {name!r} launched outside Runtime.capture_plan: "
                f"a launch only declares, StepPlan.execute runs bodies")
        tracer, records, bodies, accesses = self._capture
        run, report = body
        tracer.begin_launch()
        try:
            report(tracer)
        finally:
            stated = tracer.end_launch()
        accesses[len(records)] = stated
        records.append(KernelRecord.from_accesses(name, level, n_cells, stated))
        bodies.append(run)

    def step_marker(self) -> None:
        """Mark the end of one coarse time step in the trace."""
        start = self.markers[-1] if self.markers else 0
        self.markers.append(len(self.records))
        if self.spans is not None:
            self.spans.on_step(len(self.markers) - 1, start, len(self.records))
        if self.faults is not None:
            # Field-corruption faults fire on step completion, before the
            # driver's callbacks (so an armed watchdog sees the damage at
            # the step it was injected).
            self.faults.on_step(self.steps_base + len(self.markers))

    def reset(self, steps_base: int | None = None) -> None:
        """Clear the trace; ``steps_base`` rebases per-step accounting.

        Pass the driver's current coarse-step count when resetting after
        a warmup or a checkpoint restore, so metrics over the new trace
        do not attribute zero-kernel steps to the untraced history.
        """
        self.records.clear()
        self.markers.clear()
        if steps_base is not None:
            self.steps_base = int(steps_base)
        if self.spans is not None:
            self.spans.on_reset()

    def abort_step(self) -> None:
        """Close the current (partial) coarse step after a mid-step failure.

        Whatever executed since the last marker is closed off with a
        step marker, so span trees stay balanced and per-step trace
        queries never leak a partial step into the next one.
        Idempotent.
        """
        start = self.markers[-1] if self.markers else 0
        if len(self.records) > start:
            self.step_marker()

    # -- fault hooks ---------------------------------------------------------
    def faults_install(self, injector: Any) -> None:
        """Install (or, with ``None``, remove) a fault injector."""
        self.faults = injector

    # -- span hooks ----------------------------------------------------------
    def spans_install(self, recorder: Any) -> None:
        """Install (or, with ``None``, remove) a span recorder.

        The recorder receives wall-clock start/duration for every launch
        from now on; it observes timing only and cannot perturb declared
        reads/writes, traffic accounting or the functional result.
        """
        self.spans = recorder

    # -- capture -------------------------------------------------------------
    def capture_plan(self, drive: Callable[[], None], tracer: Any,
                     ) -> tuple[list[KernelRecord], list[KernelBody],
                                dict[int, list[Any]]]:
        """Capture the kernel stream ``drive`` launches.

        The only way a step's kernel stream is recorded.  Returns
        ``(records, bodies, accesses)``, one entry per :meth:`launch`
        inside ``drive``: its record, its body closure — built, never
        called — and ``accesses[i]``, what its report stated, recorded
        by ``tracer`` (an :class:`~repro.analysis.capture.AccessTracer`;
        sharing one across captures shares their entry sets).  No body
        runs, and the trace (:attr:`records`, :attr:`markers`) is left
        as it was.  Captures do not nest (``RuntimeError``).  Every
        backend's step starts here (:func:`repro.backend.compiler.bind_stream`),
        and so does the static analyzer (:mod:`repro.analysis.static`).
        """
        if self._capture is not None:
            raise RuntimeError("Runtime.capture_plan called inside a capture")
        records: list[KernelRecord] = []
        bodies: list[KernelBody] = []
        accesses: dict[int, list[Any]] = {}
        self._capture = (tracer, records, bodies, accesses)
        try:
            drive()
        finally:
            self._capture = None
        return records, bodies, accesses

    # -- trace queries -------------------------------------------------------
    def last_step(self) -> list[KernelRecord]:
        """Records of the most recent complete coarse step."""
        if not self.markers:
            return list(self.records)
        start = self.markers[-2] if len(self.markers) >= 2 else 0
        return self.records[start:self.markers[-1]]

    def launches(self) -> int:
        """Total kernel launches recorded since the last reset."""
        return len(self.records)

    def total_bytes(self) -> int:
        """Total declared DRAM traffic over all recorded launches."""
        return sum(r.bytes_total for r in self.records)
