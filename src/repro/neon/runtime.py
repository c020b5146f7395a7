"""Mini-Neon: the programming-model substrate (paper Section V-C).

Neon composes GPU applications from *kernels* that declare which fields
they read and write; the runtime extracts the data-dependency graph,
schedules kernels, and places synchronisations only where needed.  We
reproduce the parts of that model the paper relies on:

* :class:`FieldRef` — identity of a data container (a field at a level);
* :class:`KernelRecord` — one kernel launch with its declared
  reads/writes and its memory-traffic footprint;
* :class:`LazyBody` — a kernel body declared with its launch and built
  only when a plan binds it;
* :class:`Runtime` — records the declarations a step launches
  (:meth:`Runtime.capture_plan`) and keeps the trace of the kernels that
  ran, for the profiler, the dependency-graph analysis (Fig. 2) and the
  GPU cost model.

Declaring a kernel and running it are separate, as in Neon: ``launch``
only declares, inside :meth:`Runtime.capture_plan`, and
:meth:`StepPlan.execute <repro.backend.plan.StepPlan.execute>` is the
one loop that runs kernel bodies, for every in-process backend.  It
appends the records of the kernels it ran to :attr:`Runtime.records`
and applies the two hooks installed here (``spans``, ``faults``);
:meth:`Runtime.step_marker` and :meth:`Runtime.abort_step` close each
coarse step.  What each kernel accesses is not observed at run time: it
is the access report bound with its body, evaluated at bind time
(:func:`repro.backend.compiler.bind_stream`).  The *functional* result of a program never
depends on the recording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["FieldRef", "KernelRecord", "LazyBody", "Runtime"]

#: A kernel body: a no-argument closure over the engine's buffers.
KernelBody = Callable[[], None]
#: A body's access report: states to an access tracer what the body reads
#: and writes (see :mod:`repro.analysis.capture`).
AccessReport = Callable[[Any], None]


class LazyBody:
    """Handle of a kernel body that is built when a plan binds it.

    Declaring a launch must cost nothing (capture runs no body, and
    admission may refuse the stream), so ``op_*`` passes
    ``LazyBody(make)`` as ``fn=``: :meth:`bind` calls ``make()`` once for
    the body closure and its access report.
    """

    __slots__ = ("_make", "_body")

    def __init__(self, make: Callable[[], tuple[KernelBody, AccessReport]]) -> None:
        self._make = make
        self._body: tuple[KernelBody, AccessReport] | None = None

    def bind(self) -> tuple[KernelBody, AccessReport]:
        """Build ``(run, report)`` (first call) and return it."""
        if self._body is None:
            self._body = self._make()
        return self._body


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


class Runtime:
    """Kernel declarations, the trace of what ran, and the hooks.

    ``launch`` declares a kernel inside :meth:`capture_plan`; the plan
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
        #: ``(records, bodies)`` of the active :meth:`capture_plan`, or
        #: ``None`` outside one.
        self._capture: tuple[list[KernelRecord], list[Any]] | None = None

    def launch(self, name: str, level: int, *, n_cells: int,
               bytes_read: int, bytes_written: int,
               reads: tuple[FieldRef, ...] = (), writes: tuple[FieldRef, ...] = (),
               atomic_bytes: int = 0, tag: str = "",
               fn: LazyBody | KernelBody | None = None) -> None:
        """Declare one kernel launch; run nothing.

        Appends a :class:`KernelRecord` built from the *declared* access
        sets and byte counts to the active :meth:`capture_plan`, and the
        body handle ``fn`` — never called here — beside it.  A launch
        outside a capture raises ``RuntimeError``: kernels run in
        :meth:`StepPlan.execute <repro.backend.plan.StepPlan.execute>`.
        """
        if self._capture is None:
            raise RuntimeError(
                f"kernel {name!r} launched outside Runtime.capture_plan: "
                f"a launch only declares, StepPlan.execute runs bodies")
        records, bodies = self._capture
        records.append(KernelRecord(
            name=name, level=level, n_cells=int(n_cells),
            bytes_read=int(bytes_read), bytes_written=int(bytes_written),
            reads=tuple(reads), writes=tuple(writes),
            atomic_bytes=int(atomic_bytes), tag=tag))
        bodies.append(fn)

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

    # -- declaration capture -------------------------------------------------
    def capture_plan(self, drive: Callable[[], None],
                     bodies: list[Any] | None = None,
                     ) -> list[KernelRecord]:
        """Capture the declaration stream ``drive`` launches.

        The only way a step's kernel stream is recorded: every
        :meth:`launch` inside ``drive`` appends its record to the returned
        list, and its ``fn`` — unbound, never called — to ``bodies`` when
        a list is given, one per record.  No body runs, and the trace
        (:attr:`records`, :attr:`markers`) is left as it was.  Captures
        do not nest (``RuntimeError``).  Every backend's step starts here
        (:mod:`repro.backend`), and so does the static analyzer
        (:mod:`repro.analysis.static`).
        """
        if self._capture is not None:
            raise RuntimeError("Runtime.capture_plan called inside a capture")
        records: list[KernelRecord] = []
        self._capture = (records, bodies if bodies is not None else [])
        try:
            drive()
        finally:
            self._capture = None
        return records

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
