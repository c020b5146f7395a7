"""Step plans: a captured kernel stream and the one loop that runs it.

A :class:`StepPlan` holds the captured
:class:`~repro.neon.runtime.KernelRecord` stream of one coarse step and,
aligned with it, the body closure each launch built (the engine's own
— field views resolved, index maps flattened).  The compiled backend keeps admitted plans (stream digest and
certificate from :mod:`repro.backend.compiler`); the interpreted backend
captures a fresh, unadmitted one every step.

:meth:`StepPlan.execute` is the one loop that runs kernel bodies in this
process: call the closures — in program order, or wave by wave on a
thread pool — and append the prebuilt records; no ``Runtime.launch``, no
record construction, no per-launch Python re-dispatch.  The runtime's
``faults`` and ``spans`` hooks act on the plan's kernels, so installing
one never changes which code executes.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..neon.graph import schedule_records
from ..neon.runtime import KernelRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..neon.runtime import Runtime

__all__ = ["StepPlan"]


class StepPlan:
    """One coarse step: prebuilt records plus their bodies.

    The record tuple is shared across every replay (records are frozen
    dataclasses; appending the same instances each step is what makes
    the trace of a compiled run bit-identical to the interpreted one).
    What each body accesses is its report, evaluated once at capture
    (:func:`~repro.backend.compiler.bind_stream`); a plan does not keep it.
    """

    #: Scratch a plan allocates beside the engine's buffers: none — bodies
    #: are bound to the engine's own arrays.  Kept because the performance
    #: ledger reads it (``backend.arena_bytes``).
    arena_bytes = 0

    def __init__(self, records: Sequence[KernelRecord],
                 bodies: Sequence[Callable[[], None]],
                 *, digest: str = "", certificate: dict[str, Any] | None = None,
                 label: str = "") -> None:
        if len(records) != len(bodies):
            raise ValueError("one body per record is the plan invariant")
        self.records: tuple[KernelRecord, ...] = tuple(records)
        self.bodies: tuple[Callable[[], None], ...] = tuple(bodies)
        #: SHA-256 stream digest (also in the admission certificate);
        #: empty on an unadmitted plan.
        self.digest = digest
        #: Admission certificate the plan validated against (PR-5 schema).
        self.certificate = certificate if certificate is not None else {}
        #: Human label for spans/diagnostics (config + workload shape).
        self.label = label
        self.replays = 0
        self._waves: tuple[tuple[int, ...], ...] | None = None

    def __len__(self) -> int:
        return len(self.records)

    @property
    def waves(self) -> tuple[tuple[int, ...], ...]:
        """The plan's wave schedule: record indices grouped by ASAP depth.

        Scheduled over the declared field-level graph
        (:func:`~repro.neon.graph.schedule_records`) — the same waves the
        admission certificate records as its ``wave_schedule``.  Built
        on first use, so serial replay and cold start never pay for it.
        """
        if self._waves is None:
            self._waves = tuple(
                tuple(w) for w in schedule_records(self.records))
        return self._waves

    def execute(self, rt: "Runtime", pool: Any = None) -> None:
        """Run the plan once: run every body, append every record.

        ``pool`` (anything with ``submit(fn, *args) -> Future``) selects
        the executor: ``None`` runs the bodies in program order on the
        calling thread; otherwise each wave of :attr:`waves` is
        submitted to the pool and joined before the next one starts
        (single-kernel waves run inline — a dispatch round-trip buys
        them nothing).

        The runtime's hooks act on the plan's kernels: an installed
        fault injector wraps every body for this run, and a span recorder
        receives each kernel's wall-clock start and duration (reported
        from the calling thread, in record order).

        Error contract, shared with every backend: on a failure the
        records of the longest program-order prefix of kernels that
        completed are kept, the exception gains a ``kernel_span``
        attribute naming the first failed kernel in program order, and
        the caller closes the partial step with
        :meth:`~repro.neon.runtime.Runtime.abort_step`.
        """
        if pool is None and rt.faults is None and rt.spans is None:
            done = 0
            try:
                for body in self.bodies:
                    body()
                    done += 1
            except BaseException as exc:
                rt.records.extend(self.records[:done])
                self._name_failure(exc, done, len(rt.records))
                raise
            rt.records.extend(self.records)
        else:
            self._execute_hooked(rt, pool)
        self.replays += 1

    def _execute_hooked(self, rt: "Runtime", pool: Any) -> None:
        """Run under a pool and/or runtime hooks (see :meth:`execute`)."""
        bodies: Sequence[Callable[[], None]] = self.bodies
        if rt.faults is not None:
            wrap = rt.faults.wrap_body
            bodies = [wrap(rec.name, rec.level, body)
                      for rec, body in zip(self.records, bodies)]
        n = len(bodies)
        base = len(rt.records)
        timings: list[tuple[float, float] | None] = [None] * n
        errors: dict[int, BaseException] = {}

        def run(k: int) -> None:
            t0 = perf_counter()
            try:
                bodies[k]()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors[k] = exc
            else:
                timings[k] = (t0, perf_counter() - t0)

        waves: Iterable[Sequence[int]] = (
            self.waves if pool is not None else ((k,) for k in range(n)))
        for wave in waves:
            if len(wave) == 1:
                run(wave[0])
            else:
                # Join the whole wave even when a body failed: its peers
                # are in flight, exactly like kernels on a device.
                for fut in [pool.submit(run, k) for k in wave]:
                    fut.result()
            if errors:
                break
        done = next((k for k, t in enumerate(timings) if t is None), n)
        rt.records.extend(self.records[:done])
        if rt.spans is not None:
            for k in range(done):
                rt.spans.on_launch(base + k, self.records[k], *timings[k])
        if errors:
            first = min(errors)
            self._name_failure(errors[first], first, base + done)
            raise errors[first]

    def _name_failure(self, exc: BaseException, k: int, index: int) -> None:
        rec = self.records[k]
        setattr(exc, "kernel_span",
                {"index": index, "name": rec.name, "level": rec.level,
                 "n_cells": rec.n_cells, "start": 0.0, "dur_us": 0.0})
