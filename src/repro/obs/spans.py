"""Wall-clock span tree over the runtime's kernel trace.

A :class:`SpanRecorder` plugs into :attr:`repro.neon.runtime.Runtime.spans`
(see :meth:`~repro.neon.runtime.Runtime.spans_install`) and receives the
wall-clock start/duration of every kernel launch alongside the
:class:`~repro.neon.runtime.KernelRecord` the runtime appends anyway.
Recording is strictly observational: the recorder never sees — let alone
touches — records' reads/writes or byte counts, so capture and the
wave schedule built from the records behave identically with spans on
or off.

The raw events are organised into a three-deep span tree:

* **step spans** — one per coarse time step (`step_marker`);
* **level runs** — maximal runs of consecutive same-level kernels inside
  a step (Algorithm 1 interleaves levels; a run is one visit);
* **kernel spans** — one per launch, pointing at its record index.

Timestamps are microseconds relative to the first observed event, the
unit the Chrome-trace/Perfetto exporter (:mod:`repro.obs.trace`) emits.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..neon.runtime import KernelRecord

__all__ = ["KernelSpan", "StepSpan", "LevelRun", "SpanRecorder"]


@dataclass(frozen=True)
class KernelSpan:
    """One kernel launch: trace index, identity and wall-clock interval."""

    index: int                 # position in Runtime.records
    record: KernelRecord
    start_us: float            # relative to the recorder's origin
    dur_us: float

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us

    def as_dict(self) -> dict:
        """JSON-friendly view (used by the watchdog's diagnostic dump)."""
        return {
            "index": self.index,
            "name": self.record.name,
            "level": self.record.level,
            "n_cells": self.record.n_cells,
            "bytes": self.record.bytes_total,
            "start_us": round(self.start_us, 3),
            "dur_us": round(self.dur_us, 3),
        }


@dataclass(frozen=True)
class StepSpan:
    """One coarse time step: record range and bounding interval."""

    step: int
    start_record: int
    end_record: int            # half-open
    start_us: float
    end_us: float

    @property
    def dur_us(self) -> float:
        return self.end_us - self.start_us


@dataclass(frozen=True)
class LevelRun:
    """A maximal run of consecutive same-level kernels within one step."""

    step: int
    level: int
    start_record: int
    end_record: int            # half-open
    start_us: float
    end_us: float

    @property
    def dur_us(self) -> float:
        return self.end_us - self.start_us


class SpanRecorder:
    """Collects kernel/step spans from a :class:`~repro.neon.runtime.Runtime`.

    Install with :meth:`install` (or pass to ``Runtime.spans_install``);
    the runtime then reports every launch and step marker here.  All
    timestamps are rebased to the first event so exported traces start
    near zero.
    """

    def __init__(self) -> None:
        self.kernel_spans: list[KernelSpan] = []
        self.step_spans: list[StepSpan] = []
        #: ``kernel_spans[lo:hi]`` of each step span, aligned with
        #: :attr:`step_spans`; a step's kernels are the spans appended
        #: since the previous marker, so no query scans the whole trace.
        self._bounds: list[tuple[int, int]] = []
        self._origin: float | None = None

    # -- installation --------------------------------------------------------
    def install(self, runtime) -> "SpanRecorder":
        """Attach to ``runtime`` and return self (chaining convenience)."""
        runtime.spans_install(self)
        return self

    # -- Runtime hook protocol ----------------------------------------------
    def on_launch(self, index: int, record: KernelRecord,
                  start: float, duration: float) -> None:
        if self._origin is None:
            self._origin = start
        self.kernel_spans.append(KernelSpan(
            index=index, record=record,
            start_us=(start - self._origin) * 1e6,
            dur_us=duration * 1e6))

    def on_step(self, step_index: int, start_record: int,
                end_record: int) -> None:
        lo = self._bounds[-1][1] if self._bounds else 0
        inside = self.kernel_spans[lo:]
        self._bounds.append((lo, len(self.kernel_spans)))
        if inside:
            t0, t1 = inside[0].start_us, max(s.end_us for s in inside)
        else:  # an empty step still gets a (zero-length) span
            t0 = t1 = self.step_spans[-1].end_us if self.step_spans else 0.0
        self.step_spans.append(StepSpan(
            step=step_index, start_record=start_record,
            end_record=end_record, start_us=t0, end_us=t1))

    def on_reset(self) -> None:
        self.kernel_spans.clear()
        self.step_spans.clear()
        self._bounds.clear()
        self._origin = None

    # -- derived structure ---------------------------------------------------
    def level_runs(self) -> list[LevelRun]:
        """Per-step maximal same-level runs (the mid-tier of the tree)."""
        runs: list[LevelRun] = []
        for k, step in enumerate(self.step_spans):
            group: list[KernelSpan] = []
            for s in self.spans_for_step(k):
                if group and s.record.level != group[-1].record.level:
                    runs.append(self._close_run(step.step, group))
                    group = []
                group.append(s)
            if group:
                runs.append(self._close_run(step.step, group))
        return runs

    @staticmethod
    def _close_run(step: int, group: list[KernelSpan]) -> LevelRun:
        return LevelRun(
            step=step, level=group[0].record.level,
            start_record=group[0].index, end_record=group[-1].index + 1,
            start_us=group[0].start_us,
            end_us=max(s.end_us for s in group))

    # -- queries -------------------------------------------------------------
    def last(self, n: int) -> list[KernelSpan]:
        """The most recent ``n`` kernel spans (diagnostic dumps)."""
        return self.kernel_spans[-n:] if n > 0 else []

    def spans_for_step(self, step: int) -> list[KernelSpan]:
        lo, hi = self._bounds[step]
        return self.kernel_spans[lo:hi]

    def total_us(self) -> float:
        """Wall time from the first launch to the end of the last one."""
        if not self.kernel_spans:
            return 0.0
        return max(s.end_us for s in self.kernel_spans)

    def observed_occupancy(self, step: int | None = None) -> dict:
        """Measured kernel-span overlap — the host analogue of per-stream
        occupancy.

        Serial execution yields ``max_concurrent == 1``; under
        thread-wave plan replay genuinely overlapping bodies raise it up
        to the wave width, which is what the Perfetto export renders
        next to the predicted stream tracks.  ``mean_concurrent`` is the
        time-weighted average over the spanned interval.
        """
        spans = (self.kernel_spans if step is None
                 else self.spans_for_step(step))
        if not spans:
            return {"max_concurrent": 0, "mean_concurrent": 0.0,
                    "busy_us": 0.0, "span_us": 0.0}
        edges = sorted([(s.start_us, 1) for s in spans] +
                       [(s.end_us, -1) for s in spans])
        cur = peak = 0
        busy_weighted, prev = 0.0, edges[0][0]
        for t, d in edges:
            busy_weighted += cur * (t - prev)
            prev = t
            cur += d
            peak = max(peak, cur)
        span_us = max(s.end_us for s in spans) - min(s.start_us for s in spans)
        return {"max_concurrent": peak,
                "mean_concurrent": (busy_weighted / span_us) if span_us > 0
                else float(peak),
                "busy_us": sum(s.dur_us for s in spans),
                "span_us": span_us}
