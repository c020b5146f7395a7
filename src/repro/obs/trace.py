"""Chrome-trace-event / Perfetto export of the recorded span tree.

Renders a :class:`~repro.obs.spans.SpanRecorder` as the JSON object
format every Chrome-trace consumer (``ui.perfetto.dev``,
``chrome://tracing``) loads directly:

* **pid 1 — observed (wall clock)**: the step spans (track ``coarse
  steps``), the per-level runs (track ``level runs``) and one track per
  *concurrency stream* carrying the kernel slices.  Streams follow the
  device's dependency-wave schedule (:func:`repro.neon.graph.stream_assignment`
  over :func:`repro.gpu.costmodel.device_records`):
  kernels sharing a wave sit on different stream tracks, so the width of
  the schedule is visible even though the functional run executes
  sequentially.
* **pid 2 — cost model (predicted)**: the same kernels re-timed by the
  roofline model (:mod:`repro.gpu.costmodel`) and laid out wave-by-wave
  the way the device scheduler would issue them.  Lining the two
  processes up makes observed-vs-modelled skew visible per kernel; each
  observed slice also carries ``predicted_us`` and ``skew`` in its args.

Every kernel slice is a *complete* event (``"ph": "X"``) with
microsecond ``ts``/``dur`` — exactly one per
:class:`~repro.neon.runtime.KernelRecord`, which is the invariant
:func:`validate_trace` (and the golden test) checks.
"""

from __future__ import annotations

import json

from ..gpu.costmodel import device_records, kernel_time_us
from ..io.checkpoint import atomic_write
from ..gpu.device import A100_40GB, DeviceSpec
from ..neon.graph import build_dependency_graph, stream_assignment
from .spans import SpanRecorder

__all__ = ["chrome_trace", "write_chrome_trace", "validate_trace",
           "OBSERVED_PID", "MODELLED_PID"]

OBSERVED_PID = 1
MODELLED_PID = 2
_STEP_TID = 0
_LEVEL_TID = 1
_STREAM_TID0 = 10          # stream s renders on tid _STREAM_TID0 + s


def _meta(pid: int, tid: int | None, name: str, value: str) -> dict:
    ev = {"ph": "M", "name": name, "pid": pid, "args": {"name": value}}
    if tid is not None:
        ev["tid"] = tid
    return ev


def _slice(name: str, cat: str, pid: int, tid: int, ts: float, dur: float,
           args: dict) -> dict:
    return {"name": name, "cat": cat, "ph": "X", "pid": pid, "tid": tid,
            "ts": round(ts, 3), "dur": round(max(dur, 0.0), 3), "args": args}


def chrome_trace(recorder: SpanRecorder, *, device: DeviceSpec = A100_40GB,
                 kbc: bool = False) -> dict:
    """Render the recorded spans as a Chrome-trace-event JSON object."""
    events: list[dict] = [
        _meta(OBSERVED_PID, None, "process_name", "observed (wall clock)"),
        _meta(OBSERVED_PID, _STEP_TID, "thread_name", "coarse steps"),
        _meta(OBSERVED_PID, _LEVEL_TID, "thread_name", "level runs"),
        _meta(MODELLED_PID, None, "process_name",
              f"cost model (predicted, {device.name})"),
    ]

    for ss in recorder.step_spans:
        events.append(_slice(
            f"step {ss.step}", "step", OBSERVED_PID, _STEP_TID,
            ss.start_us, ss.dur_us,
            {"step": ss.step, "kernels": ss.end_record - ss.start_record}))
    for run in recorder.level_runs():
        events.append(_slice(
            f"L{run.level}", "level", OBSERVED_PID, _LEVEL_TID,
            run.start_us, run.dur_us,
            {"step": run.step, "level": run.level,
             "kernels": run.end_record - run.start_record}))

    streams_seen: set[int] = set()
    # Kernels before the first step marker (a partial step) still export.
    bounds = [(ss.step, ss.start_record, ss.end_record)
              for ss in recorder.step_spans]
    done = bounds[-1][2] if bounds else 0
    tail = [s for s in recorder.kernel_spans if s.index >= done]
    if tail:
        bounds.append((len(bounds), tail[0].index, tail[-1].index + 1))

    for step, start, end in bounds:
        spans = [s for s in recorder.kernel_spans if start <= s.index < end]
        if not spans:
            continue
        records = [s.record for s in spans]
        slots = stream_assignment(build_dependency_graph(device_records(records)))
        cursor = spans[0].start_us
        wave_end = {}
        for pos, span in enumerate(spans):
            rec = span.record
            wave, stream = slots[pos]
            streams_seen.add(stream)
            cost = kernel_time_us(rec, device, kbc=kbc)
            label = f"{rec.name}{rec.level}"
            args = {
                "index": span.index, "step": step, "level": rec.level,
                "n_cells": rec.n_cells, "bytes": rec.bytes_total,
                "atomic_bytes": rec.atomic_bytes,
                "wave": wave, "stream": stream,
                "predicted_us": round(cost.time_us, 4),
                "skew": round(span.dur_us / cost.time_us, 3)
                        if cost.time_us > 0 else None,
            }
            events.append(_slice(label, "kernel", OBSERVED_PID,
                                 _STREAM_TID0 + stream,
                                 span.start_us, span.dur_us, args))
            # Modelled schedule: a wave's kernels start together; the next
            # wave starts when the slowest kernel of this one retires.
            start_t = wave_end.setdefault(wave, cursor)
            events.append(_slice(label, "kernel-predicted", MODELLED_PID,
                                 _STREAM_TID0 + stream,
                                 start_t, cost.time_us,
                                 {"index": span.index, "step": step,
                                  "wave": wave,
                                  "observed_us": round(span.dur_us, 3)}))
            finish = start_t + cost.time_us + device.sync_overhead_us
            if wave + 1 not in wave_end or finish > wave_end[wave + 1]:
                wave_end[wave + 1] = finish

    for s in sorted(streams_seen):
        events.append(_meta(OBSERVED_PID, _STREAM_TID0 + s,
                            "thread_name", f"stream {s}"))
        events.append(_meta(MODELLED_PID, _STREAM_TID0 + s,
                            "thread_name", f"stream {s}"))

    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.obs",
                          "device": device.name,
                          "kernel_slices": len(recorder.kernel_spans),
                          # Observed overlap of the wall-clock slices —
                          # 1.0 serial, up to the wave width threaded.
                          "occupancy": recorder.observed_occupancy()}}


def write_chrome_trace(path: str, recorder: SpanRecorder, *,
                       device: DeviceSpec = A100_40GB, kbc: bool = False) -> str:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    trace = chrome_trace(recorder, device=device, kbc=kbc)

    def write(fh) -> None:
        json.dump(trace, fh)
        fh.write("\n")
    atomic_write(path, write, "w")
    return path


def validate_trace(trace: dict, expected_kernels: int | None = None) -> list[str]:
    """Structural lint of an exported trace; returns found problems.

    Checks the invariants the CI smoke job relies on: parseability (the
    caller typically round-trips through ``json.dumps``/``loads`` first),
    complete-event shape for every slice, and — when
    ``expected_kernels`` is given — exactly one observed kernel slice
    per :class:`~repro.neon.runtime.KernelRecord`.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    kernel_slices = 0
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            problems.append(f"event {i}: unexpected phase {ph!r}")
            continue
        if ph == "X":
            if not all(k in ev for k in ("name", "ts", "dur", "pid", "tid")):
                problems.append(f"event {i}: incomplete slice {ev.get('name')!r}")
            elif ev["dur"] < 0:
                problems.append(f"event {i}: negative duration")
            if ev.get("cat") == "kernel":
                kernel_slices += 1
    if expected_kernels is not None and kernel_slices != expected_kernels:
        problems.append(f"{kernel_slices} kernel slices for "
                        f"{expected_kernels} kernel records")
    return problems
