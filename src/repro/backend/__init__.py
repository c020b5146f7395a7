"""Pluggable compute backends: how one coarse step actually executes.

The Algorithm-1 stepper (:mod:`repro.core.stepper`) describes *what* a
coarse step does; a backend decides *how* it runs:

* :class:`~repro.backend.interpreted.InterpretedBackend` — the serial
  reference path: every ``op_*`` re-dispatches through
  :meth:`Runtime.launch <repro.neon.runtime.Runtime.launch>` each step.
  Plans are captured from it, the capture modes run on it, and every
  other backend is tested against it.
* :class:`~repro.backend.compiled.CompiledBackend` — compile-once step
  plans: the first execution of each unique step shape captures the
  kernel stream in plan-only mode, pre-resolves every field view and
  index map, pre-allocates scratch from the buffer arena and replays
  the plan on later steps with zero Python re-dispatch of the launch
  path — serially, or in dependency waves on a thread pool under
  ``SimConfig(threaded=True)``.  Bit-identical to the interpreted path
  by contract.
* :class:`~repro.backend.compiled.CompiledAABackend` — the compiled
  plan plus AA-pattern in-place streaming: population double buffers
  the static linter proves droppable are physically replaced by arena
  scratch (paper §VI-B's memory win).
* :class:`~repro.backend.mp.MultiprocessBackend` — process-parallel
  replay of the same admitted plans: level buffers live in shared
  memory, a spawn-based worker pool executes cost-model-balanced
  kernel shards wave-by-wave, escaping the GIL entirely.  Bit-identical
  to the interpreted path; worker death surfaces as a recoverable
  :class:`~repro.backend.mp.MpWorkerError`.

The admitted :class:`~repro.backend.plan.StepPlan` is the one
representation everything but the reference backend executes: serial
replay, thread waves and process waves are executors over it, and the
runtime's ``faults``/``spans`` hooks act on its kernels.

Select a backend with ``SimConfig(backend="compiled")`` or the
``$REPRO_BACKEND`` environment variable; the default is interpreted.
The seam is duck-typed (``step(stepper)`` + a ``name``), sized so a
torch or genuinely device-compiled backend can slot in later without
touching the stepper.
"""

from .base import (Backend, PlanAdmissionError, available_backends,
                   make_backend, resolve_backend)
from .compiled import CompiledAABackend, CompiledBackend
from .interpreted import InterpretedBackend
from .mp import MpWorkerError, MultiprocessBackend
from .plan import StepPlan

__all__ = [
    "Backend", "PlanAdmissionError", "available_backends", "make_backend",
    "resolve_backend", "InterpretedBackend", "CompiledBackend",
    "CompiledAABackend", "MultiprocessBackend", "MpWorkerError", "StepPlan",
]
