"""Pluggable compute backends: how one coarse step actually executes.

The Algorithm-1 stepper (:mod:`repro.core.stepper`) describes *what* a
coarse step does; a backend decides *how* it runs:

* :class:`~repro.backend.interpreted.InterpretedBackend` — the serial
  reference: every step re-drives the recursion under
  :meth:`Runtime.capture_plan <repro.neon.runtime.Runtime.capture_plan>`,
  which builds each launch's body afresh, and runs them, with no
  admission and no cache.  Every other backend's records, markers and hook order are
  tested against it.
* :class:`~repro.backend.compiled.CompiledBackend` — compile-once step
  plans: the first execution of each unique step shape captures the
  kernel stream (building each launch's body once), admits it and replays
  the plan on later steps with zero Python re-dispatch — serially, or in
  dependency waves on a thread pool under ``SimConfig(threaded=True)``.
* :class:`~repro.backend.mp.MultiprocessBackend` — process-parallel
  replay of the same admitted plans: level buffers live in shared
  memory, a spawn-based worker pool executes cost-model-balanced
  kernel shards wave-by-wave, escaping the GIL entirely.  Worker death
  surfaces as a recoverable :class:`~repro.backend.mp.MpWorkerError`.

Every backend runs the same kernel bodies — :mod:`repro.core.engine`
writes each one once — so bit-identity between them is by construction;
what differs is who calls the closures.  The
:class:`~repro.backend.plan.StepPlan` is the one representation every
backend executes — its :meth:`~repro.backend.plan.StepPlan.execute` is
the one in-process loop (interpreted, serial replay, thread waves), mp
runs shards of it in worker processes — and the runtime's
``faults``/``spans`` hooks act on its kernels.

Select a backend with ``SimConfig(backend="compiled")`` or the
``$REPRO_BACKEND`` environment variable; the default is interpreted.
The seam is duck-typed (``step(stepper)`` + a ``name``), sized so a
torch or genuinely device-compiled backend can slot in later without
touching the stepper.
"""

from .base import (Backend, PlanAdmissionError, available_backends,
                   make_backend, resolve_backend)
from .compiled import CompiledBackend
from .interpreted import InterpretedBackend
from .mp import MpWorkerError, MultiprocessBackend
from .plan import StepPlan

__all__ = [
    "Backend", "PlanAdmissionError", "available_backends", "make_backend",
    "resolve_backend", "InterpretedBackend", "CompiledBackend",
    "MultiprocessBackend", "MpWorkerError", "StepPlan",
]
