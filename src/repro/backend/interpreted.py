"""The interpreted reference backend: capture, bind and run every step.

Every coarse step re-drives the Algorithm-1 recursion under
:meth:`~repro.neon.runtime.Runtime.capture_plan`, binds each launch's
body afresh (:func:`~repro.backend.compiler.bind_bodies`) and runs the
result in :meth:`StepPlan.execute <repro.backend.plan.StepPlan.execute>`,
the loop every in-process backend shares — no admission, no cache.  It
is the per-step reference for *what a step declares*: the compiled
backend's cached plans, and every backend's records, markers, hook
order and error contract, are gated against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .compiler import bind_bodies
from .plan import StepPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["InterpretedBackend"]


class InterpretedBackend:
    """Reference execution: capture and bind the step anew, then run it."""

    name = "interpreted"

    def step(self, stepper: "NonUniformStepper") -> None:
        """Advance the coarsest level by one time step.

        If a kernel body raises mid-step, the partial step is closed
        (:meth:`~repro.neon.runtime.Runtime.abort_step`) before the
        exception — named by its ``kernel_span`` — propagates, so span
        trees stay balanced and the trace remains exportable/valid.
        """
        rt = stepper.engine.rt
        handles: list[Any] = []
        records = rt.capture_plan(lambda: stepper._advance(0), handles)
        plan = StepPlan(records, bind_bodies(records, handles)[0])
        try:
            plan.execute(rt)
            rt.step_marker()
        except BaseException:
            rt.abort_step()
            raise
        stepper.steps_done += 1
