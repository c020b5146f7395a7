"""The interpreted reference backend: capture and run every step.

Every coarse step re-drives the Algorithm-1 recursion under
:meth:`~repro.neon.runtime.Runtime.capture_plan`
(:func:`~repro.backend.compiler.bind_stream`, which builds each launch's
body afresh and reads its record off the body's report) and runs the
result in :meth:`StepPlan.execute <repro.backend.plan.StepPlan.execute>`,
the loop every in-process backend shares — no admission, no cache.  It
is the per-step reference for *what a step declares*: the compiled
backend's cached plans, and every backend's records, markers, hook
order and error contract, are gated against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .compiler import bind_stream
from .plan import StepPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["InterpretedBackend"]


class InterpretedBackend:
    """Reference execution: capture the step anew, then run it."""

    name = "interpreted"

    def step(self, stepper: "NonUniformStepper") -> None:
        """Advance the coarsest level by one time step.

        If a kernel body raises mid-step, the partial step is closed
        (:meth:`~repro.neon.runtime.Runtime.abort_step`) before the
        exception — named by its ``kernel_span`` — propagates, so span
        trees stay balanced and the trace remains exportable/valid.
        """
        rt = stepper.engine.rt
        plan = StepPlan(*bind_stream(stepper)[:2])
        try:
            plan.execute(rt)
            rt.step_marker()
        except BaseException:
            rt.abort_step()
            raise
        stepper.steps_done += 1
