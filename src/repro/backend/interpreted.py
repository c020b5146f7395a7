"""The interpreted reference backend: serial, per-launch execution.

Every coarse step re-drives the Algorithm-1 recursion, and every
``op_*`` goes through :meth:`~repro.neon.runtime.Runtime.launch` —
constructing its record, consulting the tracer/fault/span hooks,
binding and executing its body, one kernel at a time.  It exists to be
the reference for *how a step is run*: step plans are captured from
this recursion, declaration capture and access capture are modes of
this launch path, and every other backend's records, markers, hook
order and error contract are gated against it.  The arithmetic is not
a second copy — plans replay the bodies these launches carry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["InterpretedBackend"]


class InterpretedBackend:
    """Reference execution: one ``Runtime.launch`` per kernel per step."""

    name = "interpreted"

    def step(self, stepper: "NonUniformStepper") -> None:
        """Advance the coarsest level by one time step.

        If a kernel body raises mid-step, the partial step is closed
        (:meth:`~repro.neon.runtime.Runtime.abort_step`) before the
        exception propagates, so span trees stay balanced and the trace
        remains exportable/valid.
        """
        rt = stepper.engine.rt
        try:
            stepper._advance(0)
            rt.step_marker()
        except BaseException:
            rt.abort_step()
            raise
        stepper.steps_done += 1
