"""Backend protocol and registry.

A backend is anything with a ``name`` and a ``step(stepper)`` method
that advances the coarsest level by one time step, honouring the
runtime's trace/step-marker contract (records appended per launch, one
marker per coarse step, :meth:`~repro.neon.runtime.Runtime.abort_step`
on mid-step failure).  The registry maps the names accepted by
``SimConfig(backend=...)`` and ``$REPRO_BACKEND`` to constructors.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["Backend", "PlanAdmissionError", "BACKEND_ENV",
           "available_backends", "make_backend", "resolve_backend"]

#: Environment variable consulted when ``SimConfig.backend`` is ``None``.
BACKEND_ENV = "REPRO_BACKEND"


@runtime_checkable
class Backend(Protocol):
    """Duck-typed execution strategy for one coarse step.

    Implementations must advance ``stepper.steps_done`` by one, close the
    step with a runtime step marker, and call
    :meth:`~repro.neon.runtime.Runtime.abort_step` before re-raising a
    mid-step failure, so traces stay balanced under every backend.
    """

    #: Registry name the backend answers to (``"interpreted"``, ...).
    name: str

    def step(self, stepper: "NonUniformStepper") -> None:
        """Advance the coarsest level of ``stepper`` by one time step."""
        ...  # pragma: no cover - protocol stub


class PlanAdmissionError(RuntimeError):
    """A compiled step plan failed its admission contract.

    Raised when the captured kernel stream has lint *errors* (dead
    stores) or fails certificate validation (digest
    mismatch, hazard-order violation, illegal fusion contraction).  The
    plan is never executed: admission failures mean the records the
    plan would be replayed from cannot be trusted.
    """

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("step plan refused admission: "
                         + "; ".join(self.problems[:5]))


def _registry() -> dict[str, Callable[[], Backend]]:
    from .compiled import CompiledBackend
    from .interpreted import InterpretedBackend
    from .mp import MultiprocessBackend
    return {
        "interpreted": InterpretedBackend,
        "compiled": CompiledBackend,
        "mp": MultiprocessBackend,
    }


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in presentation order."""
    return tuple(_registry())


def make_backend(name: str) -> Backend:
    """Construct a fresh backend instance by registry name."""
    try:
        ctor = _registry()[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}") from None
    return ctor()


def resolve_backend(name: str | None, threaded: bool = False) -> Backend:
    """Resolve a configured backend name to an instance.

    ``None`` defers to ``$REPRO_BACKEND`` and falls back to the
    interpreted reference backend.  ``threaded`` asks for thread-wave
    execution, which replays an admitted plan in this process: the
    reference path is serial by definition and an ambient ``mp`` has its
    own executor, so both resolve to ``compiled`` (an explicit
    ``backend="mp", threaded=True`` is rejected by ``SimConfig``).
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or "interpreted"
    if threaded and name in ("interpreted", "mp"):
        name = "compiled"
    return make_backend(name)
