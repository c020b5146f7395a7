"""The one record of a ``run`` call.

``Simulation.run`` and ``ResilientRunner.run`` both return a
:class:`RunResult`; the resilient runner fills the same record while it
runs (the one its ``on_checkpoint`` callback sees and
:class:`~repro.resilience.runner.RetryExhausted` carries), so a plain
run is a resilient one that needed no recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Outcome of one ``run`` call (plain or resilient).

    Attributes
    ----------
    steps:
        Coarse steps advanced by *this* call.
    final_step:
        Absolute ``steps_done`` after the call.
    seconds:
        Wall-clock seconds of this call.
    backend:
        Name of the execution backend that finished the run
        (``"interpreted"``, ``"compiled"``, ``"mp"``).
    mode:
        Execution mode at the end of the run: ``"serial"``,
        ``"threaded"`` or ``"mp"``.
    mlups:
        Measured MLUPS of this call (paper formula; ``0.0`` when the
        call advanced no steps or took no measurable time).

    The rest is what a resilient run recorded; a plain run leaves it at
    zero or empty.  ``outcome`` is ``"ok"`` (target reached, physics
    untouched), ``"degraded"`` (target reached on a safety rung) or
    ``"failed"`` (carried by ``RetryExhausted``).  ``failures`` lists
    every recovered incident; ``degradations`` the ladder rungs taken;
    ``events`` every ``resume`` / ``retry`` / ``rollback`` / ``degrade``
    as ``{"name": ..., **details}``, in the order they happened.
    ``first_step_s`` is the wall time from the call to ``run`` to its
    first completed step (``None`` until one completes).
    """

    steps: int = 0
    final_step: int = 0
    seconds: float = 0.0
    backend: str = "interpreted"
    mode: str = "serial"
    mlups: float = 0.0
    outcome: str = "ok"
    target_step: int = 0
    retries: int = 0
    rollback_steps: int = 0
    checkpoints: int = 0
    omega_scale: float = 1.0
    failures: list = field(default_factory=list)
    degradations: list = field(default_factory=list)
    events: list = field(default_factory=list)
    first_step_s: float | None = None

    def as_dict(self) -> dict:
        """JSON-ready copy (job results, bench payloads, CLI output)."""
        return dict(vars(self))
