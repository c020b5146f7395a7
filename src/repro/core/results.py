"""Structured run results — the typed return value of every run loop.

``Simulation.run`` used to return bare wall-clock seconds and
``ResilientRunner.run`` its own ``RunReport``; callers stitching the two
together (benchmarks, the serve layer, tests) had to know which ad-hoc
value they were holding.  :class:`RunResult` unifies them: one frozen
record per ``run`` call carrying the steps advanced, the wall time, the
backend/execution mode that did the work, the measured MLUPS and — for
resilient runs — the full degradation/retry summary
(:class:`~repro.resilience.runner.RunReport`) under :attr:`report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["RunResult"]


@dataclass(frozen=True)
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
    metrics:
        A small snapshot of run accounting (traced kernels/steps,
        cumulative elapsed seconds).  Deliberately cheap — full metrics
        live in :func:`repro.obs.metrics.run_metrics`.
    report:
        The :class:`~repro.resilience.runner.RunReport` when the run was
        driven by a :class:`~repro.resilience.runner.ResilientRunner`
        (retries, rollbacks, degradation rungs); ``None`` for plain
        ``Simulation.run`` calls.
    """

    steps: int
    final_step: int
    seconds: float
    backend: str = "interpreted"
    mode: str = "serial"
    mlups: float = 0.0
    metrics: dict = field(default_factory=dict)
    report: Any | None = None

    @property
    def outcome(self) -> str:
        """``"ok"`` for plain runs; the resilient report's outcome otherwise."""
        return self.report.outcome if self.report is not None else "ok"

    def as_dict(self) -> dict:
        """JSON-ready digest (job results, bench payloads, CLI output)."""
        return {
            "steps": self.steps,
            "final_step": self.final_step,
            "seconds": self.seconds,
            "backend": self.backend,
            "mode": self.mode,
            "mlups": self.mlups,
            "outcome": self.outcome,
            "metrics": dict(self.metrics),
            "report": self.report.as_dict() if self.report is not None else None,
        }
