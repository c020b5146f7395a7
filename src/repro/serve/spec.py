"""Typed job descriptions and results for the simulation job server.

A :class:`JobSpec` wraps everything one tenant's simulation needs — the
domain (:class:`~repro.grid.multigrid.RefinementSpec`), the physics and
execution profile (:class:`~repro.core.config.SimConfig`), the step
target — plus the service-level knobs the scheduler cares about: tenant
identity, priority, checkpoint cadence and retry budget.

The job lifecycle is::

    queued -> admitted -> running -> (checkpointed / degraded)* ->
        done | failed | cancelled

``checkpointed`` and ``degraded`` are not separate states: a running job
keeps ``state == "running"`` while its :class:`JobStatus` exposes the
checkpoint count and degradation rungs taken so far (and the unified
event log narrates each transition).  Rejected submissions never enter
the lifecycle — admission control raises :class:`AdmissionError`
synchronously from ``submit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any
from uuid import uuid4

from ..core.config import SimConfig
from ..grid.multigrid import RefinementSpec

__all__ = [
    "JOB_STATES", "TERMINAL_STATES", "JobSpec", "JobStatus", "JobResult",
    "AdmissionError", "JobCancelled", "WorkerKilled", "UnknownJobError",
]

#: Every state a job can report.
JOB_STATES = ("queued", "admitted", "running", "done", "failed", "cancelled")
#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")


class AdmissionError(RuntimeError):
    """The server refused a submission (queue or cost budget exceeded)."""

    def __init__(self, message: str, tenant: str | None = None) -> None:
        super().__init__(message)
        self.tenant = tenant


class JobCancelled(RuntimeError):
    """Raised inside a worker when the server answers a checkpoint
    boundary of a job whose cancellation was requested."""


class WorkerKilled(RuntimeError):
    """A worker process died mid-job.

    The server raises it for a job whose worker's pipe reached EOF (the
    process exited or was killed).  A ``chaos`` hook raises it to kill
    the worker at a checkpoint boundary: the server SIGKILLs the process
    and records the hook's exception.  Either way — and for any other
    exception escaping the per-job resilience machinery — the job is
    requeued and its next worker resumes it from its last checkpoint.
    """


class UnknownJobError(KeyError):
    """No job with the requested id is known to this server."""


@dataclass(frozen=True, eq=False)
class JobSpec:
    """One tenant's simulation job, ready to submit.

    Attributes
    ----------
    spec:
        Domain description (:class:`~repro.grid.multigrid.RefinementSpec`).
    config:
        Physics + execution profile (:class:`~repro.core.config.SimConfig`);
        the job honors its backend selection and the per-job resilience
        degradation ladder starts from it.
    steps:
        Coarse steps to run (>= 1).
    tenant:
        Tenant identity — the unit of fair-share scheduling and of the
        per-tenant telemetry labels.
    priority:
        Intra-tenant ordering: among one tenant's queued jobs the higher
        priority starts first (ties resolve in submit order).  Fairness
        *across* tenants is cost-weighted and unaffected by priority.
    checkpoint_every:
        Coarse steps between durable checkpoints; also the cancellation
        and worker-death recovery granularity.
    max_retries:
        Per-incident rollback-retry budget of the job's
        :class:`~repro.resilience.runner.RetryPolicy`.
    job_id:
        Stable identity; auto-generated when omitted.  Also the job's
        run id in the unified event log.
    labels:
        Extra key/value labels stamped on the job's event-log lines.
    """

    spec: RefinementSpec
    config: SimConfig
    steps: int
    tenant: str = "default"
    priority: int = 0
    checkpoint_every: int = 5
    max_retries: int = 3
    job_id: str = ""
    labels: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if int(self.steps) < 1:
            raise ValueError("steps must be >= 1")
        if int(self.checkpoint_every) < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if int(self.max_retries) < 1:
            raise ValueError("max_retries must be >= 1")
        if not str(self.tenant):
            raise ValueError("tenant must be a non-empty string")
        if not self.job_id:
            object.__setattr__(self, "job_id", uuid4().hex[:12])
        object.__setattr__(self, "labels",
                           tuple((str(k), str(v)) for k, v in self.labels))

    def label_dict(self) -> dict[str, str]:
        """The job's event-log labels (tenant always included)."""
        return {"tenant": str(self.tenant), **dict(self.labels)}

    def as_dict(self) -> dict:
        """The job as JSON data (``job.json``'s ``spec``; see :meth:`from_dict`)."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "spec": self.spec.as_dict(), "config": self.config.as_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        """The job :meth:`as_dict` wrote (else ``ValueError``, ``KeyError``, ``TypeError``)."""
        return cls(**{**d, "spec": RefinementSpec.from_dict(d["spec"]),
                      "config": SimConfig(**d["config"])})


@dataclass
class JobStatus:
    """A point-in-time snapshot of one job's lifecycle.

    The one per-job record: the server updates it as the job runs,
    persists it as ``job.json`` (:mod:`repro.serve.state`), restores it
    on restart, builds the :class:`JobResult` from it and derives the
    fleet tables from it.  ``seconds`` is wall time spent on workers,
    summed over restarts; ``queue_wait_s`` the time from admission to
    dispatch, summed over requeues; ``first_step_s`` a worker's wall
    time from receiving the job to its first completed step, summed over
    the dispatches that completed one (each is ``0.0`` in records
    written before it existed).
    """

    job_id: str
    tenant: str
    state: str
    steps: int
    steps_done: int = 0
    priority: int = 0
    predicted_cost_us: float = 0.0
    checkpoints: int = 0
    retries: int = 0
    rollback_steps: int = 0
    restarts: int = 0
    seconds: float = 0.0
    queue_wait_s: float = 0.0
    first_step_s: float = 0.0
    degradations: list = field(default_factory=list)
    error: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    def as_dict(self) -> dict:
        return {**vars(self), "degradations": list(self.degradations)}

    @classmethod
    def from_dict(cls, state: dict) -> "JobStatus":
        """The status :meth:`as_dict` wrote; other keys are ignored."""
        return cls(**{f.name: state[f.name] for f in fields(cls)
                      if f.name in state})


@dataclass
class JobResult(JobStatus):
    """The final outcome of one job: its :class:`JobStatus` at the end.

    ``state`` is one of :data:`TERMINAL_STATES`.  ``run`` is the
    :class:`~repro.core.results.RunResult` of the job's last worker
    (retries, rollbacks and events included);
    ``state_digest`` is a SHA-256 over the final population buffers —
    two jobs that ran the same :class:`JobSpec` to completion must agree
    on it bit-for-bit, regardless of faults survived along the way.
    """

    state_digest: str | None = None
    run: Any | None = None

    def as_dict(self) -> dict:
        return {**super().as_dict(),
                "run": self.run.as_dict() if self.run is not None else None}
