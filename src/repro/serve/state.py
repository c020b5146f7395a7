"""Durable job state: what survives worker death and server restart.

Each job owns one directory under ``<root>/jobs/<job_id>/``::

    job.json      -- the job's JobStatus, its submission sequence and its
                     JobSpec as JSON (``spec``; atomic tmp+replace)
    ckpt/         -- the job's CheckpointStore (atomic generations,
                     keep-K pruning, torn-write fallback)

``job.json`` is the one per-job record and the restart index: a new
server scans the root, finds jobs whose recorded state is non-terminal,
decodes their :class:`~repro.serve.spec.JobSpec` from the record and
re-enqueues them with their recorded status — the job's runner then
resumes from the store's newest readable generation (a record without a
decodable ``spec`` is skipped).  The fleet tables
(:func:`fleet_tables`) are a function of these records, live or read
back from disk.  ``state_digest`` is the bit-identity witness: a SHA-256
over the step count and every level's ``f`` — between coarse steps the
whole live state, and exactly what a checkpoint stores — so a resumed or
fault-recovered run can be proven identical to an unfaulted one.
"""

from __future__ import annotations

import hashlib
import json
import os

from ..io.checkpoint import atomic_write
from .spec import TERMINAL_STATES, JobStatus

__all__ = ["job_dir", "write_job_state", "read_job_state", "scan_jobs",
           "fleet_tables", "state_digest"]

STATE_FILE = "job.json"
CKPT_DIR = "ckpt"


def job_dir(root: str, job_id: str) -> str:
    """The job's directory under ``root`` (created by the writers)."""
    return os.path.join(str(root), "jobs", str(job_id))


def write_job_state(directory: str, state: dict) -> str:
    """Atomically persist one job's lifecycle snapshot; return the path."""
    path = os.path.join(directory, STATE_FILE)
    text = json.dumps(state, indent=2, sort_keys=True, default=str) + "\n"
    atomic_write(path, lambda fh: fh.write(text), "w")
    return path


def read_job_state(directory: str) -> dict | None:
    """The job's persisted snapshot, or ``None`` when absent/corrupt."""
    try:
        with open(os.path.join(directory, STATE_FILE)) as fh:
            state = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return state if isinstance(state, dict) else None


def scan_jobs(root: str) -> list[tuple[str, dict]]:
    """Every persisted job under ``root`` as ``(job_id, state)`` pairs.

    Jobs with a missing or unreadable ``job.json`` are skipped — a torn
    state write degrades to "not resumable", never to a crash.  Sorted
    by the recorded submission sequence so a restarted server re-enqueues
    in the original arrival order.
    """
    jobs_root = os.path.join(str(root), "jobs")
    out: list[tuple[str, dict]] = []
    try:
        names = sorted(os.listdir(jobs_root))
    except OSError:
        return out
    for name in names:
        state = read_job_state(os.path.join(jobs_root, name))
        if state is not None and state.get("job_id"):
            out.append((str(state["job_id"]), state))
    out.sort(key=lambda pair: pair[1].get("submitted_seq", 0))
    return out


def fleet_tables(jobs: list[JobStatus]) -> dict:
    """The per-state and per-tenant tables of a fleet, from its job records.

    Both :meth:`JobServer.fleet_summary
    <repro.serve.server.JobServer.fleet_summary>` (live records) and
    ``repro serve --summary`` (records read back from ``job.json``) build
    their tables here.  Progress counters sum over every job, finished
    or not; ``served_cost_us`` is the predicted cost of the ``done`` ones;
    ``wall_seconds``, ``queue_wait_s`` and ``first_step_s`` are the
    tenant's service, queueing and time-to-first-step seconds.
    """
    states: dict[str, int] = {}
    tenants: dict[str, dict] = {}
    for job in jobs:
        states[job.state] = states.get(job.state, 0) + 1
        t = tenants.setdefault(job.tenant, {
            "submitted": 0, "done": 0, "failed": 0, "cancelled": 0,
            "restarts": 0, "retries": 0, "rollback_steps": 0,
            "degradations": 0, "checkpoints": 0,
            "predicted_cost_us": 0.0, "served_cost_us": 0.0,
            "wall_seconds": 0.0, "queue_wait_s": 0.0, "first_step_s": 0.0,
            "steps_done": 0,
        })
        t["submitted"] += 1
        if job.state in TERMINAL_STATES:
            t[job.state] += 1
        for key in ("restarts", "retries", "rollback_steps", "checkpoints",
                    "steps_done", "predicted_cost_us"):
            t[key] += getattr(job, key)
        t["degradations"] += len(job.degradations)
        t["wall_seconds"] += job.seconds
        t["queue_wait_s"] += job.queue_wait_s
        t["first_step_s"] += job.first_step_s
        if job.state == "done":
            t["served_cost_us"] += job.predicted_cost_us
    return {"jobs_total": len(jobs), "states": states,
            "tenants": dict(sorted(tenants.items()))}


def state_digest(sim) -> str:
    """SHA-256 witness of a simulation's exact state.

    Hashes the step count and every level's ``f`` verbatim — the same
    buffers a checkpoint stores, the whole state between coarse steps
    (:mod:`repro.io.checkpoint`) — so two runs agree iff they are
    bit-identical.  Rows reach the hash through the buffer protocol,
    uncopied.
    """
    h = hashlib.sha256()
    h.update(f"steps={sim.steps_done}".encode())
    for lv, buf in enumerate(sim.engine.levels):
        h.update(f"|f@{lv}:{buf.f.shape}:{buf.f.dtype}".encode())
        for row in buf.f:
            h.update(row)
    return h.hexdigest()
