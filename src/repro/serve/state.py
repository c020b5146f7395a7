"""Durable job state: what survives worker death and server restart.

Each job owns one directory under ``<root>/jobs/<job_id>/``::

    job.json      -- lifecycle snapshot (atomic tmp+replace, like the
                     checkpoint manifest): state, steps done, restarts,
                     the JobSpec's scalar fields
    payload.pkl   -- the RefinementSpec + SimConfig, pickled (domain
                     masks and fusion objects are not JSON-able)
    ckpt/         -- the job's CheckpointStore (atomic generations,
                     keep-K pruning, torn-write fallback)

``job.json`` is the restart index: a new server scans the root, finds
jobs whose recorded state is non-terminal, rebuilds their
:class:`~repro.serve.spec.JobSpec` from ``payload.pkl`` and re-enqueues
them — the checkpoint store then resumes each from its last good
generation.  ``state_digest`` is the bit-identity witness: a SHA-256
over the step count and every level's ``f`` — between coarse steps the
whole live state, and exactly what a checkpoint stores — so a resumed or
fault-recovered run can be proven identical to an unfaulted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle

from ..io.checkpoint import atomic_write
from .spec import JobSpec

__all__ = ["job_dir", "write_job_state", "read_job_state",
           "write_job_payload", "read_job_payload", "scan_jobs",
           "rebuild_jobspec", "state_digest"]

STATE_FILE = "job.json"
PAYLOAD_FILE = "payload.pkl"
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


def write_job_payload(directory: str, spec, config) -> str:
    """Persist the non-JSON-able job payload (domain + SimConfig)."""
    path = os.path.join(directory, PAYLOAD_FILE)
    data = pickle.dumps({"spec": spec, "config": config},
                        protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write(path, lambda fh: fh.write(data))
    return path


def read_job_payload(directory: str) -> tuple:
    """Load the pickled ``(spec, config)`` pair back."""
    with open(os.path.join(directory, PAYLOAD_FILE), "rb") as fh:
        payload = pickle.load(fh)
    return payload["spec"], payload["config"]


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


def rebuild_jobspec(root: str, job_id: str, state: dict) -> JobSpec:
    """Reconstruct the :class:`JobSpec` of a persisted job for resume."""
    spec, config = read_job_payload(job_dir(root, job_id))
    labels = state.get("labels") or {}
    labels = tuple((k, v) for k, v in labels.items() if k != "tenant")
    return JobSpec(spec=spec, config=config,
                   steps=int(state.get("steps", 1)),
                   tenant=str(state.get("tenant", "default")),
                   priority=int(state.get("priority", 0)),
                   checkpoint_every=int(state.get("checkpoint_every", 5)),
                   max_retries=int(state.get("max_retries", 3)),
                   job_id=str(job_id), labels=labels)


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
