"""Exact checkpoint/restore of a running simulation.

Long wind-tunnel runs (the paper's 30k-iteration sphere experiment)
need restartability.  A checkpoint stores the *live* state and nothing
else — between coarse steps, every level's one population buffer ``f``:
the 4a layout's ``fghost`` and the in-place stream's scratch are
rewritten before anything reads them and the ghost accumulators are
zero, so a restore derives them from the file and the run continues bit-for-bit identically (asserted with the dead
buffers poisoned: ``tests/test_live_state.py``).  Format 2 is uncompressed —
deflate was over half of a served job's wall time and the zip CRC-32
guards the members either way — so a near-rest state, which deflates to
almost nothing, takes more disk than it did (DESIGN.md section 16).

Two layers:

* :class:`CheckpointStore` — the directory-based API: atomic writes
  (temp file + ``os.replace``, so a crash mid-write never leaves a
  half-checkpoint under the real name), keep-last-K pruning from the
  directory listing and generation fallback on restore.  One durable
  write per save: the file names are the index.  This is what
  :class:`~repro.resilience.ResilientRunner` rolls back through.
* :func:`save_checkpoint` / :func:`restore_checkpoint` — the
  single-file serialization itself: :meth:`CheckpointStore.save` and
  :meth:`CheckpointStore.restore` call them on the store's generation
  files, and they are crash-safe on their own.

Corruption (a truncated or non-checkpoint file) raises the structured
:class:`CheckpointError`; structural mismatch against the target
simulation keeps raising ``ValueError`` as before.  Restore is
all-or-nothing: every array is loaded and validated **before** the first
byte lands in the simulation's buffers.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from typing import IO, Callable

import numpy as np

from ..core.simulation import Simulation

__all__ = ["CheckpointError", "CheckpointStore",
           "save_checkpoint", "restore_checkpoint"]

_FORMAT = 2


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable (truncated, corrupt, missing keys).

    Distinct from the ``ValueError`` raised for *structural* mismatch
    (wrong lattice/shape/levels): a ``CheckpointError`` means the file
    itself is damaged, so a caller holding older generations should fall
    back to the previous one — which
    :meth:`CheckpointStore.restore_latest` does automatically.
    """

    def __init__(self, message: str, path: str | None = None) -> None:
        super().__init__(message if path is None else f"{message} ({path})")
        self.path = path


def _payload(sim: Simulation) -> dict[str, np.ndarray]:
    payload: dict[str, np.ndarray] = {
        "format": np.asarray(_FORMAT),
        "steps": np.asarray(sim.steps_done),
        "num_levels": np.asarray(sim.num_levels),
        "base_shape": np.asarray(sim.mgrid.spec.base_shape),
        "lattice": np.asarray(sim.lattice.name),
        "active_per_level": np.asarray(sim.mgrid.active_per_level()),
    }
    for lv, buf in enumerate(sim.engine.levels):
        if buf.ghost_acc.any():
            raise RuntimeError(
                f"checkpoint requested inside a coarse step: level {lv}'s "
                f"ghost accumulator is not zero")
        payload[f"f_{lv}"] = buf.f
    return payload


def atomic_write(path: str, write: Callable[[IO], object], mode: str = "wb") -> None:
    """Write a file through ``write(fh)`` so ``path`` only ever holds it whole.

    The bytes go to a temp file in the same directory (created if
    missing; same filesystem, so the final ``os.replace`` is atomic) and
    are ``fsync``-ed before the rename; a process dying mid-write leaves
    only the temp file, never a truncated file under the real name, and
    a failed write removes the temp file and leaves the old file as it
    was.  The directory is ``fsync``-ed after the rename, which is what
    makes the rename itself survive a power loss.  Every file the repo
    writes whole goes through here: checkpoints, the job
    server's state files and fleet summary, certificates, traces, run
    reports, ``BENCH_*.json`` and event logs written with
    ``append=False``.  Appends (the shared event sink) do not.
    """
    dirname = os.path.dirname(os.path.abspath(path))
    os.makedirs(dirname, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=dirname)
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(dirname, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save_checkpoint(sim: Simulation, path: str) -> None:
    """Write the live engine state to ``path`` (``.npz``), atomically."""
    payload = _payload(sim)
    atomic_write(path, lambda fh: np.savez(fh, **payload))


def _load_arrays(path: str) -> dict[str, np.ndarray]:
    """Read every array of a checkpoint into memory, or raise CheckpointError.

    ``np.load`` on an ``.npz`` is lazy — members are read on
    access — so a truncated file can fail *midway through a restore*.
    Materializing everything first makes restore all-or-nothing.
    """
    try:
        # np.load does not close a file it cannot parse: hand it our handle
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            return {k: data[k] for k in data.files}
    except (zipfile.BadZipFile, EOFError, OSError, KeyError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint is unreadable or truncated: {exc}", path) from exc


def restore_checkpoint(sim: Simulation, path: str) -> None:
    """Load a checkpoint into a simulation built from the *same* spec.

    The target must match the checkpoint structurally (levels, lattice,
    per-level cell counts, population dtype) — the function validates and
    raises ``ValueError`` otherwise; a damaged file raises
    :class:`CheckpointError`.  The simulation is only modified once the
    whole file has been read and validated; every buffer is then a
    function of the file alone (``f`` is read, ``fghost`` and
    ``ghost_acc`` are zeroed; the stream's scratch is written before it
    is read): no NaN of the abandoned timeline survives a rollback.  Every buffer is written in place, so a step
    plan bound to them stays valid.
    """
    data = _load_arrays(path)
    try:
        fmt = int(data["format"])
    except KeyError as exc:
        raise CheckpointError("file is not a repro checkpoint "
                              "(no format marker)", path) from exc
    if fmt != _FORMAT:
        raise ValueError(f"unsupported checkpoint format {fmt}")
    if int(data["num_levels"]) != sim.num_levels:
        raise ValueError("level count differs from the checkpoint")
    ck_shape = tuple(int(x) for x in data["base_shape"])
    if ck_shape != tuple(sim.mgrid.spec.base_shape):
        # Cell counts can coincide across different domains (e.g. a
        # transposed box) — the shape itself must match.
        raise ValueError(
            f"base shape differs from the checkpoint: "
            f"{ck_shape} vs {tuple(sim.mgrid.spec.base_shape)}")
    if str(data["lattice"]) != sim.lattice.name:
        raise ValueError("lattice differs from the checkpoint")
    if data["active_per_level"].tolist() != sim.mgrid.active_per_level():
        raise ValueError("grid layout differs from the checkpoint")
    for lv, buf in enumerate(sim.engine.levels):
        if f"f_{lv}" not in data:
            raise CheckpointError(f"missing array 'f_{lv}'", path)
        saved = data[f"f_{lv}"]
        if saved.shape != buf.f.shape:
            raise ValueError(f"level {lv} buffer shape mismatch")
        if saved.dtype != buf.f.dtype:
            # checkpoints are verbatim: a cast would restore a state no
            # run ever produced
            raise ValueError(f"level {lv} populations are {saved.dtype}, "
                             f"not {buf.f.dtype}")
    for lv, buf in enumerate(sim.engine.levels):
        buf.f[:] = data[f"f_{lv}"]
        if buf.fghost is not None:      # only where the 4a layout allocated it
            buf.fghost.fill(0.0)
        buf.ghost_acc[:] = 0.0
    steps = int(data["steps"])
    sim.stepper.steps_done = steps
    # Rebase the trace and the wall clock: per-step metrics and the wall
    # MLUPS must not average over steps this runtime did not run.
    sim.runtime.reset(steps_base=steps)
    sim.elapsed = 0.0


class CheckpointStore:
    """Directory of rolling checkpoints with keep-K pruning.

    Files are named ``ckpt_<step:08d>.npz`` and written atomically; the
    directory listing is the index — there is no manifest to keep in step
    with it.  :meth:`restore_latest` walks generations newest-first and
    transparently skips damaged files, so one torn write never strands a
    recovery.

    Parameters
    ----------
    directory:
        Created if missing.  One store per simulation lineage — the
        structural validation of :func:`restore_checkpoint` still guards
        against crossing streams.
    keep:
        Number of most-recent generations retained; older checkpoint
        files are deleted after each successful save.  ``keep >= 2``
        is what makes generation fallback meaningful.
    """

    def __init__(self, directory: str, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = str(directory)
        self.keep = keep
        os.makedirs(self.directory, exist_ok=True)

    # -- paths / listing -----------------------------------------------------
    def path_for(self, step: int) -> str:
        return os.path.join(self.directory, f"ckpt_{int(step):08d}.npz")

    def steps(self) -> list[int]:
        """Steps with a checkpoint file on disk, ascending."""
        out = []
        for name in os.listdir(self.directory):
            if name.startswith("ckpt_") and name.endswith(".npz"):
                try:
                    out.append(int(name[5:-4]))
                except ValueError:
                    continue
        return sorted(out)

    def latest(self) -> int | None:
        """Newest checkpointed step, or ``None`` for an empty store."""
        steps = self.steps()
        return steps[-1] if steps else None

    # -- writing -------------------------------------------------------------
    def save(self, sim: Simulation) -> str:
        """Checkpoint ``sim`` at its current step; return the file path.

        Saving the same step twice overwrites that generation (the
        rollback-retry loop re-checkpoints reliably).  A save at a step
        *earlier* than existing generations — rollback, then re-run —
        makes this step the new head of the lineage: generations beyond
        it belong to the abandoned timeline and are dropped, so
        :meth:`restore_latest` can never resurrect state the run
        explicitly rolled back past.
        """
        step = int(sim.steps_done)
        path = self.path_for(step)
        save_checkpoint(sim, path)
        self._prune(step)
        return path

    def _prune(self, head: int) -> None:
        """Retain the newest ``keep`` generations of the lineage ending
        at ``head`` (the save that just happened), read off the listing.

        Files beyond the head are abandoned-timeline leftovers and are
        always deleted; older ones beyond the newest ``keep`` go too.
        A failed save never gets here, so it leaves the store as it was.
        """
        on_disk = self.steps()
        lineage = [s for s in on_disk if s <= head]
        keep_steps = set(lineage[-self.keep:])
        for step in on_disk:
            if step not in keep_steps:
                try:
                    os.unlink(self.path_for(step))
                except OSError:
                    pass

    # -- reading -------------------------------------------------------------
    def restore(self, sim: Simulation, step: int | None = None) -> int:
        """Restore one generation (default: the newest); return its step.

        Raises :class:`CheckpointError` if that generation is damaged or
        the store is empty — use :meth:`restore_latest` for automatic
        fallback.
        """
        if step is None:
            step = self.latest()
            if step is None:
                raise CheckpointError("checkpoint store is empty",
                                      self.directory)
        restore_checkpoint(sim, self.path_for(step))
        return int(step)

    def restore_latest(self, sim: Simulation) -> int:
        """Restore the newest *readable* generation; return its step.

        Damaged generations (torn writes, truncation) are skipped
        newest-to-oldest; only when every generation is unreadable does
        the error propagate.  A generation deleted between the directory
        listing and its open — another process' :meth:`save` pruning
        while we restore — surfaces as the same :class:`CheckpointError`
        and falls back identically, so prune racing restore degrades to
        an older generation instead of crashing.
        """
        steps = self.steps()
        if not steps:
            raise CheckpointError("checkpoint store is empty", self.directory)
        last_error: CheckpointError | None = None
        for step in reversed(steps):
            try:
                restore_checkpoint(sim, self.path_for(step))
                return step
            except CheckpointError as exc:
                last_error = exc
        raise CheckpointError(
            f"all {len(steps)} checkpoint generation(s) are unreadable; "
            f"last error: {last_error}", self.directory)
