"""Checkpoint-rollback retry and graceful degradation for long runs.

:class:`ResilientRunner` wraps ``Simulation.run`` the way a production
driver must: checkpoint periodically, watch numerical health, and when
the run fails — a divergence, a kernel fault, a device OOM, a dead
worker — roll back to the last good checkpoint and retry under a bounded
:class:`RetryPolicy` instead of dying 20k steps into a 30k-step
wind-tunnel experiment.

Recovery from *transient* faults is **bit-identical** to an unfaulted
run: the engine is deterministic, a checkpoint captures every population
buffer verbatim, and a rollback restores all of them before re-running
the lost steps (``python -m repro resilience`` verifies this across the
whole fusion-config matrix).

When retries alone cannot help, the runner walks a degradation ladder
(``mp -> serial -> safety`` or ``threaded -> serial -> safety``):

1. **mp -> serial** / **threaded -> serial** — repeated failures on a
   concurrent executor (:class:`~repro.backend.mp.MpWorkerError` from
   the worker pool: a worker died, timed out or failed mid-step; kernel
   or OOM failures under thread-wave replay) rebuild the simulation on
   serial in-process plan replay after :data:`EXECUTOR_STRIKES`
   strikes.  Every executor is bit-identical to serial, so this rung
   never changes results.
2. **reduced-omega safety profile** — repeated divergence means the
   physics, not the machinery, is unstable; after
   :data:`DIVERGENCE_STRIKES` strikes the simulation is rebuilt with the
   coarse relaxation rate scaled by :data:`OMEGA_SAFETY_SCALE` (more
   viscous, more stable) and the report marks the run ``degraded``.

Every recovery is recorded once, in the run's :class:`RunReport`: its
counts (``retries``, ``rollback_steps``, ``checkpoints``), its
``failures`` and ``degradations``, and ``events`` — the ``resume`` /
``retry`` / ``rollback`` / ``degrade`` narration in the order it
happened.  The runner traces nothing: without a fault injector a
resilient run executes exactly the plan loop ``Simulation.run`` does,
and what happened to the executor itself (plan compiles, mp worker
restarts) is the backend's ``stats``.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

from ..backend.mp import MpWorkerError
from ..core.config import SimConfig
from ..core.results import RunResult
from ..core.simulation import Simulation
from ..core.units import omega_from_viscosity
from ..gpu.memory import DeviceOOMError
from ..io.checkpoint import CheckpointError, CheckpointStore
from ..obs.watchdog import HealthWatchdog, SimulationDiverged

__all__ = ["RetryPolicy", "RunReport", "RetryExhausted", "ResilientRunner"]


#: Failures under a concurrent executor (thread waves or the mp worker
#: pool) tolerated before the ladder falls back to serial replay.
EXECUTOR_STRIKES = 2
#: Divergences tolerated before the rebuild with the safety profile.
DIVERGENCE_STRIKES = 3
#: Factor on the coarse relaxation rate for the safety profile (< 1 raises
#: viscosity, pulling the run away from the omega -> 2 stability boundary).
OMEGA_SAFETY_SCALE = 0.8


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds of the recovery loop.

    Attributes
    ----------
    max_retries:
        Rollback-retries allowed per ladder rung before either stepping
        down a rung or raising :class:`RetryExhausted`.  Each successful
        checkpoint and each degradation resets the count — the budget
        bounds *consecutive* failures, not failures per run.
    checkpoint_every:
        Coarse steps between automatic checkpoints.  Smaller means less
        recomputation per rollback, more I/O.
    """

    max_retries: int = 3
    checkpoint_every: int = 5

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


@dataclass
class RunReport:
    """Structured outcome of one :meth:`ResilientRunner.run`.

    ``outcome`` is ``"ok"`` (target reached, physics untouched),
    ``"degraded"`` (target reached on a safety rung) or ``"failed"``
    (attached to :class:`RetryExhausted`).  ``failures`` lists every
    recovered incident; ``degradations`` the ladder rungs taken;
    ``events`` every ``resume`` / ``retry`` / ``rollback`` / ``degrade``
    as ``{"name": ..., **details}``, in the order they happened.
    ``first_step_s`` is the wall time from the call to ``run`` to its
    first completed step (``None`` until one completes).
    """

    outcome: str = "ok"
    target_step: int = 0
    final_step: int = 0
    retries: int = 0
    rollback_steps: int = 0
    checkpoints: int = 0
    mode: str = "serial"
    omega_scale: float = 1.0
    failures: list = field(default_factory=list)
    degradations: list = field(default_factory=list)
    events: list = field(default_factory=list)
    first_step_s: float | None = None

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "target_step": self.target_step,
            "final_step": self.final_step,
            "retries": self.retries,
            "rollback_steps": self.rollback_steps,
            "checkpoints": self.checkpoints,
            "mode": self.mode,
            "omega_scale": self.omega_scale,
            "failures": list(self.failures),
            "degradations": list(self.degradations),
            "events": list(self.events),
            "first_step_s": self.first_step_s,
        }


class RetryExhausted(RuntimeError):
    """Every retry and every ladder rung failed; carries the full report."""

    def __init__(self, message: str, report: RunReport) -> None:
        super().__init__(message)
        self.report = report


from .faults import InjectedKernelError

#: Failure types the runner recovers from; other exceptions recover only
#: when a ``kernel_span`` marks them as a kernel-body failure (attached
#: by the plan loop, on every backend).  Anything else is a programming
#: error and propagates untouched.
_RECOVERABLE = (SimulationDiverged, DeviceOOMError, InjectedKernelError,
                MpWorkerError)


class ResilientRunner:
    """Runs a simulation to a target step count, surviving failures.

    Parameters
    ----------
    spec:
        The :class:`~repro.grid.multigrid.RefinementSpec` (rebuilds on
        the degradation ladder recompile the same domain).
    config:
        The :class:`~repro.core.config.SimConfig`; defaults to the
        paper's profile with ``viscosity=0.05``.
    policy:
        :class:`RetryPolicy` (defaults are sensible for tests/CI).
    store:
        A :class:`~repro.io.checkpoint.CheckpointStore`, a directory
        path, or ``None`` for a self-cleaning temporary directory.  A
        store holding a readable generation is resumed from: the runner
        restores the newest one before its first step, so a run picks up
        where an earlier one stopped and never rolls back past the step
        it failed at.
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`,
        (re-)installed on every build — the test matrix's hook.
    grid:
        Optional :class:`~repro.grid.multigrid.MultiGrid` built from
        ``spec``, passed to every build, degradation rebuilds included
        (``Simulation(..., grid=)``).
    """

    def __init__(self, spec, config: SimConfig | None = None, *,
                 policy: RetryPolicy | None = None, store=None,
                 faults=None, grid=None) -> None:
        self.spec = spec
        self.grid = grid
        self.config = config if config is not None else SimConfig(viscosity=0.05)
        self.policy = policy if policy is not None else RetryPolicy()
        self.faults = faults
        #: Events that happened outside a run (a resume at construction);
        #: they head the next run's ``RunReport.events``.
        self._events: list[dict] = []
        self._tmp = None
        if store is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
            store = CheckpointStore(self._tmp.name)
        elif isinstance(store, (str, bytes)):
            store = CheckpointStore(str(store))
        self.store: CheckpointStore = store
        self.sim: Simulation = self._build(self.config)
        self.watchdog = HealthWatchdog(self.sim)
        if self.store.latest() is not None:
            try:
                restored = self.store.restore_latest(self.sim)
            except CheckpointError:
                pass  # no readable generation: start from step 0
            except BaseException:
                self.close()
                raise
            else:
                self._events.append({"name": "resume", "from_step": restored})

    # -- construction / rebuilds ----------------------------------------------
    def _build(self, config: SimConfig) -> Simulation:
        sim = Simulation.from_config(self.spec, config, grid=self.grid)
        if self.faults is not None:
            self.faults.install(sim)
        return sim

    def _rebuild(self, config: SimConfig) -> None:
        """Swap in a fresh simulation built from ``config``.

        The caller restores a checkpoint right after, so the rebuilt
        (re-initialised) state never runs.
        """
        old, self.config = self.sim, config
        old.close()
        self.sim = self._build(config)
        self.watchdog = HealthWatchdog(self.sim)

    @property
    def mode(self) -> str:
        return self.sim.mode

    # -- the recovery loop -----------------------------------------------------
    def run(self, n_steps: int,
            on_checkpoint: Callable[[RunReport], None] | None = None
            ) -> RunResult:
        """Advance ``n_steps`` coarse steps, recovering as needed.

        Returns a :class:`~repro.core.results.RunResult` whose
        :attr:`~repro.core.results.RunResult.report` carries the full
        :class:`RunReport` (retries, rollbacks, degradation rungs);
        raises :class:`RetryExhausted` (report attached) when the budget
        and the ladder are spent.  Callable repeatedly — the checkpoint
        store carries over; each run's report holds that run's events.

        ``on_checkpoint(report)`` is called on this thread at every
        checkpoint boundary the run goes on from: before the first step
        and after each checkpoint short of the target, with the report
        (events included) as it stands.  Whatever it raises ends the run
        there, with the state of ``sim.steps_done`` durable in the store.
        """
        pol = self.policy
        start_step = self.sim.steps_done
        t0 = time.perf_counter()
        report = RunReport(target_step=self.sim.steps_done + int(n_steps),
                           mode=self.mode, omega_scale=self._omega_scale(),
                           events=self._events)
        self._events = []
        if self.store.latest() is None:
            # Step-0 anchor: the very first failure must have somewhere
            # to roll back to.
            self.store.save(self.sim)
            report.checkpoints += 1
        if on_checkpoint is not None and self.sim.steps_done < report.target_step:
            on_checkpoint(report)
        attempts = 0
        executor_strikes = 0
        divergences = 0

        def watch(stepper) -> None:
            if report.first_step_s is None:
                report.first_step_s = time.perf_counter() - t0
            self.watchdog.callback(stepper)

        while self.sim.steps_done < report.target_step:
            segment_end = min(report.target_step,
                              self.sim.steps_done + pol.checkpoint_every)
            try:
                # The watchdog checks every step, so the state is validated
                # before it is checkpointed: a poisoned state never becomes
                # a rollback target.
                self.sim.run_until(segment_end, callback=watch)
            except Exception as exc:
                if (not isinstance(exc, _RECOVERABLE)
                        and not hasattr(exc, "kernel_span")):
                    raise
                attempts += 1
                self._recover(report, exc, attempts)
                if attempts > pol.max_retries:
                    # Budget spent on this rung: step down or give up
                    # (raises RetryExhausted with the report attached).
                    attempts = self._degrade_or_fail(report, exc)
                    executor_strikes = divergences = 0
                elif isinstance(exc, SimulationDiverged):
                    divergences += 1
                    if (divergences >= DIVERGENCE_STRIKES
                            and self._omega_scale() == 1.0):
                        self._degrade_safety(report)
                        attempts = executor_strikes = divergences = 0
                elif self.mode != "serial":
                    # The mp backend already respawns its pool per retry;
                    # repeated strikes on either concurrent executor
                    # abandon it for serial replay.
                    executor_strikes += 1
                    if executor_strikes >= EXECUTOR_STRIKES:
                        self._degrade_serial(report)
                        attempts = executor_strikes = 0
                self._rollback(report)
                continue
            self.store.save(self.sim)
            report.checkpoints += 1
            attempts = 0
            if (on_checkpoint is not None
                    and self.sim.steps_done < report.target_step):
                on_checkpoint(report)
        report.final_step = self.sim.steps_done
        report.mode = self.mode
        report.omega_scale = self._omega_scale()
        report.outcome = "degraded" if report.degradations else "ok"
        seconds = time.perf_counter() - t0
        result = self.sim._run_result(start_step, seconds)
        return RunResult(steps=result.steps, final_step=result.final_step,
                         seconds=seconds, backend=result.backend,
                         mode=result.mode, mlups=result.mlups,
                         metrics=result.metrics, report=report)

    # -- failure handling ------------------------------------------------------
    def _recover(self, report: RunReport, exc: BaseException,
                 attempt: int) -> None:
        kind = self._classify(exc)
        report.retries += 1
        report.failures.append({
            "step": self.sim.steps_done, "kind": kind,
            "attempt": attempt, "mode": self.mode,
            "error": f"{type(exc).__name__}: {exc}",
        })
        report.events.append({"name": "retry", "kind": kind,
                              "step": self.sim.steps_done,
                              "attempt": attempt, "mode": self.mode})

    @staticmethod
    def _classify(exc: BaseException) -> str:
        if isinstance(exc, SimulationDiverged):
            return "divergence"
        if isinstance(exc, DeviceOOMError):
            return "oom"
        if isinstance(exc, MpWorkerError):
            return "worker"
        return "kernel"

    def _rollback(self, report: RunReport) -> None:
        failed_at = self.sim.steps_done
        restored = self.store.restore_latest(self.sim)
        lost = max(0, failed_at - restored)
        report.rollback_steps += lost
        report.events.append({"name": "rollback", "from_step": failed_at,
                              "to_step": restored, "lost_steps": lost})

    # -- the degradation ladder ------------------------------------------------
    def _omega_scale(self) -> float:
        return getattr(self, "_omega_scale_applied", 1.0)

    def _degrade_serial(self, report: RunReport) -> None:
        """Concurrent rung (mp or threaded): rebuild on serial plan replay.

        The executor is fixed at construction, so this needs a rebuild;
        the caller restores a checkpoint right after, exactly like the
        safety-profile rung.  A threaded run keeps its own plan backend;
        mp lands on ``compiled``, which replays the same admitted plan.
        """
        at_step = self.sim.steps_done
        backend = ("compiled" if self.mode == "mp"
                   else self.sim.backend.name)
        self._rebuild(self.config.replace(backend=backend, threaded=False))
        self._note_degradation(report, "serial", step=at_step)

    def _degrade_safety(self, report: RunReport) -> None:
        """Last rung: rebuild with a reduced-omega (more viscous) profile."""
        cfg = self.config
        at_step = self.sim.steps_done
        omega0 = (cfg.omega0 if cfg.omega0 is not None
                  else omega_from_viscosity(cfg.viscosity))
        scaled = omega0 * OMEGA_SAFETY_SCALE
        self._omega_scale_applied = self._omega_scale() * OMEGA_SAFETY_SCALE
        self._rebuild(cfg.replace(viscosity=None, omega0=scaled))
        self._note_degradation(report, "safety-omega", step=at_step,
                               omega0=scaled)

    def _note_degradation(self, report: RunReport, rung: str, **extra) -> None:
        entry = {"rung": rung, "step": self.sim.steps_done, **extra}
        report.degradations.append(entry)
        report.events.append({"name": "degrade", **entry})

    def _degrade_or_fail(self, report: RunReport, exc: BaseException) -> int:
        """Retry budget spent: step down a rung (returning a reset attempt
        count of 0) or raise :class:`RetryExhausted`."""
        if self.mode != "serial":
            self._degrade_serial(report)
            return 0
        if isinstance(exc, SimulationDiverged) and self._omega_scale() == 1.0:
            self._degrade_safety(report)
            return 0
        report.final_step = self.sim.steps_done
        report.mode = self.mode
        report.omega_scale = self._omega_scale()
        report.outcome = "failed"
        raise RetryExhausted(
            f"gave up at step {self.sim.steps_done}/{report.target_step} "
            f"after {report.retries} retries "
            f"(last failure: {type(exc).__name__}: {exc})", report)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Release the simulation's backend and the temporary checkpoint dir.

        Idempotent: double-shutdown (a server's ``finally`` path racing
        explicit cleanup) is a no-op the second time, and a runner whose
        construction failed mid-way closes whatever it holds.
        """
        sim = getattr(self, "sim", None)
        if sim is not None:
            sim.close()
        if self.faults is not None:
            self.faults.uninstall()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "ResilientRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
