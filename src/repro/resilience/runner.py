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
   viscous, more stable) and the result marks the run ``degraded``.

Every recovery is recorded once, in the run's
:class:`~repro.core.results.RunResult` — the record a plain
``Simulation.run`` returns: its counts (``retries``, ``rollback_steps``,
``checkpoints``), its ``failures`` and ``degradations``, and ``events``
— the ``resume`` / ``retry`` / ``rollback`` / ``degrade`` narration in
the order it happened.  The runner traces nothing: without a fault injector a
resilient run executes exactly the plan loop ``Simulation.run`` does,
and what happened to the executor itself (plan compiles, mp worker
restarts) is the backend's ``stats``.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from typing import Callable

from ..backend.mp import MpWorkerError
from ..core.config import SimConfig
from ..core.results import RunResult
from ..core.simulation import Simulation
from ..core.units import omega_from_viscosity
from ..gpu.memory import DeviceOOMError
from ..io.checkpoint import CheckpointError, CheckpointStore
from ..obs.watchdog import HealthWatchdog, SimulationDiverged

__all__ = ["RetryPolicy", "RetryExhausted", "ResilientRunner"]


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


class RetryExhausted(RuntimeError):
    """Every retry and every ladder rung failed; carries the run's record
    (outcome ``"failed"``) as :attr:`result`."""

    def __init__(self, message: str, result: RunResult) -> None:
        super().__init__(message)
        self.result = result


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
        #: they head the next run's ``RunResult.events``.
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
            on_checkpoint: Callable[[RunResult], None] | None = None
            ) -> RunResult:
        """Advance ``n_steps`` coarse steps, recovering as needed.

        Returns the run's :class:`~repro.core.results.RunResult`, its
        retries, rollbacks and degradation rungs included; raises
        :class:`RetryExhausted` (the record attached) when the budget and
        the ladder are spent.  Callable repeatedly — the checkpoint store
        carries over; each run's record holds that run's events.

        ``on_checkpoint(result)`` is called on this thread at every
        checkpoint boundary the run goes on from: before the first step
        and after each checkpoint short of the target, with the record
        (events included) as it stands.  Whatever it raises ends the run
        there, with the state of ``sim.steps_done`` durable in the store.
        """
        pol = self.policy
        start_step = self.sim.steps_done
        t0 = time.perf_counter()
        result = RunResult(final_step=start_step, backend=self.sim.backend.name,
                           mode=self.mode,
                           target_step=start_step + int(n_steps),
                           omega_scale=self._omega_scale(),
                           events=self._events)
        self._events = []
        if self.store.latest() is None:
            # Step-0 anchor: the very first failure must have somewhere
            # to roll back to.
            self.store.save(self.sim)
            result.checkpoints += 1
        if on_checkpoint is not None and self.sim.steps_done < result.target_step:
            on_checkpoint(result)
        attempts = 0
        executor_strikes = 0
        divergences = 0

        def watch(stepper) -> None:
            if result.first_step_s is None:
                result.first_step_s = time.perf_counter() - t0
            self.watchdog.callback(stepper)

        while self.sim.steps_done < result.target_step:
            segment_end = min(result.target_step,
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
                self._recover(result, exc, attempts)
                if attempts > pol.max_retries:
                    # Budget spent on this rung: step down or give up.
                    if not self._step_down(result, exc):
                        result.outcome = "failed"
                        result.omega_scale = self._omega_scale()
                        self.sim._measure(result, start_step,
                                          time.perf_counter() - t0)
                        raise RetryExhausted(
                            f"gave up at step {self.sim.steps_done}/"
                            f"{result.target_step} after {result.retries} "
                            f"retries (last failure: "
                            f"{type(exc).__name__}: {exc})", result)
                    attempts = executor_strikes = divergences = 0
                elif isinstance(exc, SimulationDiverged):
                    divergences += 1
                    if (divergences >= DIVERGENCE_STRIKES
                            and self._omega_scale() == 1.0):
                        self._degrade_safety(result)
                        attempts = executor_strikes = divergences = 0
                elif self.mode != "serial":
                    # The mp backend already respawns its pool per retry;
                    # repeated strikes on either concurrent executor
                    # abandon it for serial replay.
                    executor_strikes += 1
                    if executor_strikes >= EXECUTOR_STRIKES:
                        self._degrade_serial(result)
                        attempts = executor_strikes = 0
                self._rollback(result)
                continue
            self.store.save(self.sim)
            result.checkpoints += 1
            attempts = 0
            if (on_checkpoint is not None
                    and self.sim.steps_done < result.target_step):
                on_checkpoint(result)
        result.omega_scale = self._omega_scale()
        result.outcome = "degraded" if result.degradations else "ok"
        return self.sim._measure(result, start_step, time.perf_counter() - t0)

    # -- failure handling ------------------------------------------------------
    def _recover(self, result: RunResult, exc: BaseException,
                 attempt: int) -> None:
        kind = self._classify(exc)
        result.retries += 1
        result.failures.append({
            "step": self.sim.steps_done, "kind": kind,
            "attempt": attempt, "mode": self.mode,
            "error": f"{type(exc).__name__}: {exc}",
        })
        result.events.append({"name": "retry", "kind": kind,
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

    def _rollback(self, result: RunResult) -> None:
        failed_at = self.sim.steps_done
        restored = self.store.restore_latest(self.sim)
        lost = max(0, failed_at - restored)
        result.rollback_steps += lost
        result.events.append({"name": "rollback", "from_step": failed_at,
                              "to_step": restored, "lost_steps": lost})

    # -- the degradation ladder ------------------------------------------------
    def _omega_scale(self) -> float:
        return getattr(self, "_omega_scale_applied", 1.0)

    def _degrade_serial(self, result: RunResult) -> None:
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
        self._note_degradation(result, "serial", step=at_step)

    def _degrade_safety(self, result: RunResult) -> None:
        """Last rung: rebuild with a reduced-omega (more viscous) profile."""
        cfg = self.config
        at_step = self.sim.steps_done
        omega0 = (cfg.omega0 if cfg.omega0 is not None
                  else omega_from_viscosity(cfg.viscosity))
        scaled = omega0 * OMEGA_SAFETY_SCALE
        self._omega_scale_applied = self._omega_scale() * OMEGA_SAFETY_SCALE
        self._rebuild(cfg.replace(viscosity=None, omega0=scaled))
        self._note_degradation(result, "safety-omega", step=at_step,
                               omega0=scaled)

    def _note_degradation(self, result: RunResult, rung: str, **extra) -> None:
        entry = {"rung": rung, "step": self.sim.steps_done, **extra}
        result.degradations.append(entry)
        result.events.append({"name": "degrade", **entry})

    def _step_down(self, result: RunResult, exc: BaseException) -> bool:
        """Retry budget spent: take the next ladder rung, if there is one."""
        if self.mode != "serial":
            self._degrade_serial(result)
            return True
        if isinstance(exc, SimulationDiverged) and self._omega_scale() == 1.0:
            self._degrade_safety(result)
            return True
        return False

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
