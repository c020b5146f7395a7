"""Compiled backend: cache a step plan per step shape, then replay.

The first execution of each unique step shape — fusion config, per-level
relaxation rates, body force, engine state epoch — compiles a
:class:`~repro.backend.plan.StepPlan` (capture, admit, bind; see
:mod:`repro.backend.compiler`) and caches it.  Every later step of the
same shape replays the cached plan with zero Python re-dispatch of the
launch path — serially, or in dependency waves on a thread pool when the
simulation was configured ``threaded``.

Fault injectors and span recorders act on the plan's kernels
(:meth:`StepPlan.execute <repro.backend.plan.StepPlan.execute>`), so a
faulted or observed step runs the same bodies as any other.  Only the
two capture modes — declaration capture and access capture — run a step
on the launch path, counted in ``plan_fallback_steps``: access capture
needs its launch bracketing, plan-only executes nothing.  The bodies are
the same either way.  Checkpoint restores bump the engine's state epoch
so stale plans are never replayed against restored state.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any

from ..neon.executor import WavePool
from .compiler import compile_plan
from .interpreted import InterpretedBackend
from .plan import StepPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import SimConfig
    from ..core.stepper import NonUniformStepper

__all__ = ["CompiledBackend"]

PlanKey = tuple[Any, ...]


class CompiledBackend:
    """Compile-once / replay-many execution of the coarse step."""

    name = "compiled"

    def __init__(self) -> None:
        self.plans: dict[PlanKey, StepPlan] = {}
        #: :class:`~repro.neon.executor.WavePool` replaying plans in
        #: waves, or ``None`` for serial replay (see :meth:`configure`).
        self.pool: WavePool | None = None
        self._fallback = InterpretedBackend()
        #: Counters surfaced through ``repro.obs.metrics.run_metrics``.
        self.stats: dict[str, float] = {
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
            "plan_fallback_steps": 0,
            "plan_compile_seconds": 0.0,
        }

    def configure(self, config: "SimConfig") -> None:
        """Apply ``SimConfig`` knobs (called by ``Simulation.__init__``)."""
        if config.threaded:
            self.pool = WavePool(config.max_workers)

    def close(self) -> None:
        """Stop the pool's threads; a later step restarts them lazily."""
        if self.pool is not None:
            self.pool.shutdown()

    def _plan_key(self, stepper: "NonUniformStepper") -> PlanKey:
        """Everything a cached plan's bindings depend on.

        ``SimConfig`` changes and regrids build a new ``Simulation`` (and
        with it a fresh backend instance), so those invalidate by
        construction; checkpoint restores mutate buffers in place and are
        keyed via the engine's ``state_epoch``.
        """
        engine = stepper.engine
        force_key = tuple(
            None if fv is None else tuple(float(c) for c in fv)
            for fv in engine.force)
        return (stepper.config, tuple(engine.omega), force_key,
                engine.state_epoch)

    def _must_fall_back(self, stepper: "NonUniformStepper") -> bool:
        """True while a capture mode of the reference launch path is on."""
        rt = stepper.engine.rt
        return rt.plan_only or rt.tracer is not None

    def _obtain_plan(self, stepper: "NonUniformStepper") -> StepPlan:
        key = self._plan_key(stepper)
        plan = self.plans.get(key)
        if plan is not None:
            self.stats["plan_cache_hits"] += 1
            return plan
        t0 = perf_counter()
        plan = compile_plan(stepper)
        dt = perf_counter() - t0
        self.stats["plan_cache_misses"] += 1
        self.stats["plan_compile_seconds"] += dt
        self.plans[key] = plan
        spans = stepper.engine.rt.spans
        on_event = getattr(spans, "on_event", None)
        if on_event is not None:
            on_event("plan_compile", label=plan.label, kernels=len(plan),
                     digest=plan.digest, seconds=dt)
        return plan

    def step(self, stepper: "NonUniformStepper") -> None:
        """Advance one coarse step by plan replay (or counted fallback)."""
        if self._must_fall_back(stepper):
            self.stats["plan_fallback_steps"] += 1
            self._fallback.step(stepper)
            return
        plan = self._obtain_plan(stepper)
        rt = stepper.engine.rt
        try:
            plan.execute(rt, self.pool)
            rt.step_marker()
        except BaseException:
            rt.abort_step()
            raise
        stepper.steps_done += 1

