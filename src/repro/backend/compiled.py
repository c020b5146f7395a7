"""Compiled backend: cache a step plan per step shape, then replay.

The first execution of each unique step shape — fusion config, per-level
relaxation rates, body force (:func:`~repro.backend.compiler.plan_key`)
— compiles a :class:`~repro.backend.plan.StepPlan` (capture, admit,
bind; see :mod:`repro.backend.compiler`) and caches it.  Every later
step of the same shape replays the cached plan with zero Python
re-dispatch — serially, or in dependency waves on a thread pool when the
simulation was configured ``threaded``.

Fault injectors and span recorders act on the plan's kernels
(:meth:`StepPlan.execute <repro.backend.plan.StepPlan.execute>`), so a
faulted or observed step runs the admitted plan like any other: this backend never leaves it, and ``plan_fallback_steps`` stays
0.  A checkpoint restore writes the buffers the plan is bound to in
place, so the cached plan is replayed after it.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any

from ..neon.executor import WavePool
from .compiler import compile_plan, plan_key
from .plan import StepPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import SimConfig
    from ..core.stepper import NonUniformStepper

__all__ = ["CompiledBackend"]


class CompiledBackend:
    """Compile-once / replay-many execution of the coarse step."""

    name = "compiled"

    def __init__(self) -> None:
        self.plans: dict[tuple[Any, ...], StepPlan] = {}
        #: :class:`~repro.neon.executor.WavePool` replaying plans in
        #: waves, or ``None`` for serial replay (see :meth:`configure`).
        self.pool: WavePool | None = None
        #: Counters surfaced through ``repro.obs.metrics.run_metrics``
        #: (``plan_fallback_steps`` is shared with mp, which may fall back).
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

    def _obtain_plan(self, stepper: "NonUniformStepper") -> StepPlan:
        key = plan_key(stepper)
        plan = self.plans.get(key)
        if plan is not None:
            self.stats["plan_cache_hits"] += 1
            return plan
        t0 = perf_counter()
        plan = compile_plan(stepper)
        self.stats["plan_cache_misses"] += 1
        self.stats["plan_compile_seconds"] += perf_counter() - t0
        self.plans[key] = plan
        return plan

    def step(self, stepper: "NonUniformStepper") -> None:
        """Advance one coarse step by plan replay."""
        plan = self._obtain_plan(stepper)
        rt = stepper.engine.rt
        try:
            plan.execute(rt, self.pool)
            rt.step_marker()
        except BaseException:
            rt.abort_step()
            raise
        stepper.steps_done += 1
