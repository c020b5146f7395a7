"""The non-uniform time-stepping recursion (paper Algorithm 1).

One call to :meth:`NonUniformStepper.step` advances the *coarsest* level
by one time step; level ``L`` executes ``2^L`` substeps per coarse step
(acoustic scaling).  The recursion is identical for every
:class:`~repro.core.fusion.FusionConfig` — only the kernel grouping
changes, which is how the paper's Fig. 2 graphs are generated from the
very same driver.

*How* the step executes is delegated to a pluggable backend
(:mod:`repro.backend`).  Every backend records the recursion with
``Runtime.capture_plan`` — ``op_*`` builds each kernel and runs nothing —
and runs the bodies the launches carried: the interpreted reference backend captures and
runs it anew every step, the compiled backend captures it once into an
admitted step plan and replays, and the mp backend ships shards of that
same captured plan to worker processes over shared memory.  The
recursion in :meth:`_advance` stays the single definition of the
algorithm either way — plans are captured *from* it (in this process or
a digest-checked worker), never re-implemented.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .engine import Engine
from .fusion import MODIFIED_BASELINE, FusionConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backend import Backend

__all__ = ["NonUniformStepper"]


class NonUniformStepper:
    """Drives an :class:`~repro.core.engine.Engine` with Algorithm 1."""

    def __init__(self, engine: Engine, config: FusionConfig = MODIFIED_BASELINE,
                 backend: "Backend | None" = None) -> None:
        self.engine = engine
        self.config = config
        self.num_levels = engine.mgrid.num_levels
        self.steps_done = 0
        if backend is None:
            from ..backend.interpreted import InterpretedBackend
            backend = InterpretedBackend()
        #: Execution strategy for :meth:`step` (see :mod:`repro.backend`).
        self.backend = backend

    def step(self) -> None:
        """Advance the coarsest level by one time step.

        Execution is delegated to :attr:`backend`; every backend honours
        the same contract: one step marker per coarse step, and
        :meth:`~repro.neon.runtime.Runtime.abort_step` before a mid-step
        failure propagates, so span trees stay balanced and the trace
        remains exportable/valid.
        """
        self.backend.step(self)

    def run(self, n_steps: int, callback=None) -> None:
        """Run ``n_steps`` coarse steps, invoking ``callback(self)`` after each."""
        for _ in range(n_steps):
            self.step()
            if callback is not None:
                callback(self)

    # -- Algorithm 1 -----------------------------------------------------------
    def _advance(self, lv: int) -> None:
        cfg = self.config
        eng = self.engine
        finest = lv == self.num_levels - 1
        halves = 1 if lv == 0 else 2
        for _ in range(halves):
            if finest and cfg.fuse_cs_finest:
                # Fig. 4f: the whole substep is one CASE kernel.
                eng.op_fused_case(lv)
            else:
                eng.op_collide(
                    lv,
                    fuse_accumulate=cfg.fuse_ca and lv > 0 and not cfg.original_layout)
                if lv > 0 and not (cfg.fuse_ca and not cfg.original_layout):
                    eng.op_accumulate(lv, gather=cfg.original_layout)
                if not finest:
                    self._advance(lv + 1)
                if lv > 0 and cfg.original_layout:
                    eng.op_explosion_copy(lv)
                # Streaming and the cross-level pulls.  Writes of S, E and O
                # target disjoint population entries, so they may execute in
                # any order (on the GPU they run concurrently, Fig. 2); the
                # engine gathers first, then writes the cross-level entries.
                eng.op_stream(lv,
                              fuse_explosion=cfg.fuse_se,
                              fuse_coalescence=cfg.fuse_so,
                              exp_from_ghost=cfg.original_layout)
                if not cfg.fuse_se:
                    eng.op_explode(lv, exp_from_ghost=cfg.original_layout)
                if not cfg.fuse_so:
                    eng.op_coalesce(lv)
